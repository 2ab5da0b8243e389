"""Desk-scale verification harness: fit per-cell logits by gradient descent.

Synthetic scenes are assigned to positive cells exactly as a detector head
would see them, one four-logit set per (scale, cell, quadrant). Plain
full-batch gradient descent on a chosen regression loss then drives the
decoded boxes toward the ground truth, isolating the loss geometry from
optimizer tricks. Logits start at zero, so every decoded distance starts
at its scale's gain.

Records whose targets fall outside the representable open interval
(0, 4 * gain) at their scale cannot be reached by any logit and are
excluded up front; an object excluded at every scale is reported, not
fatal. The report tracks the loss trace, the per-object best reference
IoU over time, and how many update steps each object needed to cross the
0.9 and 0.99 IoU marks, which is what the loss-comparison table uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .assign import AssignMode, assign
from .codec import ScaleConfig, decode_distances, decode_jacobian
from .geom import BoundingBox, iou_xyxy, to_corner
from .ingest import Scene
from .losses import LOSS_KINDS, multitask_loss, regression_loss_grad


@dataclass(frozen=True)
class SceneSpec:
    """Synthetic scene parameters: image size, object count, size bounds.

    The default size band keeps both box dimensions representable and
    strongly damped at the finest scale for the default gains. Constant
    step-size descent on an overlap-style loss never settles exactly (the
    minimum is V-shaped), and the residual limit cycle only stays
    negligible while targets sit high on the decode sigmoid; the defaults
    put every sampled box in that regime at the default learning rate.
    Wider bands fit fine too, just with a visible oscillation floor at
    whichever scales decode the box with low sigmoid activations.
    """

    image_w: int = 640
    image_h: int = 640
    n_objects: int = 1
    size_min: float = 72.0
    size_max: float = 108.0
    n_classes: int = 3

    def __post_init__(self) -> None:
        if self.n_objects < 0:
            raise ValueError(f"n_objects must be >= 0, got {self.n_objects}")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        if not (0 < self.size_min <= self.size_max):
            raise ValueError(
                f"size bounds must satisfy 0 < min <= max, got "
                f"({self.size_min}, {self.size_max})"
            )
        if self.size_max >= min(self.image_w, self.image_h):
            raise ValueError("size_max must be smaller than the image")


def generate_scene(spec: SceneSpec, seed: int) -> Scene:
    """Deterministic random scene; identical seeds give identical scenes.

    Boxes are sampled with sizes inside the spec bounds and placed fully
    inside the image, so centers are always strictly interior.
    """
    rng = np.random.default_rng(seed)
    objects = []
    for _ in range(spec.n_objects):
        w = rng.uniform(spec.size_min, spec.size_max)
        h = rng.uniform(spec.size_min, spec.size_max)
        cx = rng.uniform(w / 2, spec.image_w - w / 2)
        cy = rng.uniform(h / 2, spec.image_h - h / 2)
        class_id = int(rng.integers(0, spec.n_classes))
        objects.append((BoundingBox(cx, cy, w, h), class_id))
    return Scene(
        image_w=spec.image_w,
        image_h=spec.image_h,
        objects=tuple(objects),
        source_id=f"synthetic-{seed}",
    )


@dataclass(frozen=True)
class FitConfig:
    """Gradient-descent settings for the harness.

    ``steps`` may be zero for an initialization-only report. ``scale``
    defaults to the standard pyramid sized to the scene. ``multitask``
    additionally optimizes per-cell objectness and class logits against
    synthetic always-positive labels, composing the per-scale sum of
    classification, objectness, and box terms.
    """

    steps: int = 500
    learning_rate: float = 0.1
    loss: str = "sdiou"
    rho: float = 1.0
    mode: AssignMode = field(default_factory=AssignMode)
    scale: ScaleConfig = field(default_factory=ScaleConfig)
    multitask: bool = False

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(
                f"unknown loss kind {self.loss!r}; valid: {', '.join(LOSS_KINDS)}"
            )


@dataclass(frozen=True)
class FitReport:
    """Everything measured during one fit."""

    loss_kind: str
    steps: int
    learning_rate: float
    loss_trace: np.ndarray            # (steps + 1,), index 0 = initialization
    iou_trace: np.ndarray             # (steps + 1, n_objects), best record per object
    final_iou: np.ndarray             # (n_objects,), best over scales, NaN if excluded
    steps_to_iou90: tuple
    steps_to_iou99: tuple
    success_rate: float               # fraction of included objects above 0.99
    excluded_objects: tuple
    n_records: int
    n_records_excluded: int

    def summary_dict(self) -> dict:
        """JSON-ready digest of the run."""
        return {
            "loss": self.loss_kind,
            "steps": self.steps,
            "learning_rate": self.learning_rate,
            "n_objects": int(self.final_iou.shape[0]),
            "excluded_objects": list(self.excluded_objects),
            "n_records": self.n_records,
            "n_records_excluded": self.n_records_excluded,
            "final_loss": float(self.loss_trace[-1]),
            "final_iou": [None if math.isnan(v) else float(v) for v in self.final_iou],
            "steps_to_iou90": list(self.steps_to_iou90),
            "steps_to_iou99": list(self.steps_to_iou99),
            "success_rate": self.success_rate,
        }


def check_size_bounds(spec: SceneSpec, scale: ScaleConfig) -> None:
    """Reject scene specs no scale can represent.

    A center-cell distance is at most half the box size plus one stride in
    pixels, so some scale must keep that under its decode bound for every
    placement. Neighbor cells that fall out of range are merely excluded.
    """
    for i, stride in enumerate(scale.strides):
        if spec.size_max / 2 + stride < 4 * scale.gains[i] * stride:
            return
    raise ValueError(
        f"size bounds ({spec.size_min}, {spec.size_max}) exceed the decodable "
        f"distance range at every scale"
    )


def _record_boxes(d: np.ndarray, cells: np.ndarray, strides: np.ndarray) -> np.ndarray:
    x1 = strides * (cells[:, 0] + 1.0 - d[:, 0])
    y1 = strides * (cells[:, 1] + 1.0 - d[:, 1])
    x2 = strides * (cells[:, 0] + d[:, 2])
    y2 = strides * (cells[:, 1] + d[:, 3])
    return np.stack([x1, y1, x2, y2], axis=-1)


def _steps_to(trace_col: np.ndarray, tau: float):
    hits = np.nonzero(trace_col >= tau)[0]
    return int(hits[0]) if hits.size else None


def fit_scene(scene: Scene, cfg: FitConfig = FitConfig()) -> FitReport:
    """Run plain gradient descent on one scene's positive-cell logits.

    The objective is the chosen regression loss summed over all usable
    assignment records (plus mean objectness/class cross-entropy terms per
    scale in multitask mode). Deterministic: identical scene and config
    reproduce the report bit for bit.
    """
    scale = cfg.scale.for_image(scene.image_w, scene.image_h)
    table = assign(list(scene.objects), scale, cfg.mode)
    n_objects = len(scene.objects)
    n_scales = scale.num_scales

    limit = 4.0 * np.array(scale.gains)[table.scale_index, None]
    usable = table.select(np.all((table.target > 0.0) & (table.target < limit), axis=1))
    n_rec = len(usable)
    excluded_records = len(table) - n_rec
    obj_idx = usable.object_id
    scale_idx = usable.scale_index
    excluded_objects = tuple(np.setdiff1d(np.arange(n_objects), obj_idx).tolist())

    gains = np.array(scale.gains)[scale_idx]
    strides = np.array(scale.strides)[scale_idx]
    cells = usable.cell
    # one logit set per (scale, cell, quadrant), numbered by first occurrence
    keys = np.column_stack([scale_idx, cells, usable.quadrant])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    key_idx = np.argsort(np.argsort(first))[inverse.reshape(-1)]
    key_scale = scale_idx[np.sort(first)]
    key_class = usable.class_id[np.sort(first)]

    n_keys = len(first)
    logits = np.zeros((n_keys, 4))

    if cfg.multitask:
        obj_logits = np.zeros(n_keys)
        n_classes = (int(usable.class_id.max()) if n_rec else 0) + 1
        cls_logits = np.zeros((n_keys, n_classes))
        cls_labels = np.zeros((n_keys, n_classes))
        cls_labels[np.arange(n_keys), key_class] = 1.0

    truth_boxes = np.array(
        [to_corner(box).as_array() for box, _ in scene.objects]
    ).reshape(n_objects, 4)

    def best_iou_per_object(d: np.ndarray) -> np.ndarray:
        best = np.full(n_objects, np.nan)
        ious = iou_xyxy(_record_boxes(d, cells, strides), truth_boxes[obj_idx])
        acc = np.full(n_objects, -1.0)
        np.maximum.at(acc, obj_idx, ious)
        best[acc >= 0.0] = acc[acc >= 0.0]
        return best

    rec_masks = [scale_idx == s for s in range(n_scales)]
    key_masks = [key_scale == s for s in range(n_scales)]

    def objective(loss_r: np.ndarray) -> float:
        if not cfg.multitask:
            return float(np.sum(loss_r))
        return multitask_loss(
            [float(np.mean(loss_r[m])) if np.any(m) else 0.0 for m in rec_masks],
            [obj_logits[m] for m in key_masks],
            [np.ones(np.count_nonzero(m)) for m in key_masks],
            [cls_logits[m] for m in key_masks],
            [cls_labels[m] for m in key_masks],
        ).total

    # Step k's post-update decode is step k+1's input, and the last pass
    # only scores the final logits.
    d = decode_distances(logits[key_idx], gains[:, None])
    iou_rows = [best_iou_per_object(d)]
    loss_trace = []
    for step in range(cfg.steps + 1):
        loss_r, grad_d = regression_loss_grad(d, usable.target, cfg.loss, cfg.rho)
        loss_trace.append(objective(loss_r))
        if step == cfg.steps:
            break

        if cfg.multitask:
            # box gradients carry the per-scale mean reduction
            counts = np.bincount(scale_idx, minlength=n_scales).astype(float)
            grad_d = grad_d / counts[scale_idx, None]
        grad_p = grad_d * decode_jacobian(logits[key_idx], gains[:, None])
        g = np.zeros_like(logits)
        np.add.at(g, key_idx, grad_p)
        logits -= cfg.learning_rate * g

        if cfg.multitask and n_keys:
            kcounts = np.bincount(key_scale, minlength=n_scales).astype(float)
            obj_logits -= cfg.learning_rate * (
                (expit(obj_logits) - 1.0) / kcounts[key_scale]
            )
            cls_logits -= cfg.learning_rate * (
                (expit(cls_logits) - cls_labels)
                / (kcounts[key_scale, None] * cls_labels.shape[1])
            )

        d = decode_distances(logits[key_idx], gains[:, None])
        iou_rows.append(best_iou_per_object(d))

    iou_trace = np.array(iou_rows).reshape(cfg.steps + 1, n_objects)
    final_iou = iou_trace[-1].copy()

    with np.errstate(invalid="ignore"):
        included = ~np.isnan(final_iou)
        success = float(np.mean(final_iou[included] > 0.99)) if included.any() else 0.0

    return FitReport(
        loss_kind=cfg.loss,
        steps=cfg.steps,
        learning_rate=cfg.learning_rate,
        loss_trace=np.array(loss_trace),
        iou_trace=iou_trace,
        final_iou=final_iou,
        steps_to_iou90=tuple(_steps_to(iou_trace[:, i], 0.90) for i in range(n_objects)),
        steps_to_iou99=tuple(_steps_to(iou_trace[:, i], 0.99) for i in range(n_objects)),
        success_rate=success,
        excluded_objects=excluded_objects,
        n_records=n_rec,
        n_records_excluded=excluded_records,
    )


def _median_steps(values: list) -> float:
    """Median where never-converged counts as infinity."""
    vals = sorted(math.inf if v is None else float(v) for v in values)
    if not vals:
        return math.inf
    mid = len(vals) // 2
    if len(vals) % 2:
        return vals[mid]
    lo, hi = vals[mid - 1], vals[mid]
    return math.inf if math.isinf(lo) or math.isinf(hi) else (lo + hi) / 2


def compare_losses(
    scenes,
    cfg: FitConfig = FitConfig(),
    kinds=("sdiou", "mse", "giou", "ciou"),
) -> list[dict]:
    """Fit the same scenes once per loss kind from identical initialization.

    Returns one row per kind with convergence counts and the median number
    of update steps to reach IoU 0.9 and 0.99 across all objects of all
    scenes (never-converged objects count as infinite).
    """
    if isinstance(scenes, Scene):
        scenes = [scenes]
    # every kind is validated before the first fit runs
    runs = [replace(cfg, loss=kind) for kind in kinds]
    rows = []
    for run_cfg in runs:
        steps90: list = []
        steps99: list = []
        finals = []
        for scene in scenes:
            report = fit_scene(scene, run_cfg)
            steps90.extend(report.steps_to_iou90)
            steps99.extend(report.steps_to_iou99)
            finals.extend(v for v in report.final_iou if not math.isnan(v))
        rows.append(
            {
                "loss": run_cfg.loss,
                "n_objects": len(steps90),
                "reached_iou90": sum(1 for v in steps90 if v is not None),
                "reached_iou99": sum(1 for v in steps99 if v is not None),
                "median_steps_to_iou90": _median_steps(steps90),
                "median_steps_to_iou99": _median_steps(steps99),
                "mean_final_iou": float(np.mean(finals)) if finals else float("nan"),
            }
        )
    return rows
