"""Desk-scale verification harness: fit per-cell logits by gradient descent.

Synthetic scenes are assigned to positive cells exactly as a detector head
would see them, one four-logit set per (scale, cell, quadrant). Plain
full-batch gradient descent on a chosen regression loss then drives the
decoded boxes toward the ground truth, isolating the loss geometry from
optimizer tricks. Logits start at zero, so every decoded distance starts
at its scale's gain.

One engine, :func:`fit_scenes`, runs every fit. It assigns all scenes in
one :func:`~detbox.assign.assign_scenes` call, keeps the usable records,
keeps one logit copy per loss kind, and steps them all in a single loop.
The loss call is planned once per kind per fit; each step makes one decode
(one ``expit``), one planned loss call per kind on that kind's rows, and
one gradient update over every row. The traces are taken per block of
steps (at most :data:`BLOCK_VALUES` distances): one IoU call, and in plain
mode one objective sum per scene.
:func:`fit_scene` and :func:`compare_losses` call it.

Records whose targets fall outside the representable open interval
(0, 4 * gain) at their scale cannot be reached by any logit and are
excluded up front; an object excluded at every scale is reported, not
fatal. The report tracks the loss trace, the per-object best reference
IoU over time, and how many update steps each object needed to cross the
0.9 and 0.99 IoU marks, which is what the loss-comparison table uses.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from .assign import AssignMode, assign_scenes
from .codec import ScaleConfig, decode_with_jacobian
from .geom import BoundingBox, iou_columns, xyxy_area
from .ingest import Scene
from .losses import LOSS_KINDS, _bce, plan_loss_grad

N_CLASSES = 3   # synthetic class ids are drawn from range(N_CLASSES)
BLOCK_VALUES = 32768   # decoded distances buffered per block of fit steps: bounds its memory


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

    def __post_init__(self) -> None:
        if self.n_objects < 0:
            raise ValueError(f"n_objects must be >= 0, got {self.n_objects}")
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
        class_id = int(rng.integers(0, N_CLASSES))
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
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
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


def _steps_to(trace: np.ndarray, tau: float) -> tuple:
    """Per object (column), the first step whose IoU reaches ``tau``, or None."""
    hit = trace >= tau
    return tuple(int(i) if h else None for i, h in zip(hit.argmax(axis=0), hit.any(axis=0)))


def fit_scenes(scenes, cfg: FitConfig = FitConfig(), kinds=None) -> list[list[FitReport]]:
    """Fit every scene under every loss kind in one gradient-descent loop.

    ``kinds`` defaults to ``(cfg.loss,)``. Returns one list of reports per
    kind, in ``kinds`` order, with one report per scene. The objective is
    the kind's loss summed over a scene's usable records (in multitask
    mode, the per-scale sum of mean box loss and mean objectness and class
    cross entropy). Each (scene, kind) pair rounds exactly as if fit alone.
    """
    kinds = (cfg.loss,) if kinds is None else tuple(kinds)
    for kind in kinds:
        replace(cfg, loss=kind)  # FitConfig rejects an unknown kind
    table, obj_off = assign_scenes(scenes, cfg.scale, cfg.mode)   # checks the mode on no scenes too
    if not scenes or not kinds:
        return [[] for _ in kinds]
    # every scene's pyramid has the configured strides and gains
    gains, n_scales, n_kinds = np.array(cfg.scale.gains), cfg.scale.num_scales, len(kinds)
    limit = 4.0 * gains[table.scale_index, None]
    usable = np.all((table.target > 0.0) & (table.target < limit), axis=1)
    rec = table.select(usable)
    obj = rec.object_id                              # numbered across the scenes
    scene_of_obj = np.repeat(np.arange(len(scenes)), np.diff(obj_off))
    n_excluded = np.bincount(scene_of_obj[table.object_id[~usable]], minlength=len(scenes))
    scene_of = scene_of_obj[obj]
    rec_off = np.searchsorted(obj, obj_off).tolist()   # rows run by object, so by scene
    # one logit set per (scene, scale, cell, quadrant), numbered by first occurrence
    keys = np.column_stack([scene_of, rec.scale_index, rec.cell, rec.quadrant])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    n_keys, n_objects = len(first), obj_off[-1]
    truth = np.array([(b.x1, b.y1, b.x2, b.y2) for s in scenes for b, _ in s.objects])
    truth = truth.reshape(-1, 4)[obj].T.copy()    # corner columns x1, y1, x2, y2
    stride = np.array(cfg.scale.strides)[rec.scale_index]
    # rows are (kind, record): kind k owns logit sets [k * n_keys, (k + 1) * n_keys)
    by_kind = np.arange(n_kinds)[:, None]
    row_key = by_kind * n_keys + np.argsort(np.argsort(first))[inverse.reshape(-1)]
    # each row's gain, laid out at the decode's (kinds, rows, 4) shape once, not broadcast per step
    gain = np.broadcast_to(gains[rec.scale_index, None], (*row_key.shape, 4)).copy()
    # one bincount bin per (logit set, component) adds gradients in row order
    bins = (row_key[..., None] * 4 + np.arange(4)).ravel()
    # rows run by (kind, object), so an object's best IoU is a max over a run
    owners, starts = np.unique(by_kind * n_objects + obj, return_index=True)
    # a box is stride * (corner + d * side): x1 = stride * (x + 1 - l), ..., y2 = stride * (y + b)
    corner, side = np.concatenate([rec.cell + 1.0, rec.cell], axis=1), np.array([-1.0, -1, 1, 1])
    truth_area = xyxy_area(truth)

    if cfg.multitask:
        if (low := rec.class_id.min(initial=0)) < 0:
            raise ValueError(f"multitask class ids must be >= 0, got {low}")
        group = scene_of * n_scales + rec.scale_index    # one group per (scene, scale)
        first_sorted = np.sort(first)
        n_groups, key_group = len(scenes) * n_scales, group[first_sorted]
        rows_per_group = np.bincount(group, minlength=n_groups)
        keys_per_group = np.bincount(key_group, minlength=n_groups)
        # each group's rows and logit sets in ascending order, from one stable sort of each
        rec_in = np.split(np.argsort(group, kind="stable"), np.cumsum(rows_per_group)[:-1])
        key_in = np.split(np.argsort(key_group, kind="stable"), np.cumsum(keys_per_group)[:-1])
        # box gradients carry the per-(scene, scale) mean reduction
        row_count = rows_per_group[group, None]
        key_count = keys_per_group.astype(float)[key_group]
        # objectness and class logits do not depend on the kind; class logits
        # are padded to the widest scene's class count, and nothing reads the pad
        n_classes = [int(rec.class_id[a:b].max()) + 1 if b > a else 1
                     for a, b in zip(rec_off, rec_off[1:])]
        key_classes = np.array(n_classes)[scene_of[first_sorted]]
        obj_logits = np.zeros(n_keys)
        cls_logits = np.zeros((n_keys, max(n_classes)))
        cls_labels = np.zeros_like(cls_logits)
        cls_labels[np.arange(n_keys), rec.class_id[first_sorted]] = 1.0
        cls_div = (key_count * key_classes)[:, None]

    def objectives(loss: np.ndarray) -> list:
        """Each scene's multitask objective per kind, from one step's (kinds, rows) losses."""
        obj, cls = _bce(obj_logits, 1.0), _bce(cls_logits, cls_labels)   # 0, 1 by construction
        # per (scene, scale), the mean objectness and class cross entropy; the
        # kinds share them, and an empty group adds 0
        heads = [(float(np.mean(obj[k])), float(np.mean(cls[k, :n_classes[g // n_scales]])))
                 if k.size else (0.0, 0.0) for g, k in enumerate(key_in)]
        # per scale, mean box + objectness + class, summed over the scales in order
        return [[sum((float(np.mean(k_loss[rec_in[g]])) if rec_in[g].size else 0.0)
                     + heads[g][0] + heads[g][1] for g in range(i * n_scales, (i + 1) * n_scales))
                 for k_loss in loss] for i in range(len(scenes))]

    logits = np.zeros((n_kinds * n_keys, 4))
    loss_trace = np.empty((cfg.steps + 1, len(scenes), n_kinds))
    iou_trace = np.full((cfg.steps + 1, n_kinds, n_objects), np.nan)   # NaN: no records
    # the shapes and truth-only loss terms are settled once per fit, in one plan per kind
    plans = [plan_loss_grad(rec.target, kind, (len(rec.target), 4), cfg.rho) for kind in kinds]
    # a block of steps' distances and losses, traced together once the block is full
    block = int(np.clip(BLOCK_VALUES // max(1, row_key.size * 4), 1, cfg.steps + 1))
    d_block, loss_block = np.empty((block, *row_key.shape, 4)), np.empty((block, *row_key.shape))
    grad_d = np.empty((*row_key.shape, 4))
    # the last pass only scores the final logits
    for step in range(cfg.steps + 1):
        j = step % block
        d, jacobian = decode_with_jacobian(logits.take(row_key, axis=0), gain)
        d_block[j] = d
        for k, plan in enumerate(plans):
            loss_block[j, k], grad_d[k] = plan(d[k])
        if cfg.multitask:   # the head logits move every step
            loss_trace[step] = objectives(loss_block[j])
        if j == block - 1 or step == cfg.steps:   # each object's best IoU, each plain objective
            at, n = slice(step - j, step + 1), j + 1
            box = [stride * (corner[:, k] + d_block[:n, ..., k] * side[k]) for k in range(4)]
            iou = iou_columns(box, truth, xyxy_area(box), truth_area).reshape(n, -1)
            iou_trace.reshape(cfg.steps + 1, -1)[at, owners] = np.maximum.reduceat(iou, starts, 1)
            if not cfg.multitask:
                for i in range(len(scenes)):
                    loss_trace[at, i] = loss_block[:n, :, rec_off[i]:rec_off[i + 1]].sum(axis=-1)
        if step == cfg.steps:
            break

        grad = grad_d / row_count if cfg.multitask else grad_d
        g = np.bincount(bins, (grad * jacobian).ravel(), logits.size)
        logits -= cfg.learning_rate * g.reshape(logits.shape)
        if cfg.multitask:
            obj_logits -= cfg.learning_rate * ((scipy.special.expit(obj_logits) - 1.0) / key_count)
            cls_logits -= cfg.learning_rate * (
                (scipy.special.expit(cls_logits) - cls_labels) / cls_div)

    has_records = np.zeros(n_objects, dtype=bool)
    has_records[obj] = True
    reports = [[] for _ in kinds]
    for k, kind in enumerate(kinds):
        for i in range(len(scenes)):
            trace = iou_trace[:, k, obj_off[i]:obj_off[i + 1]].copy()
            final = trace[-1].copy()
            included = final[~np.isnan(final)]
            excluded = np.flatnonzero(~has_records[obj_off[i]:obj_off[i + 1]])
            reports[k].append(FitReport(
                loss_kind=kind, steps=cfg.steps, learning_rate=cfg.learning_rate,
                loss_trace=loss_trace[:, i, k].copy(), iou_trace=trace, final_iou=final,
                steps_to_iou90=_steps_to(trace, 0.90), steps_to_iou99=_steps_to(trace, 0.99),
                success_rate=float(np.mean(included > 0.99)) if included.size else 0.0,
                excluded_objects=tuple(excluded.tolist()), n_records=rec_off[i + 1] - rec_off[i],
                n_records_excluded=int(n_excluded[i]),
            ))
    return reports


def fit_scene(scene: Scene, cfg: FitConfig = FitConfig()) -> FitReport:
    """One scene under ``cfg.loss``: ``fit_scenes([scene], cfg)``'s one report."""
    return fit_scenes([scene], cfg, (cfg.loss,))[0][0]


def _median_steps(values: list) -> float:
    """Median where never-converged counts as infinity."""
    vals = [math.inf if v is None else float(v) for v in values]
    return statistics.median(vals) if vals else math.inf


def compare_losses(
    scenes,
    cfg: FitConfig = FitConfig(),
    kinds=("sdiou", "mse", "giou", "ciou"),
) -> list[dict]:
    """Fit a sequence of scenes once per loss kind from identical initialization.

    Returns one row per kind with convergence counts and the median number
    of update steps to reach IoU 0.9 and 0.99 across all objects of all
    scenes (never-converged objects count as infinite).
    """
    rows = []
    for kind, reports in zip(kinds, fit_scenes(scenes, cfg, kinds)):
        steps90 = [v for report in reports for v in report.steps_to_iou90]
        steps99 = [v for report in reports for v in report.steps_to_iou99]
        finals = [v for report in reports for v in report.final_iou if not math.isnan(v)]
        rows.append({
            "loss": kind,
            "n_objects": len(steps90),
            "reached_iou90": sum(1 for v in steps90 if v is not None),
            "reached_iou99": sum(1 for v in steps99 if v is not None),
            "median_steps_to_iou90": _median_steps(steps90),
            "median_steps_to_iou99": _median_steps(steps99),
            "mean_final_iou": float(np.mean(finals)) if finals else float("nan"),
        })
    return rows
