"""Finite-difference verification of the analytic loss gradients.

Draws random encoded ground truths (real boxes, real cells, every scale)
against random in-range predictions, then compares the analytic gradient
with central differences on the loss value, both in distance space and
chained through the logit decode. Samples landing within an exclusion
margin of a min/max/clamp switching point are redrawn: the gradient is
only defined piecewise there.

Sampling stays sequential, so a seed always draws the same pairs. The
checks then run batched, :data:`CHUNK_SAMPLES` at a time so memory stays
flat: a chunk stacks as ``(n, 1, 4)`` points, and each space (distances,
then logits) is one loss call on ``(n, 9, 4)`` rows: the point, then the
four rows of each side of the central difference, each moving one
component. The point's gradient is the analytic one. A NaN error counts as
infinite and fails the check.

The difference of an O(1) loss carries round-off of about 1e-16 / h, so
the step is set per kind: iou and giou gradients get as small as ~1e-6,
where a 1e-6 step leaves that round-off above the 1e-5 tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import ScaleConfig, decode_distances, encode_distances, encode_logit_array
from .losses import logit_loss_grad, regression_loss_grad

FD_STEPS = {"sdiou": 1e-6, "mse": 1e-6, "iou": 1e-4, "giou": 1e-4, "diou": 1e-6, "ciou": 1e-6}
CHUNK_SAMPLES = 4096 // 9    # 9 rows a sample: about 3 MB of rows per chunk


@dataclass(frozen=True)
class GradcheckResult:
    kind: str
    n_samples: int
    worst_rel_err_distance: float
    worst_rel_err_logit: float
    tolerance: float
    fd_step: float

    @property
    def worst_rel_err(self) -> float:
        return max(self.worst_rel_err_distance, self.worst_rel_err_logit)

    @property
    def passed(self) -> bool:
        return self.worst_rel_err < self.tolerance


def _worst_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Largest relative error over ``(n, 4)`` rows; a NaN error is infinite."""
    # a (1, 4) @ (4, 1) product rounds each row as np.linalg.norm's dot
    # rounds one 4-vector; np.linalg.norm(axis=-1) sums in another order
    na, nb, nd = (np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]) for x in (a, b, a - b))
    err = nd / np.maximum(np.maximum(na, nb), 1e-8)
    return float(np.max(np.where(np.isnan(err), np.inf, err)))


def _near_switch(pred: np.ndarray, truth: np.ndarray, margin: float) -> bool:
    if np.any(np.abs(pred - truth) < margin):
        return True
    wi = min(truth[0], pred[0]) + min(truth[2], pred[2]) - 1.0
    hi = min(truth[1], pred[1]) + min(truth[3], pred[3]) - 1.0
    return abs(wi) < margin or abs(hi) < margin


def sample_pair(
    rng: np.random.Generator,
    scale: ScaleConfig,
    margin: float = 1e-3,
    max_tries: int = 1000,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One (pred, truth, scale_index) triple away from gradient switches."""
    for _ in range(max_tries):
        scale_index = int(rng.integers(scale.num_scales))
        stride = scale.strides[scale_index]
        gain = scale.gains[scale_index]
        top = min(6.0 * stride, 3.0 * gain * stride)   # capped to fit the image below
        w = rng.uniform(0.2 * stride, min(top, scale.image_w - 2))
        h = rng.uniform(0.2 * stride, min(top, scale.image_h - 2))
        cx = rng.uniform(w / 2 + 1, scale.image_w - w / 2 - 1)
        cy = rng.uniform(h / 2 + 1, scale.image_h - h / 2 - 1)
        corners = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        truth = encode_distances(corners, (int(cx // stride), int(cy // stride)), stride)
        if np.any(truth >= 4.0 * gain):
            continue
        pred = decode_distances(rng.uniform(-2.5, 2.5, size=4), gain)
        if _near_switch(pred, truth, margin):
            continue
        return pred, truth, scale_index
    raise RuntimeError("could not sample a pair away from gradient switch points")


def central_diff(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a loss over ``(..., 4)`` rows.

    ``fn`` maps ``(..., 4)`` rows to their losses. Each side is one call on
    ``x -+ h * eye(4)``, whose row ``k`` moves component ``k``: a ``(4,)``
    point gives a ``(4,)`` gradient and an ``(n, 1, 4)`` batch ``(n, 4)``.
    """
    step = h * np.eye(4)
    return (fn(x + step) - fn(x - step)) / (2.0 * h)


def run_gradcheck(
    kind: str = "sdiou",
    samples: int = 1000,
    seed: int = 0,
    scale: ScaleConfig = ScaleConfig(),
    rho: float = 1.0,
    tolerance: float = 1e-5,
    h: float | None = None,
) -> GradcheckResult:
    """Compare analytic and finite-difference gradients over random pairs.

    ``h`` defaults to the kind's step in :data:`FD_STEPS`; a zero or
    non-finite step raises :class:`ValueError`.
    """
    if samples <= 0:
        raise ValueError(f"samples must be > 0, got {samples}")
    h = FD_STEPS.get(kind, 1e-6) if h is None else h
    if h == 0 or not math.isfinite(h):
        raise ValueError(f"fd step must be finite and nonzero, got {h}")
    rng = np.random.default_rng(seed)
    worst = [0.0, 0.0]    # distances, logits
    step = h * np.eye(4)
    for start in range(0, samples, CHUNK_SAMPLES):
        n = min(CHUNK_SAMPLES, samples - start)
        preds, truths, scale_index = zip(*(sample_pair(rng, scale) for _ in range(n)))
        pred, truth = np.stack(preds)[:, None], np.stack(truths)[:, None]   # (n, 1, 4)
        gain = np.asarray(scale.gains)[list(scale_index)][:, None, None]
        logits = encode_logit_array(pred, gain)
        spaces = ((lambda d: regression_loss_grad(d, truth, kind, rho), pred),
                  (lambda p: logit_loss_grad(p, truth, gain, kind, rho), logits))
        for i, (fn, x) in enumerate(spaces):
            # one call on each point and the rows of both sides, as central_diff builds them
            loss, grad = fn(np.concatenate([x, x + step, x - step], axis=1))
            fd = (loss[:, 1:5] - loss[:, 5:]) / (2.0 * h)
            worst[i] = max(worst[i], _worst_rel_err(grad[:, 0], fd))
    return GradcheckResult(
        kind=kind,
        n_samples=samples,
        worst_rel_err_distance=worst[0],
        worst_rel_err_logit=worst[1],
        tolerance=tolerance,
        fd_step=h,
    )
