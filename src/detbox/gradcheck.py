"""Finite-difference verification of the analytic loss gradients.

Draws random encoded ground truths (real boxes, real cells, every scale)
against random in-range predictions, then compares the analytic gradient
with central differences on the loss value, both in distance space and
chained through the logit decode. Samples landing within an exclusion
margin of a min/max/clamp switching point are redrawn: the gradient is
only defined piecewise there.

The difference of an O(1) loss carries round-off of about 1e-16 / h, so
the step is set per kind: iou and giou gradients get as small as ~1e-6,
where a 1e-6 step leaves that round-off above the 1e-5 tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import ScaleConfig, decode_distances, encode_distances, encode_logit_array
from .losses import logit_loss_grad, regression_loss_grad

FD_STEPS = {"sdiou": 1e-6, "mse": 1e-6, "iou": 1e-4, "giou": 1e-4, "diou": 1e-6, "ciou": 1e-6}


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


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-8)
    return float(np.linalg.norm(a - b)) / scale


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
        w = rng.uniform(0.2 * stride, min(6.0 * stride, 3.0 * gain * stride))
        h = rng.uniform(0.2 * stride, min(6.0 * stride, 3.0 * gain * stride))
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
    """Central finite differences of a scalar function, one axis at a time."""
    g = np.zeros_like(x)
    for k in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[k] += h
        lo[k] -= h
        g[k] = (fn(hi) - fn(lo)) / (2.0 * h)
    return g


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

    ``h`` defaults to the kind's step in :data:`FD_STEPS`.
    """
    if samples <= 0:
        raise ValueError(f"samples must be > 0, got {samples}")
    h = FD_STEPS.get(kind, 1e-6) if h is None else h
    rng = np.random.default_rng(seed)
    worst_d = 0.0
    worst_p = 0.0
    for _ in range(samples):
        pred, truth, scale_index = sample_pair(rng, scale)
        gain = scale.gains[scale_index]

        _, grad = regression_loss_grad(pred, truth, kind, rho)
        fd = central_diff(
            lambda d: float(regression_loss_grad(d, truth, kind, rho)[0]), pred, h
        )
        worst_d = max(worst_d, _rel_err(grad, fd))

        logits = encode_logit_array(pred, gain)
        _, grad_p = logit_loss_grad(logits, truth, gain, kind, rho)
        fd_p = central_diff(
            lambda p: float(logit_loss_grad(p, truth, gain, kind, rho)[0]), logits, h
        )
        worst_p = max(worst_p, _rel_err(grad_p, fd_p))
    return GradcheckResult(
        kind=kind,
        n_samples=samples,
        worst_rel_err_distance=worst_d,
        worst_rel_err_logit=worst_p,
        tolerance=tolerance,
        fd_step=h,
    )
