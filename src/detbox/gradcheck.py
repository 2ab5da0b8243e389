"""Finite-difference verification of the analytic loss gradients.

Draws random encoded ground truths (real boxes, real cells, every scale)
against random in-range predictions, then compares the analytic gradient
with central differences on the loss value, both in distance space and
chained through the logit decode. Samples landing within an exclusion
margin of a min/max/clamp switching point are redrawn: the gradient is
only defined piecewise there.

Sampling stays sequential, so a seed always draws the same pairs. A pair
is drawn, encoded and accepted on Python floats with the formulas of
:func:`~detbox.codec.encode_distances` in its order, for the codec's bits
(the sampler referee test pins them). The checks then run batched,
:data:`CHUNK_SAMPLES` at a time so memory stays flat, and a chunk is one
loss call on ``(n, 18, 4)`` rows. The first nine are distance rows: the
point, then the four rows of each side of the central difference, each
moving one component. The last nine are the same rows in logit space,
decoded to distances, so the chain rule is the distance gradient at the
logit point times the decode's Jacobian there. The point's gradient is
the analytic one. A NaN error counts as infinite and fails the check.

The difference of an O(1) loss carries round-off of about 1e-16 / h, so
the step is set per kind: iou and giou gradients get as small as ~1e-6,
where a 1e-6 step leaves that round-off above the 1e-5 tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import (
    ScaleConfig, decode_distances, decode_with_jacobian, encode_logit_array,
)
from .losses import regression_loss_grad

FD_STEPS = {"sdiou": 1e-6, "mse": 1e-6, "iou": 1e-4, "giou": 1e-4, "diou": 1e-6, "ciou": 1e-6}
CHUNK_SAMPLES = 4096 // 18   # 18 rows a sample: about 3 MB of rows per chunk
SWITCH_MARGIN, MAX_TRIES = 1e-3, 1000   # sample_pair's exclusion margin and draws per pair


@dataclass(frozen=True)
class GradcheckResult:
    kind: str
    n_samples: int
    worst_rel_err_distance: float
    worst_rel_err_logit: float
    tolerance: float
    fd_step: float
    samples_per_scale: tuple[int, ...]   # drawn at each scale index; a 0 is a scale unchecked

    @property
    def worst_rel_err(self) -> float:
        return max(self.worst_rel_err_distance, self.worst_rel_err_logit)

    @property
    def passed(self) -> bool:
        return self.worst_rel_err < self.tolerance


def _worst_rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest relative error of ``(n, ..., 4)`` rows over the first axis; NaN counts as inf."""
    # a (1, 4) @ (4, 1) product rounds each row as np.linalg.norm's dot
    # rounds one 4-vector; np.linalg.norm(axis=-1) sums in another order
    x = np.array([a, b, a - b])
    na, nb, nd = np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])
    err = nd / np.maximum(np.maximum(na, nb), 1e-8)
    return np.max(np.where(np.isnan(err), np.inf, err), axis=0)


def _near_switch(pred: list, truth: list) -> bool:
    if any(abs(p - t) < SWITCH_MARGIN for p, t in zip(pred, truth)):
        return True
    wi = min(truth[0], pred[0]) + min(truth[2], pred[2]) - 1.0
    hi = min(truth[1], pred[1]) + min(truth[3], pred[3]) - 1.0
    return abs(wi) < SWITCH_MARGIN or abs(hi) < SWITCH_MARGIN


def sample_pair(rng: np.random.Generator, scale: ScaleConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """One (pred, truth, scale_index) triple away from gradient switches.

    Gains too small to encode the boxes drawn, or an image side of less
    than 2 px more than the narrowest box, raise :class:`ValueError`.
    """
    if min(scale.image_w, scale.image_h) - 2 < 0.2 * scale.strides[-1]:
        raise ValueError(
            f"image size {scale.image_w}x{scale.image_h} is too small to draw a box at stride "
            f"{scale.strides[-1]}: each side needs at least {0.2 * scale.strides[-1] + 2:g} px")
    for _ in range(MAX_TRIES):
        scale_index = int(rng.integers(scale.num_scales))
        stride = scale.strides[scale_index]
        gain = scale.gains[scale_index]
        low = 0.2 * stride
        top = min(6.0 * stride, 3.0 * gain * stride)   # capped to fit the image below
        if top < low:   # no width to draw from
            break
        w = rng.uniform(low, min(top, scale.image_w - 2))
        h = rng.uniform(low, min(top, scale.image_h - 2))
        cx = rng.uniform(w / 2 + 1, scale.image_w - w / 2 - 1)
        cy = rng.uniform(h / 2 + 1, scale.image_h - h / 2 - 1)
        x, y = int(cx // stride), int(cy // stride)
        # encode_distances' formula in its order: numpy calls on 4-vectors cost more
        t = [(x + 1) - (cx - w / 2) / stride, (y + 1) - (cy - h / 2) / stride,
             (cx + w / 2) / stride - x, (cy + h / 2) / stride - y]
        if max(t) >= 4.0 * gain:
            continue
        pred = decode_distances(rng.uniform(-2.5, 2.5, size=4), gain)
        if _near_switch(pred.tolist(), t):
            continue
        return pred, np.array(t), scale_index
    raise ValueError(
        f"could not draw a pair away from gradient switch points at gains {scale.gains}; "
        "a gain of 0.15 or less cannot encode the boxes drawn, at least 0.2 strides wide"
    )


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
    non-finite step, or a tolerance that is not finite and positive,
    raises :class:`ValueError`. A scale whose gain is too small to draw
    from is skipped while another can be drawn: ``samples_per_scale`` shows it.
    """
    if samples <= 0:
        raise ValueError(f"samples must be > 0, got {samples}")
    h = FD_STEPS.get(kind, 1e-6) if h is None else h
    if h == 0 or not math.isfinite(h):
        raise ValueError(f"fd step must be finite and nonzero, got {h}")
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    rng = np.random.default_rng(seed)
    worst = np.zeros(2)    # distances, logits
    per_scale = [0] * scale.num_scales
    step = h * np.eye(4)
    for start in range(0, samples, CHUNK_SAMPLES):
        n = min(CHUNK_SAMPLES, samples - start)
        preds, truths, scale_index = zip(*(sample_pair(rng, scale) for _ in range(n)))
        pred, truth = np.array(preds)[:, None], np.array(truths)[:, None]   # (n, 1, 4)
        per_scale = [count + scale_index.count(k) for k, count in enumerate(per_scale)]
        gain = np.array([scale.gains[k] for k in scale_index])[:, None, None]
        logits = encode_logit_array(pred, gain)
        # each space's point and the rows of both sides, as central_diff builds them
        decoded, jac = decode_with_jacobian(
            np.concatenate([logits, logits + step, logits - step], axis=1), gain)
        loss, grad = regression_loss_grad(
            np.concatenate([pred, pred + step, pred - step, decoded], axis=1), truth, kind, rho)
        loss = loss.reshape(n, 2, 9)
        fd = (loss[..., 1:5] - loss[..., 5:]) / (2.0 * h)
        analytic = grad[:, [0, 9]]   # (n, 2, 4): each space's point
        analytic[:, 1] *= jac[:, 0]   # the chain rule through the decode
        worst = np.maximum(worst, _worst_rel_err(analytic, fd))
    return GradcheckResult(
        kind=kind,
        n_samples=samples,
        worst_rel_err_distance=float(worst[0]),
        worst_rel_err_logit=float(worst[1]),
        tolerance=tolerance,
        fd_step=h,
        samples_per_scale=tuple(per_scale),
    )
