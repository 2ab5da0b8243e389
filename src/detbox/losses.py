"""Distance-space box regression losses with analytic gradients.

The primary loss scores a predicted distance quadruple (l, t, r, b) against
the ground truth through three squared lengths:

* ``S`` — the summed squared mismatch of the four distances,
* ``I`` — the squared diagonal of the overlap region, whose extents are
  ``min(l*, l) + min(r*, r) - 1`` and ``min(t*, t) + min(b*, b) - 1``,
  clamped at zero so near-empty predictions cannot produce a negative
  overlap,
* ``C`` — the squared diagonal of the smallest region covering both boxes,
  with extents built from the componentwise maxima.

The score is ``(I - rho * S) / C`` and the loss ``1 - score``. It reaches 0
exactly when the prediction equals the truth (for rho > 0) and needs no
box reconstruction: the comparison happens directly on the regression
outputs.

Baselines for comparison studies: per-component mean squared error, and the
IoU family (plain, generalized, distance, complete) applied to boxes
reconstructed in a shared cell frame with the cell's top-left corner at the
origin. All losses come with exact gradients in the four distances and,
chained through the logit decode, in the four raw outputs; every gradient
path is verified against central finite differences in the test suite.

Every loss broadcasts ``(..., 4)`` prediction rows against truth rows, and
its gradient has the broadcast shape. The IoU family works on reaches, how
far each side of a box lies outward from the cell's top-left corner:
``(l - 1, t - 1)`` back and ``(r, b)`` forward. Held as ``(side, axis,
rows)`` arrays, both sides share one formula (an extent is the sum of its
two reaches, the overlap takes the shorter reach, the hull the longer),
and a gradient in reaches is the gradient in the distances.

Gradient conventions at non-smooth points: min/max ties follow the
ground-truth argument (zero prediction gradient), and a clamped overlap
extent contributes nothing. Ties sit on measure-zero sets; the checks
exclude their neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import RegressionTarget, decode_distances, decode_jacobian

LOSS_KINDS = ("sdiou", "mse", "iou", "giou", "diou", "ciou")

_COVER_EPS = 1e-12     # degenerate-geometry guard on the covering diagonal
_ASPECT_EPS = 1e-9     # width/height floor inside the ciou aspect term


class DegenerateGeometryError(ValueError):
    """Both boxes have collapsed to (near) points; the score is undefined."""


@dataclass(frozen=True)
class SdiouParts:
    """All intermediate quantities of the distance-space score."""

    penalty: float      # summed squared distance mismatch
    inter_w: float      # overlap width, clamped at 0
    inter_h: float      # overlap height, clamped at 0
    cover_w: float      # covering-region width
    cover_h: float      # covering-region height
    inter_diag2: float  # squared overlap diagonal
    cover_diag2: float  # squared covering diagonal
    score: float
    loss: float


def _dist_array(x) -> np.ndarray:
    if isinstance(x, RegressionTarget):
        return x.as_array()
    return np.asarray(x, dtype=float)


def _sdiou_core(pred: np.ndarray, truth: np.ndarray, rho: float):
    if not 0 <= rho < np.inf:
        raise ValueError(f"rho must be >= 0, got {rho}")
    diff = truth - pred
    s = np.sum(diff * diff, axis=-1)
    mn = np.minimum(truth, pred)
    mx = np.maximum(truth, pred)
    # (width, height) pairs of the overlap, before and after its clamp, and the cover
    inner_raw = mn[..., :2] + mn[..., 2:] - 1.0
    inner = np.maximum(inner_raw, 0.0)
    cover = mx[..., :2] + mx[..., 2:] - 1.0
    i, c = (sq[..., 0] + sq[..., 1] for sq in (inner * inner, cover * cover))
    if np.any(c <= _COVER_EPS):
        raise DegenerateGeometryError(
            "covering diagonal is zero: both boxes have collapsed to points"
        )
    score = (i - rho * s) / c
    return s, inner_raw, inner, cover, i, c, score


def sdiou_loss(pred, truth, rho: float = 1.0) -> np.ndarray:
    """Vectorized loss over (..., 4) distance arrays."""
    *_, score = _sdiou_core(_dist_array(pred), _dist_array(truth), rho)
    return 1.0 - score


def sdiou(pred, truth, rho: float = 1.0) -> SdiouParts:
    """Score one prediction against one truth, exposing every term."""
    p = _dist_array(pred).reshape(4)
    t = _dist_array(truth).reshape(4)
    s, _, (wi, hi), (wc, hc), i, c, score = _sdiou_core(p, t, rho)
    return SdiouParts(
        penalty=float(s),
        inter_w=float(wi),
        inter_h=float(hi),
        cover_w=float(wc),
        cover_h=float(hc),
        inter_diag2=float(i),
        cover_diag2=float(c),
        score=float(score),
        loss=float(1.0 - score),
    )


def sdiou_loss_grad(pred, truth, rho: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Loss and its gradient in the predicted distances, vectorized.

    Returns ``(loss, grad)`` with shapes ``(...,)`` and ``(..., 4)``.
    """
    p = _dist_array(pred)
    t = _dist_array(truth)
    s, inner_raw, inner, cover, i, c, score = _sdiou_core(p, t, rho)

    # the prediction moves an extent only through the components where it
    # drives the min (overlap) or the max (cover)
    live = inner * (inner_raw > 0.0)
    di = 2.0 * np.concatenate([live, live], axis=-1) * (p < t)
    dc = 2.0 * np.concatenate([cover, cover], axis=-1) * (p > t)

    ds = 2.0 * (p - t)
    numer = i - rho * s
    dscore = ((di - rho * ds) * c[..., None] - numer[..., None] * dc) / (c * c)[..., None]
    return 1.0 - score, -dscore


# --- baselines on boxes reconstructed in a shared cell frame ---------------

_ORIGIN = np.array([1.0, 1.0, 0.0, 0.0])    # reach = distance - origin


def _iou_family_loss_grad(p: np.ndarray, t: np.ndarray, kind):
    """IoU-family losses and gradients; a non-positive predicted extent clamps to 0.

    ``kind`` is one kind, or a tuple that names ``p``'s leading axis. Each
    term is computed once over all rows, and each kind reads its own slices.
    """
    kinds = {kind} if isinstance(kind, str) else set(kind)
    # C-ordered (side, axis, rows) reaches; .T reverses both row axes alike
    # once their ranks match, so ufuncs broadcast them, and .T restores them
    ndim = max(p.ndim, t.ndim)
    origin = _ORIGIN.reshape(4, *(1,) * (ndim - 1))
    rows = (x.reshape((1,) * (ndim - x.ndim) + x.shape).T for x in (p, t))
    rp, rt = (np.subtract(x, origin, order="C").reshape(2, 2, *x.shape[1:]) for x in rows)

    inner = np.minimum(rp, rt)
    ext_i = inner[0] + inner[1]
    inner_p = np.maximum(ext_i, 0.0)
    inter = inner_p[0] * inner_p[1]
    ext_p = rp[0] + rp[1]
    ext_pp = np.maximum(ext_p, 0.0)
    ext_t = rt[0] + rt[1]
    union = ext_pp[0] * ext_pp[1] + ext_t[0] * ext_t[1] - inter
    iou = inter / union

    # A reach drives the overlap while it falls short of the truth's; the
    # [::-1] views give each axis the other axis's extent.
    d_inter = (ext_i > 0.0) * (rp < rt) * inner_p[::-1]
    d_union = (ext_p > 0.0) * ext_pp[::-1] - d_inter
    d_iou = (d_inter * union - inter * d_union) / (union * union)
    terms = {"iou": (iou, d_iou)}   # (score, gradient) per kind

    if kinds - {"iou"}:
        # the hull grows with a reach beyond the truth's
        hull = np.maximum(rp, rt)
        ext_h = hull[0] + hull[1]
        d_hull = rp > rt

    if "giou" in kinds:
        # iou - (hull - union)/hull == iou - 1 + union/hull
        area = ext_h[0] * ext_h[1]
        d_area = d_hull * ext_h[::-1]
        terms["giou"] = (iou - 1.0 + union / area,
                         d_iou + (d_union * area - union * d_area) / (area * area))

    if kinds & {"diou", "ciou"}:
        gap = (rp[1] - rp[0]) / 2 - (rt[1] - rt[0]) / 2   # a back reach pulls it back
        dist2 = gap[0] * gap[0] + gap[1] * gap[1]
        diag2 = ext_h[0] * ext_h[0] + ext_h[1] * ext_h[1]
        d_diag2 = 2.0 * ext_h * d_hull
        terms["diou"] = (iou - dist2 / diag2, d_iou - (
            np.multiply.outer([-1.0, 1.0], gap) * diag2 - dist2 * d_diag2) / (diag2 * diag2))

    if "ciou" in kinds:
        # Aspect-ratio consistency term, differentiated exactly, including
        # through its adaptive weight.
        ext_c = np.maximum(ext_p, _ASPECT_EPS)
        q = np.arctan(ext_t[0] / ext_t[1]) - np.arctan(ext_c[0] / ext_c[1])
        v = (4.0 / np.pi**2) * q * q
        # dq/d(reach) = -(dw*h - w*dh) / (w^2 + h^2), alike on both sides
        grows = (ext_p > _ASPECT_EPS) * ext_c[::-1]
        grows[1] *= -1.0
        dq = -grows / (ext_c[0] * ext_c[0] + ext_c[1] * ext_c[1])
        dv = (8.0 / np.pi**2) * q * dq

        big = (1.0 - iou) + v + _COVER_EPS
        alpha = v / big
        d_alpha = (dv * big - v * (dv - d_iou)) / (big * big)
        score, g = terms["diou"]
        terms["ciou"] = (score - alpha * v, g - (d_alpha * v + alpha * dv))

    if isinstance(kind, str):
        score, g = terms[kind]
    else:   # the kind axis is last in this layout
        score, g = np.empty_like(iou), np.empty_like(d_iou)
        for k, name in enumerate(kind):
            score[..., k], g[..., k] = terms[name][0][..., k], terms[name][1][..., k]
    loss = np.subtract(1.0, score.T, order="C")
    return loss, np.negative(g.reshape(4, *g.shape[2:]).T, order="C")


def _mse_loss_grad(p: np.ndarray, t: np.ndarray):
    diff = p - t
    return np.mean(diff * diff, axis=-1), diff / 2.0


def _positions(kinds: tuple, names: tuple) -> int | slice | list | None:
    """Where ``names`` sit in ``kinds``: one index, a slice over one run, or a list."""
    idx = [i for i, k in enumerate(kinds) if k in names]
    if len(idx) < 2:
        return idx[0] if idx else None
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx


_KERNELS = {   # kinds -> kernel; only the IoU family's kernel reads its kinds
    ("sdiou",): lambda p, t, kinds, rho: sdiou_loss_grad(p, t, rho),
    ("mse",): lambda p, t, kinds, rho: _mse_loss_grad(p, t),
    LOSS_KINDS[2:]: lambda p, t, kinds, rho: _iou_family_loss_grad(p, t, kinds),
}


def regression_loss_grad(
    pred, truth, kind="sdiou", rho: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Unified (loss, gradient) dispatch over (..., 4) distance arrays.

    ``kind`` is one loss kind, or a tuple of kinds (any order, repeats
    allowed) that names ``pred``'s leading axis, which ``truth`` has too or
    broadcasts over. A tuple makes one call per kernel: sdiou, mse and the
    IoU family. Each kind's slices get the bits of a call with it alone.
    """
    p = _dist_array(pred)
    t = _dist_array(truth)
    if bad := [k for k in ([kind] if isinstance(kind, str) else kind) if k not in LOSS_KINDS]:
        raise ValueError(f"unknown loss kind {bad[0]!r}; valid: {', '.join(LOSS_KINDS)}")
    if isinstance(kind, str):
        return next(run for names, run in _KERNELS.items() if kind in names)(p, t, kind, rho)
    kinds = tuple(kind)
    if p.ndim < 2 or len(p) != len(kinds):
        raise ValueError(f"{len(kinds)} kinds for prediction rows of shape {p.shape}")
    shape = np.broadcast_shapes(p.shape, t.shape)
    loss, grad = np.empty(shape[:-1]), np.empty(shape)
    for names, run in _KERNELS.items():
        if (at := _positions(kinds, names)) is not None:
            own = tuple(kinds[i] for i in at) if isinstance(at, list) else kinds[at]
            t_at = t[at] if t.ndim == p.ndim and len(t) > 1 else t
            loss[at], grad[at] = run(p[at], t_at, own, rho)
    return loss, grad


def logit_loss_grad(
    logits: np.ndarray,
    truth: np.ndarray,
    gain,
    kind: str = "sdiou",
    rho: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Loss and gradient in the raw logits, for any loss kind.

    ``gain`` broadcasts against ``logits``; pass per-row gains for a batch
    that mixes scales.
    """
    p = np.asarray(logits, dtype=float)
    d = decode_distances(p, gain)
    loss, grad_d = regression_loss_grad(d, truth, kind, rho)
    return loss, grad_d * decode_jacobian(p, gain)


# --- composite objective ----------------------------------------------------


def bce_with_logits(logits, labels) -> np.ndarray:
    """Elementwise binary cross entropy from logits, numerically stable.

    Labels must be exactly 0 or 1.
    """
    z = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=float)
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("labels must be 0 or 1")
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


@dataclass(frozen=True)
class MultitaskLoss:
    per_scale: tuple[float, ...]
    total: float

    @classmethod
    def combine(cls, box_losses: Sequence[float],
                heads: Sequence[tuple[float, float]]) -> MultitaskLoss:
        """Per scale box + objectness + class from :func:`head_losses`, in order."""
        per_scale = tuple(float(box) + obj + cls_ for box, (obj, cls_) in zip(box_losses, heads))
        return cls(per_scale=per_scale, total=float(sum(per_scale)))


def head_losses(obj_logits: Sequence[np.ndarray], obj_labels: Sequence[np.ndarray],
                cls_logits: Sequence[np.ndarray],
                cls_labels: Sequence[np.ndarray]) -> list[tuple[float, float]]:
    """Per scale, the mean objectness and mean class binary cross entropy from
    logits (an empty array contributes 0). They do not depend on the box
    loss, so box losses of several kinds can share them."""
    means = [[float(np.mean(b)) if b.size else 0.0 for b in map(bce_with_logits, z, y)]
             for z, y in ((obj_logits, obj_labels), (cls_logits, cls_labels))]
    return list(zip(*means))


def multitask_loss(box_losses: Sequence[float], obj_logits: Sequence[np.ndarray],
                   obj_labels: Sequence[np.ndarray], cls_logits: Sequence[np.ndarray],
                   cls_labels: Sequence[np.ndarray]) -> MultitaskLoss:
    """Per-scale sum of box, objectness, and classification terms.

    Classification and objectness use mean binary cross entropy from logits
    (empty arrays contribute 0); the box term arrives pre-reduced per scale.
    The total is the plain sum over scales.
    """
    n = len(box_losses)
    if not (len(obj_logits) == len(obj_labels) == len(cls_logits) == len(cls_labels) == n):
        raise ValueError("all per-scale sequences must have equal length")
    return MultitaskLoss.combine(
        box_losses, head_losses(obj_logits, obj_labels, cls_logits, cls_labels))
