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

import numpy as np

from .codec import decode_with_jacobian

LOSS_KINDS = ("sdiou", "mse", "iou", "giou", "diou", "ciou")

_COVER_EPS = 1e-12     # degenerate-geometry guard on the covering diagonal
_TWICE = np.array([0, 1, 0, 1])   # (w, h) -> (w, h, w, h)
_ASPECT_EPS = 1e-9     # width/height floor inside the ciou aspect term


class DegenerateGeometryError(ValueError):
    """Both boxes have collapsed to (near) points; the score is undefined."""


def sdiou_loss(pred, truth, rho: float = 1.0) -> np.ndarray:
    """Vectorized loss over (..., 4) distance arrays: the loss that
    ``regression_loss_grad(pred, truth, "sdiou", rho)`` returns."""
    return regression_loss_grad(pred, truth, "sdiou", rho)[0]


def _plan_sdiou(t: np.ndarray, kind, rho: float, ndim: int):
    def step(p: np.ndarray):
        diff = t - p
        s = np.add.reduce(diff * diff, axis=-1)
        mn = np.minimum(t, p)
        mx = np.maximum(t, p)
        # (width, height) pairs of the overlap, clamped at 0, and of the cover
        inner = np.maximum(mn[..., :2] + mn[..., 2:] - 1.0, 0.0)
        cover = mx[..., :2] + mx[..., 2:] - 1.0
        i, c = (sq[..., 0] + sq[..., 1] for sq in (inner * inner, cover * cover))
        if (c <= _COVER_EPS).any():
            raise DegenerateGeometryError(
                "covering diagonal is zero: both boxes have collapsed to points"
            )
        numer = i - rho * s
        # the prediction moves an extent only through the components where it
        # drives the min (overlap) or the max (cover); (l, t, r, b) reads the
        # (width, height) pair twice. A clamped extent adds nothing, and needs
        # no mask: there ``inner`` is already +-0 (or NaN, which a mask keeps)
        di = 2.0 * inner.take(_TWICE, axis=-1) * (p < t)
        dc = 2.0 * cover.take(_TWICE, axis=-1) * (p > t)

        ds = 2.0 * (p - t)
        c4 = c[..., None]
        dscore = ((di - rho * ds) * c4 - numer[..., None] * dc) / (c4 * c4)
        return 1.0 - numer / c, -dscore

    return step


# --- baselines on boxes reconstructed in a shared cell frame ---------------

_ORIGIN = np.array([1.0, 1.0, 0.0, 0.0])    # reach = distance - origin
_SIGNS = np.array([-1.0, 1.0])              # d(gap)/d(reach): back, then forward


def _norm2(x: np.ndarray) -> np.ndarray:
    """``x[0]**2 + x[1]**2``, squared as ``x * x``."""
    sq = x * x
    return sq[0] + sq[1]


def _plan_iou_family(t: np.ndarray, kind: str, rho: float, ndim: int):
    """One IoU-family kind's loss and gradient; a non-positive predicted extent clamps to 0.

    ``ndim`` is the rank of the prediction and truth broadcast together. The
    truth terms that ``kind`` reads are computed here once. Each step scores
    iou, and then ``kind`` alone: giou adds the hull term, diou and ciou add
    the centre distance, and ciou adds the aspect term to diou's score.
    """
    # C-ordered (side, axis, rows) reaches; .T reverses both row axes alike
    # once their ranks match, so ufuncs broadcast them, and .T restores them
    origin = _ORIGIN.reshape(4, *(1,) * (ndim - 1))

    def reaches(x: np.ndarray) -> np.ndarray:
        x = x.reshape((1,) * (ndim - x.ndim) + x.shape).T
        return np.subtract(x, origin, order="C").reshape(2, 2, *x.shape[1:])

    rt = reaches(t)
    ext_t = rt[0] + rt[1]
    area_t = ext_t[0] * ext_t[1]
    if kind in ("diou", "ciou"):   # ciou extends diou
        half_t = (rt[1] - rt[0]) / 2
    if kind == "ciou":
        aspect_t = np.arctan(ext_t[0] / ext_t[1])
        turn = _SIGNS.reshape(2, *(1,) * (ndim - 1))    # (h, w) * turn == (-h, w)

    def step(p: np.ndarray):
        rp = reaches(p)
        inner = np.minimum(rp, rt)
        ext_i = inner[0] + inner[1]
        inner_p = np.maximum(ext_i, 0.0)
        inter = inner_p[0] * inner_p[1]
        ext_p = rp[0] + rp[1]
        ext_pp = np.maximum(ext_p, 0.0)
        union = ext_pp[0] * ext_pp[1] + area_t - inter
        iou = inter / union

        # A reach drives the overlap while it falls short of the truth's; the
        # [::-1] views give each axis the other axis's extent.
        d_inter = (ext_i > 0.0) * (rp < rt) * inner_p[::-1]
        d_union = (ext_p > 0.0) * ext_pp[::-1] - d_inter
        d_iou = (d_inter * union - inter * d_union) / (union * union)
        score, g = iou, d_iou

        if kind != "iou":
            # the hull grows with a reach beyond the truth's
            hull = np.maximum(rp, rt)
            ext_h = hull[0] + hull[1]
            d_hull = rp > rt

        if kind == "giou":
            # iou - (hull - union)/hull == iou - 1 + union/hull
            area = ext_h[0] * ext_h[1]
            d_area = d_hull * ext_h[::-1]
            score, g = (iou - 1.0 + union / area,
                        d_iou + (d_union * area - union * d_area) / (area * area))

        if kind in ("diou", "ciou"):
            gap = (rp[1] - rp[0]) / 2 - half_t   # a back reach pulls it back
            dist2, diag2 = _norm2(gap), _norm2(ext_h)
            d_diag2 = 2.0 * ext_h * d_hull
            score, g = iou - dist2 / diag2, d_iou - (
                np.multiply.outer(_SIGNS, gap) * diag2 - dist2 * d_diag2) / (diag2 * diag2)

        if kind == "ciou":
            # Aspect-ratio consistency term, differentiated exactly, including
            # through its adaptive weight.
            ext_c = np.maximum(ext_p, _ASPECT_EPS)
            q = aspect_t - np.arctan(ext_c[0] / ext_c[1])
            v = (4.0 / np.pi**2) * q * q
            # dq/d(reach) = -(dw*h - w*dh) / (w^2 + h^2), alike on both sides
            dq = (ext_p > _ASPECT_EPS) * ext_c[::-1] * turn / _norm2(ext_c)
            dv = (8.0 / np.pi**2) * q * dq

            big = (1.0 - iou) + v + _COVER_EPS
            alpha = v / big
            d_alpha = (dv * big - v * (dv - d_iou)) / (big * big)
            score, g = score - alpha * v, g - (d_alpha * v + alpha * dv)

        loss = np.subtract(1.0, score.T, order="C")
        return loss, np.negative(g.reshape(4, *g.shape[2:]).T, order="C")

    return step


def _plan_mse(t: np.ndarray, kind, rho: float, ndim: int):
    def step(p: np.ndarray):
        diff = p - t
        return np.add.reduce(diff * diff, axis=-1) / 4, diff / 2.0

    return step


# kind -> planner (truth, kind, rho, ndim) -> step; only the IoU family
# reads its kind, and only sdiou its rho
_PLANNERS = {"sdiou": _plan_sdiou, "mse": _plan_mse,
             **dict.fromkeys(LOSS_KINDS[2:], _plan_iou_family)}


def plan_loss_grad(truth, kind: str, pred_shape, rho: float = 1.0):
    """Plan :func:`regression_loss_grad` for one truth, kind and prediction shape.

    Checks the kind, the shapes and ``rho``, and computes every term that
    depends on the truth alone, once. Returns ``step(pred) -> (loss, grad)``
    for float arrays ``pred`` of shape ``pred_shape``; each call gives the
    bits of ``regression_loss_grad(pred, truth, kind, rho)``.
    """
    t, shape = np.asarray(truth, dtype=float), tuple(pred_shape)
    if kind not in LOSS_KINDS:   # a tuple or list of kinds too
        raise ValueError(f"unknown loss kind {kind!r}; valid: {', '.join(LOSS_KINDS)}")
    if not 0 <= rho < np.inf:   # read by sdiou alone, but checked for every kind
        raise ValueError(f"rho must be >= 0, got {rho}")
    run = _PLANNERS[kind](t, kind, rho, max(len(shape), t.ndim))

    def step(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if p.shape != shape:
            raise ValueError(f"planned for prediction rows of shape {shape}, got {p.shape}")
        return run(p)

    return step


def regression_loss_grad(
    pred, truth, kind: str = "sdiou", rho: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Unified (loss, gradient) dispatch for one loss kind over (..., 4) distance arrays.

    :func:`plan_loss_grad` builds the call; a loop over one truth builds it
    once.
    """
    p = np.asarray(pred, dtype=float)
    return plan_loss_grad(truth, kind, p.shape, rho)(p)


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
    d, jac = decode_with_jacobian(logits, gain)
    loss, grad_d = regression_loss_grad(d, truth, kind, rho)
    return loss, grad_d * jac


# --- head terms of the multitask objective in fit.fit_scenes ---------------


def bce_with_logits(logits, labels) -> np.ndarray:
    """Elementwise binary cross entropy from logits, numerically stable.

    Labels must be exactly 0 or 1.
    """
    z, y = np.asarray(logits, dtype=float), np.asarray(labels, dtype=float)
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("labels must be 0 or 1")
    return _bce(z, y)


def _bce(z: np.ndarray, y) -> np.ndarray:
    """:func:`bce_with_logits` on float logits, without the label check."""
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
