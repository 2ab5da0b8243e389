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
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    diff = truth - pred
    s = np.sum(diff * diff, axis=-1)
    mn = np.minimum(truth, pred)
    mx = np.maximum(truth, pred)
    wi_raw = mn[..., 0] + mn[..., 2] - 1.0
    hi_raw = mn[..., 1] + mn[..., 3] - 1.0
    wi = np.maximum(wi_raw, 0.0)
    hi = np.maximum(hi_raw, 0.0)
    wc = mx[..., 0] + mx[..., 2] - 1.0
    hc = mx[..., 1] + mx[..., 3] - 1.0
    i = wi * wi + hi * hi
    c = wc * wc + hc * hc
    if np.any(c <= _COVER_EPS):
        raise DegenerateGeometryError(
            "covering diagonal is zero: both boxes have collapsed to points"
        )
    score = (i - rho * s) / c
    return s, wi_raw, hi_raw, wi, hi, wc, hc, i, c, score


def sdiou_loss(pred, truth, rho: float = 1.0) -> np.ndarray:
    """Vectorized loss over (..., 4) distance arrays."""
    *_, score = _sdiou_core(_dist_array(pred), _dist_array(truth), rho)
    return 1.0 - score


def sdiou(pred, truth, rho: float = 1.0) -> SdiouParts:
    """Score one prediction against one truth, exposing every term."""
    p = _dist_array(pred).reshape(4)
    t = _dist_array(truth).reshape(4)
    s, _, _, wi, hi, wc, hc, i, c, score = _sdiou_core(p, t, rho)
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
    s, wi_raw, hi_raw, wi, hi, wc, hc, i, c, score = _sdiou_core(p, t, rho)

    takes_min = (p < t).astype(float)   # prediction drives the min
    takes_max = (p > t).astype(float)   # prediction drives the max
    gate_w = (wi_raw > 0.0).astype(float)
    gate_h = (hi_raw > 0.0).astype(float)

    di = np.empty_like(p)
    di[..., 0] = 2.0 * wi * gate_w * takes_min[..., 0]
    di[..., 2] = 2.0 * wi * gate_w * takes_min[..., 2]
    di[..., 1] = 2.0 * hi * gate_h * takes_min[..., 1]
    di[..., 3] = 2.0 * hi * gate_h * takes_min[..., 3]

    dc = np.empty_like(p)
    dc[..., 0] = 2.0 * wc * takes_max[..., 0]
    dc[..., 2] = 2.0 * wc * takes_max[..., 2]
    dc[..., 1] = 2.0 * hc * takes_max[..., 1]
    dc[..., 3] = 2.0 * hc * takes_max[..., 3]

    ds = 2.0 * (p - t)
    numer = i - rho * s
    dscore = ((di - rho * ds) * c[..., None] - numer[..., None] * dc) / (c * c)[..., None]
    return 1.0 - score, -dscore


# --- baselines on boxes reconstructed in a shared cell frame ---------------
#
# With the cell's top-left corner at the origin, distances invert to
# x1 = 1 - l, y1 = 1 - t, x2 = r, y2 = b (grid units). Gradients in the
# corners map back to distances with sign flips on x1 and y1.


def _frame_corners(d: np.ndarray) -> tuple[np.ndarray, ...]:
    return 1.0 - d[..., 0], 1.0 - d[..., 1], d[..., 2], d[..., 3]


def _corner_grad_to_dist(gx1, gy1, gx2, gy2) -> np.ndarray:
    return np.stack([-gx1, -gy1, gx2, gy2], axis=-1)


def _iou_with_grad(p: np.ndarray, t: np.ndarray):
    """Overlap score and pieces shared by the whole IoU family.

    The predicted box may be degenerate (non-positive width or height while
    mid-optimization); extents are clamped so the score stays defined, with
    zero gradient through inactive branches.
    """
    px1, py1, px2, py2 = _frame_corners(p)
    tx1, ty1, tx2, ty2 = _frame_corners(t)

    iw = np.minimum(px2, tx2) - np.maximum(px1, tx1)
    ih = np.minimum(py2, ty2) - np.maximum(py1, ty1)
    iw_p = np.maximum(iw, 0.0)
    ih_p = np.maximum(ih, 0.0)
    inter = iw_p * ih_p

    pw = px2 - px1
    ph = py2 - py1
    pw_p = np.maximum(pw, 0.0)
    ph_p = np.maximum(ph, 0.0)
    area_p = pw_p * ph_p
    area_t = (tx2 - tx1) * (ty2 - ty1)
    union = area_p + area_t - inter
    iou = inter / union

    # d(inter)/d(pred corners)
    gw = (iw > 0.0).astype(float)
    gh = (ih > 0.0).astype(float)
    d_inter_x1 = -gw * (px1 > tx1).astype(float) * ih_p
    d_inter_x2 = gw * (px2 < tx2).astype(float) * ih_p
    d_inter_y1 = -gh * (py1 > ty1).astype(float) * iw_p
    d_inter_y2 = gh * (py2 < ty2).astype(float) * iw_p

    # d(pred area)/d(pred corners)
    aw = (pw > 0.0).astype(float)
    ah = (ph > 0.0).astype(float)
    d_area_x1 = -aw * ph_p
    d_area_x2 = aw * ph_p
    d_area_y1 = -ah * pw_p
    d_area_y2 = ah * pw_p

    d_union_x1 = d_area_x1 - d_inter_x1
    d_union_x2 = d_area_x2 - d_inter_x2
    d_union_y1 = d_area_y1 - d_inter_y1
    d_union_y2 = d_area_y2 - d_inter_y2

    u2 = union * union
    d_iou_x1 = (d_inter_x1 * union - inter * d_union_x1) / u2
    d_iou_x2 = (d_inter_x2 * union - inter * d_union_x2) / u2
    d_iou_y1 = (d_inter_y1 * union - inter * d_union_y1) / u2
    d_iou_y2 = (d_inter_y2 * union - inter * d_union_y2) / u2

    hull_w = np.maximum(px2, tx2) - np.minimum(px1, tx1)
    hull_h = np.maximum(py2, ty2) - np.minimum(py1, ty1)
    d_hw_x1 = -(px1 < tx1).astype(float)
    d_hw_x2 = (px2 > tx2).astype(float)
    d_hh_y1 = -(py1 < ty1).astype(float)
    d_hh_y2 = (py2 > ty2).astype(float)

    return {
        "corners_p": (px1, py1, px2, py2),
        "corners_t": (tx1, ty1, tx2, ty2),
        "pw": pw, "ph": ph,
        "iou": iou,
        "union": union,
        "d_iou": (d_iou_x1, d_iou_y1, d_iou_x2, d_iou_y2),
        "d_union": (d_union_x1, d_union_y1, d_union_x2, d_union_y2),
        "hull_w": hull_w, "hull_h": hull_h,
        "d_hull_w": (d_hw_x1, d_hw_x2),
        "d_hull_h": (d_hh_y1, d_hh_y2),
    }


def _iou_family_loss_grad(p: np.ndarray, t: np.ndarray, kind: str):
    z = _iou_with_grad(p, t)
    score = z["iou"]
    gx1, gy1, gx2, gy2 = z["d_iou"]

    if kind in ("giou",):
        # iou - (hull - union)/hull == iou - 1 + union/hull
        hull = z["hull_w"] * z["hull_h"]
        dhx1 = z["d_hull_w"][0] * z["hull_h"]
        dhx2 = z["d_hull_w"][1] * z["hull_h"]
        dhy1 = z["d_hull_h"][0] * z["hull_w"]
        dhy2 = z["d_hull_h"][1] * z["hull_w"]
        ux1, uy1, ux2, uy2 = z["d_union"]
        h2 = hull * hull
        score = score - 1.0 + z["union"] / hull
        gx1 = gx1 + (ux1 * hull - z["union"] * dhx1) / h2
        gx2 = gx2 + (ux2 * hull - z["union"] * dhx2) / h2
        gy1 = gy1 + (uy1 * hull - z["union"] * dhy1) / h2
        gy2 = gy2 + (uy2 * hull - z["union"] * dhy2) / h2

    if kind in ("diou", "ciou"):
        px1, py1, px2, py2 = z["corners_p"]
        tx1, ty1, tx2, ty2 = z["corners_t"]
        dx = (px1 + px2) / 2 - (tx1 + tx2) / 2
        dy = (py1 + py2) / 2 - (ty1 + ty2) / 2
        dist2 = dx * dx + dy * dy
        diag2 = z["hull_w"] ** 2 + z["hull_h"] ** 2
        dd2x1 = 2.0 * z["hull_w"] * z["d_hull_w"][0]
        dd2x2 = 2.0 * z["hull_w"] * z["d_hull_w"][1]
        dd2y1 = 2.0 * z["hull_h"] * z["d_hull_h"][0]
        dd2y2 = 2.0 * z["hull_h"] * z["d_hull_h"][1]
        g2 = diag2 * diag2
        score = score - dist2 / diag2
        gx1 = gx1 - (dx * diag2 - dist2 * dd2x1) / g2
        gx2 = gx2 - (dx * diag2 - dist2 * dd2x2) / g2
        gy1 = gy1 - (dy * diag2 - dist2 * dd2y1) / g2
        gy2 = gy2 - (dy * diag2 - dist2 * dd2y2) / g2

    if kind == "ciou":
        # Aspect-ratio consistency term, differentiated exactly, including
        # through its adaptive weight.
        pw_c = np.maximum(z["pw"], _ASPECT_EPS)
        ph_c = np.maximum(z["ph"], _ASPECT_EPS)
        tw = z["corners_t"][2] - z["corners_t"][0]
        th = z["corners_t"][3] - z["corners_t"][1]
        q = np.arctan(tw / th) - np.arctan(pw_c / ph_c)
        v = (4.0 / np.pi**2) * q * q

        gpw = (z["pw"] > _ASPECT_EPS).astype(float)
        gph = (z["ph"] > _ASPECT_EPS).astype(float)
        denom = pw_c * pw_c + ph_c * ph_c
        # dq/d(corner) = -(dpw*ph - pw*dph)/denom
        dq_x1 = -(-gpw * ph_c) / denom
        dq_x2 = -(gpw * ph_c) / denom
        dq_y1 = -(pw_c * gph) / denom      # dph/dy1 = -1
        dq_y2 = -(-pw_c * gph) / denom     # dph/dy2 = +1
        coef = (8.0 / np.pi**2) * q
        dv_x1, dv_y1 = coef * dq_x1, coef * dq_y1
        dv_x2, dv_y2 = coef * dq_x2, coef * dq_y2

        iou_val = z["iou"]
        iou_gx1, iou_gy1, iou_gx2, iou_gy2 = z["d_iou"]
        big = (1.0 - iou_val) + v + _COVER_EPS
        alpha = v / big
        b2 = big * big

        def d_alpha(dv, iou_g):
            return (dv * big - v * (dv - iou_g)) / b2

        score = score - alpha * v
        gx1 = gx1 - (d_alpha(dv_x1, iou_gx1) * v + alpha * dv_x1)
        gy1 = gy1 - (d_alpha(dv_y1, iou_gy1) * v + alpha * dv_y1)
        gx2 = gx2 - (d_alpha(dv_x2, iou_gx2) * v + alpha * dv_x2)
        gy2 = gy2 - (d_alpha(dv_y2, iou_gy2) * v + alpha * dv_y2)

    loss = 1.0 - score
    grad = -_corner_grad_to_dist(gx1, gy1, gx2, gy2)
    return loss, grad


def _mse_loss_grad(p: np.ndarray, t: np.ndarray):
    diff = p - t
    return np.mean(diff * diff, axis=-1), diff / 2.0


def regression_loss_grad(
    pred, truth, kind: str = "sdiou", rho: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Unified (loss, gradient) dispatch over (..., 4) distance arrays."""
    p = _dist_array(pred)
    t = _dist_array(truth)
    if kind == "sdiou":
        return sdiou_loss_grad(p, t, rho)
    if kind == "mse":
        return _mse_loss_grad(p, t)
    if kind in ("iou", "giou", "diou", "ciou"):
        return _iou_family_loss_grad(p, t, kind)
    raise ValueError(f"unknown loss kind {kind!r}; valid: {', '.join(LOSS_KINDS)}")


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


def multitask_loss(
    box_losses: Sequence[float],
    obj_logits: Sequence[np.ndarray],
    obj_labels: Sequence[np.ndarray],
    cls_logits: Sequence[np.ndarray],
    cls_labels: Sequence[np.ndarray],
) -> MultitaskLoss:
    """Per-scale sum of box, objectness, and classification terms.

    Classification and objectness use mean binary cross entropy from logits
    (empty arrays contribute 0); the box term arrives pre-reduced per scale.
    The total is the plain sum over scales.
    """
    n = len(box_losses)
    if not (len(obj_logits) == len(obj_labels) == len(cls_logits) == len(cls_labels) == n):
        raise ValueError("all per-scale sequences must have equal length")
    per_scale = []
    for s in range(n):
        obj = bce_with_logits(obj_logits[s], obj_labels[s])
        cls = bce_with_logits(cls_logits[s], cls_labels[s])
        term = (
            float(box_losses[s])
            + (float(np.mean(obj)) if obj.size else 0.0)
            + (float(np.mean(cls)) if cls.size else 0.0)
        )
        per_scale.append(term)
    return MultitaskLoss(per_scale=tuple(per_scale), total=float(sum(per_scale)))
