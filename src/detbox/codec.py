"""Grid-relative corner-distance box coding.

A ground-truth box is represented, per feature-map scale, by four positive
distances measured in grid-cell units:

* ``l`` and ``t`` run from the assigned cell's *bottom-right* corner
  leftwards/upwards to the box's left and top boundaries,
* ``r`` and ``b`` run from the cell's *top-left* corner rightwards/downwards
  to the box's right and bottom boundaries.

For the cell containing the box center this makes all four distances
strictly positive for any positive-size box, even one smaller than a single
cell, and gives the exact identities ``l + r == w/stride + 1`` and
``t + b == h/stride + 1``. The identities are in fact independent of which
cell the distances are measured from: shifting the cell by one column moves
``l`` and ``r`` by -1/+1 and leaves the sum unchanged.

Raw network outputs map to distances through a doubled, squared sigmoid
scaled by a per-level gain::

    distance = (2 * sigmoid(p))**2 * gain

so each decoded distance lives in the open interval ``(0, 4 * gain)`` and is
strictly increasing in the logit. :func:`encode_logit_array` is the exact
inverse, used by round-trip tests and the gradient checker.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, logit


class CodecError(ValueError):
    """Raised for invalid scale configurations, assignments, or logit ranges."""


@dataclass(frozen=True)
class ScaleConfig:
    """Feature-map pyramid layout: strides, decode gains, image size.

    The image size must be positive. Whole, strictly increasing strides
    divide both image dimensions exactly, so every scale has an integer
    grid. Finite positive gains set the decoded distance range
    ``(0, 4 * gain)`` per scale; the default doubles across the first two
    levels and jumps to 16 at the coarsest, reading the level multipliers
    as powers of two with exponents 1, 2 and 4.
    """

    strides: tuple[int, ...] = (8, 16, 32)
    gains: tuple[float, ...] = (2.0, 4.0, 16.0)
    image_w: int = 640
    image_h: int = 640

    def __post_init__(self) -> None:
        if not all(float(s).is_integer() for s in self.strides):
            raise CodecError(f"strides must be whole numbers, got {tuple(self.strides)}")
        object.__setattr__(self, "strides", tuple(int(s) for s in self.strides))
        object.__setattr__(self, "gains", tuple(float(g) for g in self.gains))
        if not self.strides:
            raise CodecError("at least one stride is required")
        if any(s <= 0 for s in self.strides):
            raise CodecError(f"strides must be positive, got {self.strides}")
        if any(b <= a for a, b in zip(self.strides, self.strides[1:])):
            raise CodecError(f"strides must be strictly increasing, got {self.strides}")
        if len(self.gains) != len(self.strides):
            raise CodecError(
                f"need one gain per stride: {len(self.gains)} gains, "
                f"{len(self.strides)} strides"
            )
        if not all(0 < g < math.inf for g in self.gains):
            raise CodecError(f"gains must be finite and > 0, got {self.gains}")
        if self.image_w <= 0 or self.image_h <= 0:
            raise CodecError(f"image size must be positive, got {self.image_w}x{self.image_h}")
        for s in self.strides:
            if self.image_w % s or self.image_h % s:
                raise CodecError(
                    f"stride {s} does not divide image size "
                    f"{self.image_w}x{self.image_h}"
                )

    @property
    def num_scales(self) -> int:
        return len(self.strides)

    def grid_size(self, scale_index: int) -> tuple[int, int]:
        """Grid dimensions (cells_x, cells_y) at one scale."""
        s = self.strides[scale_index]
        return self.image_w // s, self.image_h // s

    def for_image(self, image_w, image_h) -> ScaleConfig:
        """The same strides and gains sized to an image.

        Returns ``self`` when the size already matches, else a cached copy
        validated like any new config: a size that is not a whole number,
        or that some stride does not divide, raises :class:`CodecError` on
        every call.
        """
        if (image_w, image_h) == (self.image_w, self.image_h):
            return self
        w, h = int(image_w), int(image_h)
        if (w, h) != (image_w, image_h):
            raise CodecError(f"image size must be whole numbers, got {image_w:.17g}x{image_h:.17g}")
        return _resized(self, image_w=w, image_h=h)


_resized = functools.lru_cache(maxsize=256)(replace)   # a raised CodecError is never cached


@dataclass(frozen=True)
class RegressionTarget:
    """Corner distances (l, t, r, b) in grid-cell units at one scale."""

    l: float
    t: float
    r: float
    b: float
    scale_index: int

    def as_array(self) -> np.ndarray:
        return np.array([self.l, self.t, self.r, self.b], dtype=float)


def center_cell(cx: float, cy: float, stride: int) -> tuple[int, int]:
    """Grid cell containing a point: floor of the point over the stride."""
    return int(math.floor(cx / stride)), int(math.floor(cy / stride))


def encode_distances(corners, cells, strides) -> np.ndarray:
    """Vectorized corner-distance formula: ``(..., 4)`` (l, t, r, b) rows.

    ``corners`` holds (x1, y1, x2, y2) pixel rows, ``cells`` the (x, y)
    cell each row is measured from, and ``strides`` that cell's stride.
    Nothing is checked: a cell far from its box gives non-positive
    distances, while the sum identities hold for any cell.
    """
    corners = np.asarray(corners, dtype=float)
    cells = np.asarray(cells)
    s = np.asarray(strides)[..., None]
    return np.concatenate([(cells + 1) - corners[..., :2] / s, corners[..., 2:] / s - cells], axis=-1)


def encode(box, cell: tuple[int, int], scale: ScaleConfig, scale_index: int) -> RegressionTarget:
    """Encode a center-form box into corner distances relative to ``cell``.

    ``cell`` is normally the cell containing the box center; augmented
    assignment may substitute a neighboring cell, in which case individual
    distances shift by whole cells but the sum identities still hold.

    A cell so far from the box that some distance is non-positive raises
    :class:`CodecError`; :func:`encode_distances` evaluates the formula
    unchecked.
    """
    s = scale.strides[scale_index]
    l, t, r, b = encode_distances((box.x1, box.y1, box.x2, box.y2), cell, s).tolist()
    if min(l, t, r, b) <= 0:
        raise CodecError(
            f"cell {cell} is not a valid assignment for box at "
            f"({box.cx}, {box.cy}) stride {s}: distances "
            f"({l:.6g}, {t:.6g}, {r:.6g}, {b:.6g}) must all be positive"
        )
    return RegressionTarget(l, t, r, b, scale_index)


def decode_distances(p: np.ndarray, gain) -> np.ndarray:
    """Vectorized logit-to-distance map: ``(2*sigmoid(p))**2 * gain``."""
    s = expit(np.asarray(p, dtype=float))
    return 4.0 * np.asarray(gain, dtype=float) * s * s


def decode_with_jacobian(p: np.ndarray, gain) -> tuple[np.ndarray, np.ndarray]:
    """:func:`decode_distances` and :func:`decode_jacobian` from one ``expit``.

    Each has the bits of its own function: the Jacobian is
    ``8*gain*s*s*(1-s)`` of the shared sigmoid ``s``, not ``2*d*(1-s)``,
    which rounds differently where ``s*s`` is subnormal.
    """
    s = expit(np.asarray(p, dtype=float))
    gain = np.asarray(gain, dtype=float)
    return 4.0 * gain * s * s, 8.0 * gain * s * s * (1.0 - s)


def decode_jacobian(p: np.ndarray, gain) -> np.ndarray:
    """Elementwise derivative of :func:`decode_distances` in the logits."""
    return decode_with_jacobian(p, gain)[1]


def encode_logit_array(d: np.ndarray, gain) -> np.ndarray:
    """Vectorized exact inverse of :func:`decode_distances`.

    Every entry must lie strictly inside ``(0, 4 * gain)``; the sigmoid
    cannot reach the endpoints. Otherwise :class:`CodecError` names the
    first offending entry, by component (``l``, ``t``, ``r``, ``b``) when
    the last axis holds distance quadruples.
    """
    d, gain = np.asarray(d, dtype=float), np.asarray(gain, dtype=float)
    bad = (d <= 0.0) | (d >= 4.0 * gain)
    if np.any(bad):
        d, gain = np.broadcast_arrays(d, gain)
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        name = "ltrb"[idx[-1]] if d.shape[-1:] == (4,) else "d"
        raise CodecError(
            f"component {name}={d[idx]:.6g} at index {idx} not representable: "
            f"open interval (0, {4.0 * gain[idx]:.6g})"
        )
    return logit(np.sqrt(d / gain) / 2.0)

