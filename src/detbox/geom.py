"""Axis-aligned rectangle primitives and brute-force IoU reference scores.

The scalar functions here are deliberately simple: they serve as the
referee against which every faster or cleverer path in the package
(vectorized IoU, distance-space losses, NMS) is validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Raised for geometrically invalid boxes (zero or negative extent)."""


@dataclass(frozen=True)
class BoundingBox:
    """Box in image pixels, center form. Width and height must be positive."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (self.w > 0 and self.h > 0):
            raise GeometryError(
                f"box width/height must be positive, got w={self.w}, h={self.h}"
            )

    @property
    def x1(self) -> float:
        return self.cx - self.w / 2

    @property
    def y1(self) -> float:
        return self.cy - self.h / 2

    @property
    def x2(self) -> float:
        return self.cx + self.w / 2

    @property
    def y2(self) -> float:
        return self.cy + self.h / 2


@dataclass(frozen=True)
class CornerBox:
    """Box in corner form (x1, y1) top-left, (x2, y2) bottom-right."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise GeometryError(
                f"corners out of order: ({self.x1},{self.y1})..({self.x2},{self.y2})"
            )

    @property
    def w(self) -> float:
        return self.x2 - self.x1

    @property
    def h(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=float)


def to_corner(box: BoundingBox) -> CornerBox:
    """Exact center-form to corner-form conversion."""
    return CornerBox(box.x1, box.y1, box.x2, box.y2)


def _require_area(box: CornerBox, name: str) -> None:
    if box.area <= 0:
        raise GeometryError(f"{name} has zero area: {box}")


def iou(a: CornerBox, b: CornerBox) -> float:
    """Intersection over union of two non-degenerate boxes, in [0, 1].

    Symmetric in its arguments and exactly 1 iff the boxes coincide.
    """
    _require_area(a, "first box")
    _require_area(b, "second box")
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def giou(a: CornerBox, b: CornerBox) -> float:
    """Generalized IoU: IoU minus the hull's dead-area fraction, in (-1, 1].

    The hull is the smallest axis-aligned box enclosing both inputs.
    Always <= iou(a, b), with equality when the hull equals the union.
    """
    _require_area(a, "first box")
    _require_area(b, "second box")
    iw = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    ih = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = iw * ih
    union = a.area + b.area - inter
    hull = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    return inter / union - (hull - union) / hull


def overlaps(a: tuple, b: tuple) -> bool:
    """Whether two (x1, y1, x2, y2) boxes share an area; a zero-area box shares none."""
    return min(a[2], b[2]) > max(a[0], b[0]) and min(a[3], b[3]) > max(a[1], b[1])


def xyxy_area(c) -> np.ndarray:
    """The areas of boxes given as corner columns ``(x1, y1, x2, y2)``; 0 for a negative extent."""
    return np.maximum(c[2] - c[0], 0.0) * np.maximum(c[3] - c[1], 0.0)


def iou_columns(a, b, area_a, area_b) -> np.ndarray:
    """IoU of boxes given as corner columns ``(x1, y1, x2, y2)`` with their
    :func:`xyxy_area`, broadcasting as ufuncs do. Bit for bit :func:`iou` on
    boxes of positive area (cross-checked in the test suite); 0, not an error,
    where the union is not positive."""
    iw = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    ih = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0.0)


def iou_xyxy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`iou_columns` over (..., 4) corner-form arrays, broadcasting over
    paired rows: (n, 4) with (n, 4), or (k, 1, 4) with (n, 4) for a (k, n) table."""
    a, b = (np.asarray(x, dtype=float) for x in (a, b))
    a, b = [a[..., k] for k in range(4)], [b[..., k] for k in range(4)]   # moveaxis costs more
    return iou_columns(a, b, xyxy_area(a), xyxy_area(b))
