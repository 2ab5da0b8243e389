"""Rectangle primitives and the brute-force overlap scores."""

import numpy as np
import pytest

from detbox import BoundingBox, CornerBox, GeometryError, giou, iou, to_corner
from detbox.geom import iou_columns, iou_xyxy, overlaps, xyxy_area

from conftest import random_box


def test_to_corner_examples():
    assert to_corner(BoundingBox(100, 60, 40, 20)) == CornerBox(80, 50, 120, 70)
    assert to_corner(BoundingBox(0, 0, 2, 2)) == CornerBox(-1, -1, 1, 1)
    assert to_corner(BoundingBox(7.5, 3.25, 1, 0.5)) == CornerBox(7, 3, 8, 3.5)


def test_center_corner_round_trip(rng):
    for _ in range(200):
        box = random_box(rng)
        corner = to_corner(box)
        assert abs((corner.x1 + corner.x2) / 2 - box.cx) < 1e-12
        assert abs((corner.y1 + corner.y2) / 2 - box.cy) < 1e-12
        assert abs(corner.w - box.w) < 1e-12
        assert abs(corner.h - box.h) < 1e-12


def test_degenerate_boxes_rejected():
    with pytest.raises(GeometryError):
        BoundingBox(0, 0, 0, 5)
    with pytest.raises(GeometryError):
        BoundingBox(0, 0, 5, -1)
    with pytest.raises(GeometryError):
        CornerBox(3, 0, 2, 1)


def test_iou_examples():
    a = CornerBox(0, 0, 2, 2)
    assert iou(a, a) == 1.0
    assert iou(CornerBox(0, 0, 1, 1), CornerBox(5, 0, 6, 1)) == 0.0
    np.testing.assert_allclose(iou(a, CornerBox(1, 0, 3, 2)), 1 / 3, rtol=0, atol=1e-15)


def test_iou_rejects_zero_area():
    with pytest.raises(GeometryError):
        iou(CornerBox(0, 0, 0, 1), CornerBox(0, 0, 1, 1))
    with pytest.raises(GeometryError):
        giou(CornerBox(0, 0, 1, 1), CornerBox(2, 2, 2, 2))


def test_overlaps_is_iou_above_zero(rng):
    # random pairs, then a box touching a's right edge and one spanning a's rows
    for _ in range(500):
        a, b = to_corner(random_box(rng)), to_corner(random_box(rng))
        for c in (b, CornerBox(a.x2, b.y1, a.x2 + b.w, b.y2), CornerBox(b.x1, a.y1, b.x2, a.y2)):
            xyxy = (a.x1, a.y1, a.x2, a.y2), (c.x1, c.y1, c.x2, c.y2)
            assert overlaps(*xyxy) == overlaps(*xyxy[::-1]) == (iou(a, c) > 0)


def test_zero_area_box_overlaps_nothing():
    box = (0.0, 0.0, 10.0, 10.0)
    for sliver in [(5.0, 2.0, 5.0, 8.0), (2.0, 5.0, 8.0, 5.0), (5.0, 5.0, 5.0, 5.0)]:
        assert not overlaps(box, sliver) and not overlaps(sliver, box)
        assert not overlaps(sliver, sliver)


def test_giou_examples():
    a = CornerBox(0, 0, 1, 1)
    assert giou(a, a) == 1.0
    np.testing.assert_allclose(giou(a, CornerBox(2, 0, 3, 1)), -1 / 3, atol=1e-15)
    # hull equals union: giou collapses to iou
    np.testing.assert_allclose(
        giou(CornerBox(0, 0, 2, 2), CornerBox(1, 0, 3, 2)), 1 / 3, atol=1e-15
    )


def test_symmetry_and_bounds(rng):
    for _ in range(500):
        a, b = to_corner(random_box(rng)), to_corner(random_box(rng))
        ab, ba = iou(a, b), iou(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0
        g = giou(a, b)
        assert giou(b, a) == g
        assert g <= ab + 1e-15
        assert -1.0 < g <= 1.0


def test_identity_iff_equal(rng):
    for _ in range(100):
        a = to_corner(random_box(rng))
        b = CornerBox(a.x1 + 1e-6, a.y1, a.x2, a.y2)
        assert iou(a, a) == 1.0
        assert iou(a, b) < 1.0


def test_translation_invariance(rng):
    for _ in range(200):
        a, b = to_corner(random_box(rng)), to_corner(random_box(rng))
        dx, dy = rng.uniform(-50, 50, size=2)
        a2 = CornerBox(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
        b2 = CornerBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
        assert abs(iou(a2, b2) - iou(a, b)) < 1e-12
        assert abs(giou(a2, b2) - giou(a, b)) < 1e-12


def test_scale_invariance(rng):
    def scaled(box, k, px, py):
        return CornerBox(
            px + k * (box.x1 - px), py + k * (box.y1 - py),
            px + k * (box.x2 - px), py + k * (box.y2 - py),
        )

    for _ in range(200):
        a, b = to_corner(random_box(rng)), to_corner(random_box(rng))
        base = iou(a, b)
        # powers of two about the origin are exact in floating point
        for k in (0.5, 2.0, 4.0):
            assert iou(scaled(a, k, 0, 0), scaled(b, k, 0, 0)) == base
        # arbitrary factor and pivot: invariant up to rounding
        assert abs(iou(scaled(a, 3.0, 17.3, -4.2), scaled(b, 3.0, 17.3, -4.2)) - base) < 1e-12


def test_vectorized_iou_matches_oracle(rng):
    boxes_a = [to_corner(random_box(rng)) for _ in range(300)]
    boxes_b = [to_corner(random_box(rng)) for _ in range(300)]
    got = iou_xyxy(
        np.array([b.as_array() for b in boxes_a]),
        np.array([b.as_array() for b in boxes_b]),
    )
    want = np.array([iou(a, b) for a, b in zip(boxes_a, boxes_b)])
    np.testing.assert_array_equal(got, want)   # bit for bit on boxes of positive area


def test_column_iou_matches_oracle(rng):
    # paired columns, then (k, 1) columns against (n,) ones for a (k, n) table
    boxes_a = [to_corner(random_box(rng)) for _ in range(40)]
    boxes_b = [to_corner(random_box(rng)) for _ in range(60)]
    a = np.array([box.as_array() for box in boxes_a]).T
    b = np.array([box.as_array() for box in boxes_b]).T
    paired = iou_columns(a, b[:, :40], xyxy_area(a), xyxy_area(b[:, :40]))
    np.testing.assert_array_equal(paired, [iou(p, q) for p, q in zip(boxes_a, boxes_b)])
    table = iou_columns(a[:, :, None], b, xyxy_area(a)[:, None], xyxy_area(b))
    np.testing.assert_array_equal(table, [[iou(p, q) for q in boxes_b] for p in boxes_a])
    np.testing.assert_array_equal(table, iou_xyxy(a.T[:, None], b.T))


def test_column_iou_of_zero_area_and_touching_boxes_is_0():
    box = (0.0, 0.0, 10.0, 10.0)
    others = [(5.0, 2.0, 5.0, 8.0), (2.0, 5.0, 8.0, 5.0), (5.0, 5.0, 5.0, 5.0),   # zero area
              (10.0, 0.0, 20.0, 10.0), (0.0, 10.0, 10.0, 20.0), (10.0, 10.0, 20.0, 20.0)]
    a, b = np.array([box] * len(others)).T, np.array(others).T
    assert iou_columns(a, b, xyxy_area(a), xyxy_area(b)).tolist() == [0.0] * len(others)
    assert iou_columns(b, b, xyxy_area(b), xyxy_area(b)).tolist() == [0.0] * 3 + [1.0] * 3
