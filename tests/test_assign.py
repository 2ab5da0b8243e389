"""Positive-sample selection: center cells, neighbors, ablation modes."""

import math
from collections import defaultdict
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detbox import (
    AssignMode,
    AssignmentError,
    AssignmentTable,
    BoundingBox,
    CodecError,
    Scene,
    ScaleConfig,
    apply_scale_constraints,
    assign,
    assign_scenes,
    center_cell,
    center_collision_audit,
)
from detbox.assign import LOCATION_STRATEGIES
from detbox.geom import iou, to_corner

from conftest import random_box


def _cells(records, scale_index=None):
    return {
        (r.scale_index, r.cell)
        for r in records
        if scale_index is None or r.scale_index == scale_index
    }


class TestCenterMode:
    def test_one_record_per_scale(self, scale):
        box = BoundingBox(123.4, 77.9, 50, 30)
        records = assign([(box, 2)], scale, AssignMode(location_strategy="center"))
        assert len(records) == 3
        for rec in records:
            s = scale.strides[rec.scale_index]
            assert rec.cell == (math.floor(box.cx / s), math.floor(box.cy / s))
            assert rec.class_id == 2

    def test_counts(self, scale, rng):
        objects = [(random_box(rng), 0) for _ in range(20)]
        records = assign(objects, scale, AssignMode(location_strategy="center"))
        assert np.bincount(records.object_id).tolist() == [3] * 20


class TestAugCenter:
    def test_neighbors_follow_the_center_offset(self, scale):
        # center in the left/upper part of cell (5, 5) at stride 8
        box = BoundingBox(41.2, 43.9, 30, 30)
        records = assign([(box, 0)], scale)
        assert (0, (5, 5)) in _cells(records)
        assert (0, (4, 5)) in _cells(records)   # left of the vertical midline
        assert (0, (5, 4)) in _cells(records)   # above the horizontal midline

        box = BoundingBox(46.8, 44.3, 30, 30)   # right/lower part of the same cell
        records = assign([(box, 0)], scale)
        assert (0, (6, 5)) in _cells(records)
        assert (0, (5, 6)) in _cells(records)

    def test_exact_midline_adds_no_neighbor(self):
        # strides chosen so one point is the exact cell midpoint at every scale
        scale = ScaleConfig(strides=(8, 24, 72), gains=(2, 4, 16), image_w=576, image_h=576)
        records = assign([(BoundingBox(36.0, 36.0, 20, 20), 0)], scale)
        assert len(records) == 3

    def test_grid_edge_neighbors_are_clipped(self, scale):
        # center in the top-left cell, offsets pointing out of the grid
        records = assign([(BoundingBox(2.0, 2.0, 10, 10), 0)], scale)
        for rec in records:
            assert rec.cell[0] >= 0 and rec.cell[1] >= 0

    def test_all_scales_covered(self, scale, rng):
        objects = [(random_box(rng), 0) for _ in range(30)]
        records = assign(objects, scale)
        for i in range(len(objects)):
            scales_seen = {r.scale_index for r in records if r.object_id == i}
            assert scales_seen == {0, 1, 2}

    def test_count_bounds(self, scale, rng):
        for _ in range(100):
            records = assign([(random_box(rng), 0)], scale)
            assert 3 <= len(records) <= 9

    def test_size_independence(self, scale, rng):
        # the claimed cells depend on the center offset only, never on size
        for _ in range(200):
            box = random_box(rng, size_lo=4, size_hi=200)
            base = assign([(box, 0)], scale)
            for k in (0.5, 2.0, 4.0):
                scaled = assign([(BoundingBox(box.cx, box.cy, k * box.w, k * box.h), 0)], scale)
                assert len(scaled) == len(base)
                assert _cells(scaled) == _cells(base)

    def test_center_targets_positive(self, scale, rng):
        for _ in range(100):
            box = random_box(rng)
            for rec in assign([(box, 0)], scale):
                s = scale.strides[rec.scale_index]
                if rec.cell == center_cell(box.cx, box.cy, s):
                    assert min(rec.target.l, rec.target.t, rec.target.r, rec.target.b) > 0

    def test_neighbor_targets_positive_for_cell_spanning_boxes(self, scale, rng):
        # boxes at least one cell wide at every scale overlap their neighbors
        for _ in range(100):
            box = random_box(rng, size_lo=33, size_hi=300)
            for rec in assign([(box, 0)], scale):
                assert min(rec.target.l, rec.target.t, rec.target.r, rec.target.b) > 0


class TestAlternateModes:
    def test_h_centers_two_cells_when_wide(self, scale):
        box = BoundingBox(300, 300, 200, 160)
        records = assign([(box, 0)], scale, AssignMode(location_strategy="h_centers"))
        per_scale = np.bincount(records.object_id)[0]
        assert per_scale == 6  # two distinct midpoint cells at each of 3 scales

    def test_h_centers_collapse_for_sub_cell_boxes(self, scale):
        box = BoundingBox(300.1, 300.1, 6, 6)
        records = assign([(box, 0)], scale, AssignMode(location_strategy="h_centers"))
        at_coarse = [r for r in records if r.scale_index == 2]
        assert len(at_coarse) == 1  # both midpoints share the cell; deduplicated

    def test_four_corners(self, scale):
        box = BoundingBox(300, 300, 200, 150)
        records = assign([(box, 0)], scale, AssignMode(location_strategy="four_corners"))
        assert np.bincount(records.object_id)[0] == 12
        plus = assign(
            [(box, 0)], scale, AssignMode(location_strategy="four_corners_plus_center")
        )
        assert np.bincount(plus.object_id)[0] == 15

    def test_union_mode_is_a_superset(self, scale, rng):
        for _ in range(50):
            box = random_box(rng, size_lo=20, size_hi=200)
            combo = assign(
                [(box, 0)], scale,
                AssignMode(location_strategy="aug_center_plus_h_centers"),
            )
            aug = assign([(box, 0)], scale)
            h = assign([(box, 0)], scale, AssignMode(location_strategy="h_centers"))
            assert _cells(combo) == _cells(aug) | _cells(h)

    def test_quadrants(self, scale):
        s = scale.strides[0]
        mode = AssignMode(location_strategy="center", predictions_per_cell=4)
        for (dx, dy), quadrant in (((2, 2), 0), ((6, 2), 1), ((2, 6), 2), ((6, 6), 3)):
            box = BoundingBox(40 + dx, 40 + dy, 20, 20)
            rec = [r for r in assign([(box, 0)], scale, mode) if r.scale_index == 0][0]
            assert rec.quadrant == quadrant
        # single-prediction heads always use quadrant 0
        rec = assign([(BoundingBox(46, 46, 20, 20), 0)], scale)[0]
        assert rec.quadrant == 0


class TestErrors:
    def test_center_on_or_outside_boundary(self, scale):
        with pytest.raises(AssignmentError):
            assign([(BoundingBox(0.0, 50.0, 10, 10), 0)], scale)
        with pytest.raises(AssignmentError):
            assign([(BoundingBox(650.0, 50.0, 10, 10), 0)], scale)
        with pytest.raises(AssignmentError):
            assign([(BoundingBox(50.0, 640.0, 10, 10), 0)], scale)

    def test_empty_scene(self, scale):
        assert len(assign([], scale)) == 0
        assert np.bincount(assign([], scale).object_id).tolist() == []

    def test_bad_modes(self):
        with pytest.raises(AssignmentError):
            AssignMode(location_strategy="centroid")
        with pytest.raises(AssignmentError):
            AssignMode(predictions_per_cell=2)
        with pytest.raises(AssignmentError):
            AssignMode(scale_thresholds=(0, 32, 64))          # must end at inf
        with pytest.raises(AssignmentError):
            AssignMode(scale_thresholds=(16, 32, math.inf))   # must start at 0
        with pytest.raises(AssignmentError):
            AssignMode(scale_thresholds=(0, 64, 32, math.inf))
        with pytest.raises(AssignmentError, match="strictly increasing"):
            AssignMode(scale_thresholds=(0, math.nan, 64, math.inf))   # no bracket at all


class TestScaleConstraints:
    def test_large_object_survives_only_coarse(self, scale):
        records = assign(
            [(BoundingBox(320, 320, 100, 100), 0)], scale,
            AssignMode(location_strategy="center"),
        )
        kept = apply_scale_constraints(records, (0, 32, 64, math.inf), scale)
        assert {r.scale_index for r in kept} == {2}

    def test_mixed_dimensions_use_the_larger_side(self, scale):
        # w=40 exceeds the finest bracket; both sides sit under the coarse
        # bracket's lower bound, so only the middle scale keeps the object
        records = assign(
            [(BoundingBox(320, 320, 40, 10), 0)], scale,
            AssignMode(location_strategy="center"),
        )
        kept = apply_scale_constraints(records, (0, 32, 64, math.inf), scale)
        assert {r.scale_index for r in kept} == {1}

    def test_no_thresholds_is_identity_and_idempotent(self, scale, rng):
        records = assign([(random_box(rng, size_lo=10, size_hi=300), 0)], scale)
        full = (0, 32, 64, math.inf)
        once = apply_scale_constraints(records, full, scale)
        assert list(apply_scale_constraints(once, full, scale)) == list(once)
        assert set(once) <= set(records)

    def test_thresholds_inside_mode(self, scale):
        mode = AssignMode(location_strategy="center", scale_thresholds=(0, 32, 64, math.inf))
        records = assign([(BoundingBox(320, 320, 100, 100), 0)], scale, mode)
        assert {r.scale_index for r in records} == {2}

    def test_wrong_threshold_count(self, scale):
        with pytest.raises(AssignmentError):
            apply_scale_constraints([], (0, 32, math.inf), scale)

    def test_nan_threshold_rejected(self, scale):
        records = assign([(BoundingBox(320, 320, 20, 20), 0)], scale)
        with pytest.raises(AssignmentError, match="strictly increasing"):
            apply_scale_constraints(records, (0, math.nan, 64, math.inf), scale)


class TestCollisionAudit:
    def test_disjoint_objects_not_reported(self, scale):
        # same stride-32 cell, no overlap
        objects = [
            (BoundingBox(100, 100, 6, 6), 0),
            (BoundingBox(110, 110, 6, 6), 1),
        ]
        report = center_collision_audit(objects, scale)
        assert report[2] == []

    def test_overlapping_near_centers_reported_at_coarse_scale(self, scale):
        objects = [
            (BoundingBox(103, 100, 40, 40), 0),
            (BoundingBox(105, 100, 40, 40), 1),
        ]
        report = center_collision_audit(objects, scale)
        assert report[2] == [((3, 3), (0, 1))]
        # at stride 8 the centers land in different cells
        assert report[0] == []

    def test_single_object(self, scale):
        report = center_collision_audit([(BoundingBox(100, 100, 40, 40), 0)], scale)
        assert all(hits == [] for hits in report.values())

    def test_third_disjoint_object_excluded_from_group(self, scale):
        objects = [
            (BoundingBox(103, 100, 40, 40), 0),
            (BoundingBox(105, 100, 40, 40), 1),
            (BoundingBox(126, 126, 4, 4), 2),   # same coarse cell, overlaps nothing
        ]
        report = center_collision_audit(objects, scale)
        assert report[2] == [((3, 3), (0, 1))]

    def test_sliver_box_is_in_no_collision(self, scale):
        # a 1e-14 px wide box at x = 105, whose corners round to x1 == x2,
        # in the center cell of two overlapping boxes at every scale
        sliver = BoundingBox(105 + 0.5e-14, 110, 1e-14, 10)
        assert sliver.x1 == sliver.x2 == 105.0
        objects = [(BoundingBox(110, 110, 20, 20), 0), (sliver, 1),
                   (BoundingBox(111, 111, 20, 20), 2)]
        report = center_collision_audit(objects, scale)
        assert report == {0: [((13, 13), (0, 2))], 1: [((6, 6), (0, 2))], 2: [((3, 3), (0, 2))]}

    def test_center_that_is_not_finite(self, scale):
        with pytest.raises(AssignmentError, match="not finite"):
            center_collision_audit([(BoundingBox(math.nan, 100, 4, 4), 0)], scale)


def reference_assign(objects, scale, mode=AssignMode()):
    """Plain per-object loop that the columnar ``assign`` must match."""
    thresholds = mode.scale_thresholds
    records = []
    for object_id, (box, class_id) in enumerate(objects):
        if not (0 < box.cx < scale.image_w and 0 < box.cy < scale.image_h):
            raise AssignmentError(f"object {object_id} center outside the image")
        for scale_index, s in enumerate(scale.strides):
            nx, ny = scale.grid_size(scale_index)

            def cell_of(x, y):
                return math.floor(x / s), math.floor(y / s)

            center = cell_of(box.cx, box.cy)
            neighbors = []
            fx = box.cx - s * center[0]
            if fx < s / 2:
                neighbors.append((center[0] - 1, center[1]))
            elif fx > s / 2:
                neighbors.append((center[0] + 1, center[1]))
            fy = box.cy - s * center[1]
            if fy < s / 2:
                neighbors.append((center[0], center[1] - 1))
            elif fy > s / 2:
                neighbors.append((center[0], center[1] + 1))
            midpoints = [
                cell_of(box.cx - box.w / 4, box.cy - box.h / 4),
                cell_of(box.cx + box.w / 4, box.cy + box.h / 4),
            ]
            corners = [
                cell_of(box.x1, box.y1),
                cell_of(box.x2, box.y1),
                cell_of(box.x1, box.y2),
                cell_of(box.x2, box.y2),
            ]
            candidates = {
                "center": [center],
                "aug_center": [center] + neighbors,
                "h_centers": midpoints,
                "aug_center_plus_h_centers": [center] + neighbors + midpoints,
                "four_corners": corners,
                "four_corners_plus_center": corners + [center],
            }[mode.location_strategy]

            seen = set()
            for cell in candidates:
                if cell in seen:
                    continue
                seen.add(cell)
                if not (0 <= cell[0] < nx and 0 <= cell[1] < ny):
                    continue
                l = (cell[0] + 1) - box.x1 / s
                t = (cell[1] + 1) - box.y1 / s
                r = box.x2 / s - cell[0]
                b = box.y2 / s - cell[1]
                if thresholds is not None:
                    size = max(s * (l + r - 1.0), s * (t + b - 1.0))
                    if size < thresholds[scale_index] or size > thresholds[scale_index + 1]:
                        continue
                quadrant = 0
                if mode.predictions_per_cell == 4:
                    qx = 0 if box.cx < s * (cell[0] + 0.5) else 1
                    qy = 0 if box.cy < s * (cell[1] + 0.5) else 1
                    quadrant = 2 * qy + qx
                records.append(
                    (object_id, class_id, scale_index, cell, quadrant,
                     tuple(v.hex() for v in (l, t, r, b)))
                )
    return records


@st.composite
def _assign_cases(draw):
    strides = draw(st.sampled_from([(8, 16, 32), (8, 24, 72)]))
    unit = strides[-1]
    image_w = unit * draw(st.integers(1, 1280 // unit))
    image_h = unit * draw(st.integers(1, 1280 // unit))
    scale = ScaleConfig(strides=strides, gains=(2, 4, 16), image_w=image_w, image_h=image_h)

    def coord(limit):
        # multiples of 4 sit on a grid line or a cell midline at every stride
        on_lines = st.integers(1, limit // 4 - 1).map(lambda k: 4.0 * k)
        anywhere = st.floats(0, limit, exclude_min=True, exclude_max=True)
        return st.one_of(on_lines, anywhere)

    side = st.one_of(
        st.floats(0.01, 8.0),                          # sub-cell at every stride
        st.floats(8.0, 800.0),
        st.integers(1, 64).map(lambda k: 4.0 * k),     # corners on lines and midlines
    )
    box = st.builds(BoundingBox, coord(image_w), coord(image_h), side, side)
    objects = draw(st.lists(st.tuples(box, st.integers(0, 4)), max_size=6))
    thresholds = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from([8.0, 16.0, 32.0, 64.0, 128.0]) | st.floats(1.0, 500.0),
                 min_size=2, max_size=2, unique=True)
        .map(lambda ab: (0.0, *sorted(ab), math.inf)),
    ))
    mode = AssignMode(
        location_strategy=draw(st.sampled_from(LOCATION_STRATEGIES)),
        scale_thresholds=thresholds,
        predictions_per_cell=draw(st.sampled_from([1, 4])),
    )
    return objects, scale, mode


class TestAgainstReference:
    @settings(max_examples=400)
    @given(_assign_cases())
    def test_matches_reference(self, case):
        objects, scale, mode = case
        table = assign(objects, scale, mode)
        got = [
            (r.object_id, r.class_id, r.scale_index, r.cell, r.quadrant,
             tuple(v.hex() for v in (r.target.l, r.target.t, r.target.r, r.target.b)))
            for r in table
        ]
        assert got == reference_assign(objects, scale, mode)
        for r in table:
            assert r.target.scale_index == r.scale_index
            assert all(type(v) is int
                       for v in (r.object_id, r.class_id, r.scale_index, r.quadrant, *r.cell))


def reference_audit(objects, scale):
    """Plain per-object loop that ``center_collision_audit`` must match."""
    report = {}
    corners = [to_corner(box) for box, _ in objects]
    for scale_index, stride in enumerate(scale.strides):
        by_cell = defaultdict(list)
        for object_id, (box, _) in enumerate(objects):
            by_cell[center_cell(box.cx, box.cy, stride)].append(object_id)
        hits = []
        for cell in sorted(by_cell):
            ids = by_cell[cell]
            if len(ids) < 2:
                continue
            overlapping = tuple(
                i for i in ids
                if any(i != j and iou(corners[i], corners[j]) > 0 for j in ids)
            )
            if len(overlapping) >= 2:
                hits.append((cell, overlapping))
        report[scale_index] = hits
    return report


@st.composite
def _audit_cases(draw):
    strides = draw(st.sampled_from([(8, 16, 32), (8, 24, 72)]))
    unit = strides[-1]
    w, h = (unit * draw(st.integers(1, 6)) for _ in range(2))
    scale = ScaleConfig(strides=strides, gains=(2, 4, 16), image_w=w, image_h=h)

    def coord(limit):
        # multiples of 4 sit on a grid line or a cell midline at every stride
        on_lines = st.integers(1, limit // 4 - 1).map(lambda k: 4.0 * k)
        return st.one_of(on_lines, st.floats(0, limit, exclude_min=True, exclude_max=True))

    side = st.one_of(st.integers(1, 32).map(lambda k: 4.0 * k), st.floats(0.5, 200.0))
    box = st.builds(BoundingBox, coord(scale.image_w), coord(scale.image_h), side, side)
    boxes = draw(st.lists(box, max_size=8))
    for b in draw(st.lists(st.sampled_from(boxes), max_size=4)) if boxes else []:
        boxes.append(draw(st.sampled_from([
            b,                                                  # identical
            BoundingBox(b.cx + b.w, b.cy, b.w, b.h),            # touches on the right edge
            BoundingBox(b.cx, b.cy + b.h, b.w, b.h),            # touches on the bottom edge
            BoundingBox(b.x2 + 1.0, b.cy, 1.0, 1.0),            # near, disjoint
        ])))
    order = draw(st.permutations(range(len(boxes))))
    return [(boxes[i], 0) for i in order], scale


class TestAuditAgainstReference:
    @settings(max_examples=400)
    @given(_audit_cases())
    def test_matches_reference(self, case):
        objects, scale = case
        report = center_collision_audit(objects, scale)
        assert report == reference_audit(objects, scale)
        assert all(type(v) is int for hits in report.values() for cell, _ in hits for v in cell)

    def test_touching_identical_and_empty(self, scale):
        a = BoundingBox(100, 100, 8, 8)
        objects = [(a, 0), (BoundingBox(108, 100, 8, 8), 0), (a, 0),
                   (BoundingBox(110, 110, 1, 1), 0)]
        report = center_collision_audit(objects, scale)
        # the touching box (IoU 0) and the disjoint one are left out
        assert report == reference_audit(objects, scale)
        assert report == {0: [((12, 12), (0, 2))], 1: [((6, 6), (0, 2))], 2: [((3, 3), (0, 2))]}
        assert center_collision_audit([], scale) == reference_audit([], scale)
        assert center_collision_audit([], scale) == {0: [], 1: [], 2: []}


def per_scene_assign(scenes, scale, mode):
    """One ``for_image`` and ``assign`` call per scene in turn, object ids
    numbered across the scenes: the loop that ``assign_scenes`` replaces."""
    tables, first = [assign([], scale, mode)], 0   # the columns of no scenes
    for scene in scenes:
        table = assign(list(scene.objects), scale.for_image(scene.image_w, scene.image_h), mode)
        tables.append(AssignmentTable(table.object_id + first,
                                      *(getattr(table, f.name) for f in fields(table)[1:])))
        first += len(scene.objects)
    return AssignmentTable(*(np.concatenate([getattr(t, f.name) for t in tables])
                             for f in fields(AssignmentTable)))


@st.composite
def _scene_cases(draw):
    """Scenes of mixed sizes, some empty; some fail, each in one of the ways
    the per-scene loop can: a size ``for_image`` rejects, a center outside
    the image, or a center-cell distance that rounds to 0."""
    _, scale, mode = draw(_assign_cases())   # strides, strategy, thresholds, quadrants
    unit, fine = scale.strides[-1], scale.strides[0]
    side = st.integers(1, 1280 // unit).map(lambda k: unit * k)
    sizes = draw(st.lists(st.tuples(side, side), min_size=1, max_size=3))   # some shared
    scenes = []
    for i in range(draw(st.sampled_from([3, 2, 4, 1, 5, 0]))):
        w, h = draw(st.sampled_from(sizes))
        # centers on grid lines and midlines too, and boxes wider than the image
        coord = [st.integers(1, n // 4 - 1).map(lambda k: 4.0 * k)
                 | st.floats(0, n, exclude_min=True, exclude_max=True) for n in (w, h)]
        box = st.builds(BoundingBox, *coord, st.floats(0.01, 900.0), st.floats(0.01, 900.0))
        objects = draw(st.lists(st.tuples(box, st.integers(0, 4)), max_size=5))
        fault = draw(st.sampled_from([None] * 16 + ["size", "fraction", "outside", "center_cell"]))
        if fault == "size":
            w += fine // 2
        elif fault == "fraction":
            h += 0.5
        elif fault == "outside":
            cx = draw(st.sampled_from([0.0, -3.0, float(w), w + 9.5, math.nan]))
            objects.insert(draw(st.integers(0, len(objects))), (BoundingBox(cx, 1.0, 2.0, 2.0), 0))
        elif fault == "center_cell" and w > fine:
            # the box's right edge rounds onto its center cell's left side
            cx = float(fine * draw(st.integers(1, w // fine - 1)))
            objects.append((BoundingBox(cx, h / 2, 1e-15, 4.0), 1))
        size = draw(st.sampled_from([(w, h), (float(w), float(h))]))
        scenes.append(Scene(*size, tuple(objects), source_id=str(i)))
    return scenes, scale, mode


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (AssignmentError, CodecError) as exc:
        return type(exc), str(exc)


class TestAssignScenes:
    @settings(max_examples=300)
    @given(_scene_cases())
    def test_equals_per_scene_assign(self, case):
        scenes, scale, mode = case
        want = _outcome(per_scene_assign, scenes, scale, mode)
        got = _outcome(assign_scenes, scenes, scale, mode)
        if isinstance(want, tuple):   # the first scene that fails, with its own error
            assert got == want
            return
        table, offsets = got
        assert offsets.tolist() == [0, *np.cumsum([len(s.objects) for s in scenes]).tolist()]
        for f in fields(AssignmentTable):
            a, b = getattr(table, f.name), getattr(want, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name

    def test_no_objects_give_the_columns_of_the_array_pass(self, scale):
        # with thresholds, assign runs its array pass even on no objects
        full = AssignMode(scale_thresholds=(0, 8, 16, math.inf))
        none, pass_on_none = assign([], scale), assign([], scale, full)
        for f in fields(AssignmentTable):
            got, want = getattr(none, f.name), getattr(pass_on_none, f.name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name

    def test_each_scene_is_clipped_to_its_own_grid(self, scale):
        box = (BoundingBox(318.0, 101.0, 6.0, 6.0), 0)   # past its cell's midlines
        table, offsets = assign_scenes([Scene(640, 640, (box,)), Scene(320, 320, (box,))], scale)
        assert offsets.tolist() == [0, 1, 2]
        small = {(0, (39, 12)), (0, (39, 13)), (1, (19, 6)), (1, (19, 5)), (2, (9, 3)),
                 (2, (9, 2))}
        assert _cells(r for r in table if r.object_id == 1) == small
        assert _cells(r for r in table if r.object_id == 0) == small | {
            (0, (40, 12)), (1, (20, 6)), (2, (10, 3))}

    def test_the_first_failing_scene_raises(self, scale):
        outside = Scene(320, 320, ((BoundingBox(400.0, 10.0, 4.0, 4.0), 0),))
        with pytest.raises(CodecError, match="stride 8 does not divide image size 100x64"):
            assign_scenes([Scene(640, 640, ()), Scene(100, 64, ()), outside], scale)
        with pytest.raises(AssignmentError, match=r"object 0 center .* inside image 320x320"):
            assign_scenes([Scene(640, 640, ()), outside, Scene(100, 64, ())], scale)
