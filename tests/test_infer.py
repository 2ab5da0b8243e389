"""Grid decoding, greedy suppression, and the detection wire format."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from detbox import (
    BoundingBox,
    CornerBox,
    Detection,
    DetectionTable,
    PredictionGrid,
    ScaleConfig,
    decode_grid,
    detections_from_jsonl,
    detections_to_jsonl,
    encode,
    infer,
    nms,
)
from detbox.codec import center_cell, decode_distances, encode_logit_array
from detbox.geom import GeometryError, iou, iou_xyxy, to_corner

from conftest import random_box

M = 4  # classes used throughout


def empty_grid(scale: ScaleConfig, m: int = M) -> list:
    return [np.full((*scale.grid_size(i), m + 5), -40.0) for i in range(scale.num_scales)]


def plant(levels, scale, box, scale_index, objectness=9.0, class_id=0):
    cell = center_cell(box.cx, box.cy, scale.strides[scale_index])
    t = encode(box, cell, scale, scale_index)
    levels[scale_index][cell[0], cell[1], :4] = encode_logit_array(
        t.as_array(), scale.gains[scale_index]
    )
    levels[scale_index][cell[0], cell[1], 4] = objectness
    levels[scale_index][cell[0], cell[1], 5 + class_id] = 6.0
    return cell


def make_det(x1, y1, x2, y2, score, class_id, scale_index=0, cell=(-1, -1)):
    scores = np.zeros(M)
    scores[class_id] = 1.0
    return Detection(
        box=CornerBox(x1, y1, x2, y2),
        objectness=score,
        class_scores=scores,
        scale_index=scale_index,
        cell=cell,
    )


class TestDecodeGrid:
    def test_silent_grid_is_empty(self, scale):
        res = decode_grid(PredictionGrid(tuple(empty_grid(scale))), scale)
        assert res.detections == [] and res.dropped_degenerate == 0
        table = res.detections   # empty columns keep their shapes
        assert table.boxes.shape == (0, 4) and table.cell.shape == (0, 2)
        assert table.class_scores.shape == (0, M)
        assert table.objectness.shape == table.scale_index.shape == (0,)
        assert nms(table) == []

    def test_round_trip_to_pixels(self, scale):
        levels = empty_grid(scale)
        box = BoundingBox(241.5, 133.25, 58.0, 37.5)
        plant(levels, scale, box, scale_index=1, class_id=3)
        res = decode_grid(PredictionGrid(tuple(levels)), scale)
        assert len(res.detections) == 1
        det = res.detections[0]
        assert det.class_id == 3
        got = det.box.as_array()
        want = to_corner(box).as_array()
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_two_scales_give_two_candidates(self, scale):
        levels = empty_grid(scale)
        box = BoundingBox(241.5, 133.25, 58.0, 37.5)
        plant(levels, scale, box, scale_index=1)
        plant(levels, scale, box, scale_index=2, objectness=5.0)
        res = decode_grid(PredictionGrid(tuple(levels)), scale)
        assert len(res.detections) == 2
        # sorted by descending objectness
        assert res.detections[0].scale_index == 1
        merged = nms(res.detections)
        assert len(merged) == 1

    def test_degenerate_cells_dropped_and_counted(self, scale):
        levels = empty_grid(scale)
        # distances saturate near zero: l + r < 1 makes the box collapse
        levels[0][4, 4, :4] = -12.0
        levels[0][4, 4, 4] = 9.0
        res = decode_grid(PredictionGrid(tuple(levels)), scale)
        assert res.detections == []
        assert res.dropped_degenerate == 1

    def test_nan_distance_logits_dropped_and_counted(self, scale):
        levels = empty_grid(scale)
        box = BoundingBox(241.5, 133.25, 58.0, 37.5)
        plant(levels, scale, box, scale_index=1, class_id=2)
        levels[0][7, 3, :4] = np.nan
        levels[0][7, 3, 4] = 9.0
        levels[2][5, 6, :4] = [0.0, np.nan, 0.0, 0.0]
        levels[2][5, 6, 4] = 9.0
        res = decode_grid(PredictionGrid(tuple(levels)), scale)
        assert res.dropped_degenerate == 2
        assert [d.class_id for d in res.detections] == [2]
        assert "nan" not in detections_to_jsonl(res.detections)

    def test_nan_class_logit_dropped_and_counted(self, scale):
        levels = empty_grid(scale)
        plant(levels, scale, BoundingBox(241.5, 133.25, 58.0, 37.5), scale_index=1, class_id=2)
        cell = plant(levels, scale, BoundingBox(400.5, 300.25, 40.0, 30.0), scale_index=0)
        levels[0][cell[0], cell[1], 5 + 3] = np.nan
        res = decode_grid(PredictionGrid(tuple(levels)), scale)
        assert res.dropped_degenerate == 1
        assert [d.class_id for d in res.detections] == [2]
        assert "nan" not in detections_to_jsonl(res.detections)

    def test_threshold_filters_low_objectness(self, scale):
        levels = empty_grid(scale)
        box = BoundingBox(100.3, 100.7, 40, 40)
        plant(levels, scale, box, scale_index=0, objectness=-8.0)  # sigma ~ 3e-4
        res = decode_grid(PredictionGrid(tuple(levels)), scale, conf_threshold=0.001)
        assert res.detections == []
        res = decode_grid(PredictionGrid(tuple(levels)), scale, conf_threshold=1e-5)
        assert len(res.detections) == 1

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="at least one level, got none"):
            PredictionGrid(())

    def test_shape_mismatch_rejected(self, scale):
        levels = empty_grid(scale)
        levels[0] = levels[0][:-1]
        with pytest.raises(ValueError, match="level 0"):
            decode_grid(PredictionGrid(tuple(levels)), scale)

    def test_inverse_of_assignment_for_noiseless_logits(self, scale):
        # plant the exact logits of every assignment record; every decoded
        # detection reconstructs the original box, neighbors included
        from detbox import assign

        box = BoundingBox(213.7, 340.2, 80.0, 90.0)
        records = assign([(box, 1)], scale)
        levels = empty_grid(scale)
        for rec in records:
            gain = scale.gains[rec.scale_index]
            arr = levels[rec.scale_index]
            arr[rec.cell[0], rec.cell[1], :4] = encode_logit_array(
                rec.target.as_array(), gain
            )
            arr[rec.cell[0], rec.cell[1], 4] = 7.0
            arr[rec.cell[0], rec.cell[1], 5 + 1] = 5.0
        res = decode_grid(PredictionGrid(tuple(levels)), scale)
        assert len(res.detections) == len(records)
        want = to_corner(box).as_array()
        for det in res.detections:
            np.testing.assert_allclose(det.box.as_array(), want, atol=1e-6)


def reference_nms(dets, threshold):
    """Independent quadratic-time suppressor used as the referee."""
    def key(d):
        return (-d.score, d.scale_index, d.cell[1], d.cell[0], d.class_id)

    def overlap(a, b):
        iw = min(a.box.x2, b.box.x2) - max(a.box.x1, b.box.x1)
        ih = min(a.box.y2, b.box.y2) - max(a.box.y1, b.box.y1)
        if iw <= 0 or ih <= 0:
            return 0.0
        inter = iw * ih
        return inter / (a.box.area + b.box.area - inter)

    kept = []
    for d in sorted(dets, key=key):
        if all(k.class_id != d.class_id or overlap(k, d) <= threshold for k in kept):
            kept.append(d)
    return kept


class TestNms:
    def test_duplicate_same_class(self):
        a = make_det(0, 0, 10, 10, 0.9, class_id=1)
        b = make_det(0, 0, 10, 10, 0.8, class_id=1)
        kept = nms([b, a], 0.6)
        assert kept == [a]

    def test_duplicate_different_class(self):
        a = make_det(0, 0, 10, 10, 0.9, class_id=1)
        b = make_det(0, 0, 10, 10, 0.8, class_id=2)
        assert len(nms([b, a], 0.6)) == 2

    def test_threshold_above_one_keeps_all(self, rng):
        dets = []
        for _ in range(15):
            box = random_box(rng, size_lo=5, size_hi=40, image_w=100, image_h=100)
            dets.append(make_det(box.x1, box.y1, box.x2, box.y2,
                                 float(rng.uniform(0.1, 1)), int(rng.integers(M))))
        assert len(nms(dets, 1.01)) == len(dets)

    def test_matches_reference_on_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 21))
            dets = []
            for _ in range(n):
                box = random_box(rng, size_lo=5, size_hi=120, image_w=300, image_h=300)
                dets.append(
                    make_det(box.x1, box.y1, box.x2, box.y2,
                             float(rng.uniform(0.05, 1.0)), int(rng.integers(3)))
                )
            got = nms(dets, 0.5)
            want = reference_nms(dets, 0.5)
            assert got == want

    def test_output_invariants(self, rng):
        dets = []
        for _ in range(40):
            box = random_box(rng, size_lo=10, size_hi=150, image_w=400, image_h=400)
            dets.append(
                make_det(box.x1, box.y1, box.x2, box.y2,
                         float(rng.uniform(0.05, 1.0)), int(rng.integers(2)))
            )
        kept = nms(dets, 0.6)
        kept_ids = {id(d) for d in kept}
        assert kept_ids <= {id(d) for d in dets}
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= 0.6
        for d in dets:
            if id(d) not in kept_ids:
                assert any(
                    k.class_id == d.class_id and iou(k.box, d.box) > 0.6 and k.score >= d.score
                    for k in kept
                )

    def test_deterministic_tie_break(self):
        # equal scores resolve by (scale, cell_y, cell_x, class)
        a = make_det(0, 0, 10, 10, 0.7, class_id=0, scale_index=1, cell=(3, 2))
        b = make_det(100, 100, 110, 110, 0.7, class_id=0, scale_index=0, cell=(9, 9))
        kept = nms([a, b], 0.6)
        assert kept == [b, a]
        assert nms([b, a], 0.6) == [b, a]


def _one_hot(class_id, n_classes, value):
    scores = np.zeros(n_classes)
    scores[class_id] = value
    return scores


@st.composite
def detection_sets(draw):
    """Small integer boxes (duplicates and zero areas common) with scores,
    scales and cells from small sets, so exact ties in every key occur."""
    n_classes = draw(st.integers(1, 80))
    dets = []
    for _ in range(draw(st.integers(0, 30))):
        x1, y1 = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        w, h = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        class_id = draw(st.integers(0, n_classes - 1))
        # score vectors of unequal lengths, as detections read from JSONL carry
        length = draw(st.sampled_from([n_classes, class_id + 1]))
        dets.append(Detection(
            box=CornerBox(x1, y1, x1 + w, y1 + h),
            objectness=draw(st.sampled_from([0.25, 0.5, 1.0])),
            class_scores=_one_hot(class_id, length, draw(st.sampled_from([0.5, 1.0]))),
            scale_index=draw(st.integers(0, 2)),
            cell=(draw(st.integers(-1, 1)), draw(st.integers(-1, 1))),
        ))
    return dets


@st.composite
def box_rows(draw):
    """One or two rows of boxes along x, of one or two classes, ranked along
    the row, against it or shuffled: a class's later boxes mostly lie past
    the boxes a block keeps, and chains keep most of their boxes. Rows may
    repeat boxes (step 0), and boxes may have zero width."""
    dets = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 25))
        step, width = draw(st.sampled_from([0, 2, 5, 8, 10, 13])), draw(st.sampled_from([0, 4, 10]))
        x0, y = draw(st.integers(0, 30)), draw(st.sampled_from([0, 5, 20]))
        ranks = draw(st.one_of(st.just(range(n)), st.just(range(n)[::-1]),
                               st.permutations(range(n))))
        class_id = draw(st.integers(0, 1))
        dets += [make_det(x0 + step * k, y, x0 + step * k + width, y + 10, 0.9 - 0.01 * r, class_id)
                 for k, r in enumerate(ranks)]
    return dets


THRESHOLDS = [-0.5, 0.0, 0.5, 1.0, 1.01]   # -0.5 suppresses every same-class box after the first


class TestNmsAgainstReference:
    def test_zero_area_box_kept_and_never_suppresses(self):
        flat = make_det(5, 5, 5, 15, 0.9, class_id=1)     # zero width
        box = make_det(0, 0, 10, 10, 0.8, class_id=1)
        line = make_det(0, 5, 10, 5, 0.7, class_id=1)     # zero height
        twin = make_det(5, 5, 5, 15, 0.6, class_id=1)
        dets = [twin, line, box, flat]
        assert nms(dets, 0.0) == [flat, box, line, twin]
        assert nms(dets, 0.0) == reference_nms(dets, 0.0)

    @settings(max_examples=300)
    @given(dets=detection_sets(), threshold=st.sampled_from(THRESHOLDS))
    def test_matches_reference(self, dets, threshold):
        got = nms(dets, threshold)
        want = reference_nms(dets, threshold)
        assert [id(d) for d in got] == [id(d) for d in want]

    @settings(max_examples=300)
    @given(dets=detection_sets(), threshold=st.sampled_from(THRESHOLDS),
           chunk=st.sampled_from([1, 3, 7]))
    def test_matches_reference_in_small_chunks(self, dets, threshold, chunk):
        # blocks of a few boxes: classes run on past a block, and overlap
        # chains inside one take several rounds to resolve
        with mock.patch.object(infer, "PAIR_CHUNK", chunk):
            got = nms(dets, threshold)
        want = reference_nms(dets, threshold)
        assert [id(d) for d in got] == [id(d) for d in want]

    @settings(max_examples=300)
    @given(dets=box_rows(), threshold=st.sampled_from(THRESHOLDS), chunk=st.integers(1, 7))
    def test_matches_reference_on_rows_past_the_kept_extent(self, dets, threshold, chunk):
        # small blocks leave most of a row to the tail step of each block's kept boxes
        with mock.patch.object(infer, "PAIR_CHUNK", chunk):
            got = nms(dets, threshold)
        assert [id(d) for d in got] == [id(d) for d in reference_nms(dets, threshold)]

    @pytest.mark.parametrize("chunk", [1, 3, infer.PAIR_CHUNK])
    def test_nan_threshold_keeps_every_box(self, chunk):
        # no IoU is above NaN; the referee's `<=` would suppress every overlap,
        # so the rank order comes from it at an infinite threshold
        dets = [make_det(3 * k % 20, 0, 3 * k % 20 + 10, 10, 0.9 - 0.01 * k, class_id=k % 2)
                for k in range(30)]
        with mock.patch.object(infer, "PAIR_CHUNK", chunk):
            got = nms(dets, math.nan)
        assert [id(d) for d in got] == [id(d) for d in reference_nms(dets, math.inf)]

    @pytest.mark.parametrize("chunk", [1, 2, infer.PAIR_CHUNK])
    def test_suppressed_box_suppresses_nothing(self, chunk):
        # a chain: each box overlaps its neighbours with IoU 0.54 and the
        # next but one with 0.25. a suppresses b, b would have suppressed
        # c, so c is kept, suppresses d, and so on down the chain.
        chain = [make_det(3 * k, 0, 3 * k + 10, 10, 0.9 - 0.1 * k, class_id=1) for k in range(7)]
        with mock.patch.object(infer, "PAIR_CHUNK", chunk):
            assert nms(chain[::-1], 0.5) == chain[::2]
        assert reference_nms(chain[::-1], 0.5) == chain[::2]

    @pytest.mark.parametrize("chunk", [1, 2, 3, infer.PAIR_CHUNK])
    def test_kept_box_suppresses_far_past_its_block(self, chunk):
        # the first box's twin ranks last in its class, many blocks later
        first = make_det(0, 0, 10, 10, 0.9, class_id=1)
        apart = [make_det(20 * k, 50, 20 * k + 10, 60, 0.8 - 0.01 * k, class_id=1)
                 for k in range(12)]
        others = [make_det(0, 0, 10, 10, 0.85 - 0.01 * k, class_id=c)
                  for k, c in enumerate([0, 2, 2])]
        twin = make_det(0, 0, 10, 10, 0.1, class_id=1)
        dets = [twin, *others, *apart[::-1], first]
        with mock.patch.object(infer, "PAIR_CHUNK", chunk):
            got = nms(dets, 0.5)
        assert twin not in got and got == reference_nms(dets, 0.5)


def greedy_loop_nms(table, threshold):
    """Table indices kept by the plain greedy loop: one pass per class in
    rank order, one iou_xyxy row per kept box against its live successors."""
    score = table.objectness * table.best
    order = np.lexsort((table.class_id, table.cell[:, 0], table.cell[:, 1],
                        table.scale_index, -score))
    kept = []
    for c in np.unique(table.class_id):
        members = order[table.class_id[order] == c]
        alive = np.ones(members.size, dtype=bool)
        for i in range(members.size):
            if alive[i]:
                kept.append(members[i])
                rest = i + 1 + np.flatnonzero(alive[i + 1:])
                overlap = iou_xyxy(table.boxes[members[i]], table.boxes[members[rest]])
                alive[rest[overlap > threshold]] = False
    rank = np.empty(order.size, dtype=int)
    rank[order] = np.arange(order.size)
    return sorted(kept, key=lambda k: rank[k])


def crowded_table(kind, n=5000, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "identical":
        boxes = np.tile([100.0, 120.0, 180.0, 230.0], (n, 1))
    else:
        corner = rng.uniform(0, 600, (n, 2))
        boxes = np.concatenate([corner, corner + rng.uniform(12, 320, (n, 2))], axis=1)
    classes = 80 if kind == "80 classes" else 1
    logits = np.full((n, classes), -np.inf)   # class probabilities 0, and 0.5 or 1 at the class
    logits[np.arange(n), rng.integers(classes, size=n)] = rng.choice([0.0, np.inf], n)
    return DetectionTable(boxes, rng.choice([0.25, 0.5, 0.75, 1.0], n), logits,
                          rng.integers(3, size=n), rng.integers(80, size=(n, 2)),
                          *infer.best_class(logits))


class TestNmsAtScale:
    @pytest.mark.parametrize("kind", ["one class", "identical", "80 classes"])
    def test_5000_detections_in_bounded_memory(self, kind):
        table = crowded_table(kind)
        tracemalloc.start()
        try:
            kept = nms(table, 0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all same-class pairs at once would need gigabytes here
        assert peak < 32 * 2**20
        rows = list(table)
        position = {id(d): i for i, d in enumerate(rows)}
        assert [position[id(d)] for d in kept] == greedy_loop_nms(table, 0.6)
        subset = rows[::5]
        assert [id(d) for d in nms(subset, 0.6)] == [id(d) for d in reference_nms(subset, 0.6)]


SMALL = ScaleConfig(strides=(8, 16), gains=(2.0, 4.0), image_w=32, image_h=32)


def row_by_row_decode(levels, scale, conf_threshold):
    """Decode one confident cell at a time into a :class:`Detection`, as
    ``decode_grid`` built its rows before it filled a table."""
    rows = []
    for k, arr in enumerate(levels):
        stride = scale.strides[k]
        for i, j in zip(*np.nonzero(expit(arr[..., 4]) >= conf_threshold)):
            l, t, r, b = decode_distances(arr[i, j, :4], scale.gains[k])
            x1, y1 = stride * (i + 1.0 - l), stride * (j + 1.0 - t)
            x2, y2 = stride * (i + r), stride * (j + b)
            scores = expit(arr[i, j, 5:])
            if x2 > x1 and y2 > y1 and not np.isnan(scores).any():
                box = CornerBox(float(x1), float(y1), float(x2), float(y2))
                rows.append(Detection(box, float(expit(arr[i, j, 4])), scores, k, (int(i), int(j))))
    rows.sort(key=lambda d: (-d.objectness, d.scale_index, d.cell[1], d.cell[0]))
    return rows


@st.composite
def tied_grids(draw):
    """Logits from small sets, so objectness and class scores tie exactly,
    with NaN class and distance logits, collapsed boxes and empty levels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = []
    for k in range(SMALL.num_scales):
        arr = np.empty((*SMALL.grid_size(k), M + 5))
        arr[..., :4] = rng.choice([-12.0, -1.0, 0.0, 0.5, 1.5, np.nan], size=arr[..., :4].shape,
                                  p=[0.05, 0.2, 0.3, 0.2, 0.2, 0.05])
        arr[..., 4] = rng.choice([-40.0, -3.0, 0.0, 2.0], size=arr.shape[:2])
        if draw(st.booleans()):
            arr[..., 4] = -40.0
        arr[..., 5:] = rng.choice([0.0, 1.0, 2.0, np.nan], size=arr[..., 5:].shape,
                                  p=[0.4, 0.3, 0.28, 0.02])
        levels.append(arr)
    return levels


def expit_boundary(c):
    """The least float o with expit(o) >= c, by bisection over the floats in
    order (expit is monotone); None when no float qualifies."""
    def key(x):
        i = int(np.float64(x).view(np.int64))
        return i if i >= 0 else -(i & (2**63 - 1))

    def value(k):
        return np.int64(k if k >= 0 else -k | -2**63).view(np.float64)

    if not expit(np.inf) >= c:
        return None
    lo, hi = key(-np.inf), key(np.inf)
    if expit(-np.inf) >= c:
        return -np.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if expit(value(mid)) >= c else (mid, hi)
    return value(hi)


def near_floats(x, ulps=3):
    """x and the floats up to ``ulps`` steps either side of it."""
    out, down, up = [x], x, x
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [float(down), float(up)]
    return out


THRESHOLDS = [0.0, 1.0, 1.5, np.nan, -0.5, 0.001, 0.5, 0.999999, 1 - 2**-53, 5e-324, 1e-310]


class TestDecodePrefilter:
    @settings(max_examples=200)
    @given(threshold=st.sampled_from(THRESHOLDS) | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_selects_what_a_full_expit_mask_selects(self, threshold, seed):
        near = {-np.inf, np.inf, np.nan, 0.0, 40.0, -800.0}
        near.update(near_floats(float(logit(threshold))))
        boundary = expit_boundary(threshold)
        if boundary is not None:
            near.update(near_floats(float(boundary)))
        rng = np.random.default_rng(seed)
        levels = []
        for k in range(SMALL.num_scales):
            arr = np.empty((*SMALL.grid_size(k), M + 5))
            arr[..., :4] = rng.choice([-12.0, 0.0, 0.5, 1.5, np.nan], size=arr[..., :4].shape,
                                      p=[0.1, 0.3, 0.3, 0.25, 0.05])
            arr[..., 4] = rng.choice(sorted(near, key=str), size=arr.shape[:2])
            arr[..., 5:] = rng.choice([0.0, 2.0, np.nan], size=arr[..., 5:].shape,
                                      p=[0.5, 0.48, 0.02])
            levels.append(arr)
        res = decode_grid(PredictionGrid(tuple(levels)), SMALL, threshold)
        want = row_by_row_decode(levels, SMALL, threshold)
        passed = sum(int(np.count_nonzero(expit(a[..., 4]) >= threshold)) for a in levels)
        assert [(d.scale_index, d.cell, d.objectness) for d in res.detections] == \
            [(d.scale_index, d.cell, d.objectness) for d in want]
        assert res.dropped_degenerate == passed - len(want)


@st.composite
def gained_grids(draw):
    """SMALL's strides with a different gain per level, over tied_grids' logits."""
    gains = draw(st.lists(st.sampled_from([0.5, 2.0, 3.0, 16.0]), min_size=2, max_size=2,
                          unique=True))
    scale = ScaleConfig(SMALL.strides, tuple(gains), SMALL.image_w, SMALL.image_h)
    return scale, draw(tied_grids())


class TestOnePassDecode:
    @settings(max_examples=200)
    @given(drawn=gained_grids(), threshold=st.sampled_from([0.001, 0.5, 0.9]))
    def test_columns_equal_row_by_row_decoding(self, drawn, threshold):
        scale, levels = drawn
        with mock.patch.object(infer, "decode_distances", wraps=decode_distances) as spy:
            res = decode_grid(PredictionGrid(tuple(levels)), scale, threshold)
        assert spy.call_count == 1
        want = row_by_row_decode(levels, scale, threshold)
        table = res.detections
        columns = {
            "boxes": [(d.box.x1, d.box.y1, d.box.x2, d.box.y2) for d in want],
            "objectness": [d.objectness for d in want],
            "class_scores": [d.class_scores for d in want],
            "scale_index": [d.scale_index for d in want],
            "cell": [d.cell for d in want],
        }
        for name, rows in columns.items():
            got = getattr(table, name)
            ref = np.array(rows, dtype=got.dtype).reshape(got.shape)
            assert got.tobytes() == ref.tobytes(), name
        passed = sum(int(np.count_nonzero(expit(a[..., 4]) >= threshold)) for a in levels)
        assert res.dropped_degenerate == passed - len(want)


class TestRowFastPath:
    def test_rows_equal_rows_from_the_public_constructors(self, scale):
        levels = empty_grid(scale)
        plant(levels, scale, BoundingBox(241.5, 133.25, 58.0, 37.5), scale_index=1, class_id=2)
        plant(levels, scale, BoundingBox(400.5, 300.25, 40.0, 30.0), scale_index=0, class_id=1)
        table = decode_grid(PredictionGrid(tuple(levels)), scale).detections
        assert len(table) == 2
        for i, row in enumerate(table):
            ref = Detection(CornerBox(*table.boxes[i].tolist()), float(table.objectness[i]),
                            table.class_scores[i], int(table.scale_index[i]),
                            tuple(table.cell[i].tolist()))
            assert type(row) is Detection and type(row.box) is CornerBox
            assert row.box == ref.box
            assert [type(v) for v in vars(row.box).values()] == [float] * 4
            got, want = vars(row), vars(ref)
            assert list(got) == list(want)
            for name in ("objectness", "scale_index", "cell"):
                assert got[name] == want[name] and type(got[name]) is type(want[name])
            assert [type(v) for v in row.cell] == [int, int]
            assert np.array_equal(row.class_scores, ref.class_scores)
            squared = dataclasses.replace(row, class_scores=row.class_scores ** 2)
            assert squared.box is row.box
            assert np.array_equal(squared.class_scores, row.class_scores ** 2)

    @pytest.mark.parametrize("bad", [(5.0, 0.0, 3.0, 2.0), (0.0, 4.0, 2.0, 1.0)])
    def test_out_of_order_corners_raise_when_read(self, bad):
        table = DetectionTable(np.array([(0.0, 0.0, 4.0, 4.0), bad]), np.array([0.9, 0.8]),
                               np.ones((2, M)), np.zeros(2, dtype=int),
                               np.zeros((2, 2), dtype=int), *infer.best_class(np.ones((2, M))))
        assert table[0].box == CornerBox(0.0, 0.0, 4.0, 4.0)
        with pytest.raises(GeometryError) as want:
            CornerBox(*bad)
        with pytest.raises(GeometryError) as got:
            table[1]
        assert str(got.value) == str(want.value)


class TestTableAgainstObjects:
    @settings(max_examples=200)
    @given(levels=tied_grids(), threshold=st.sampled_from([0.0, 0.5, 1.01]))
    def test_table_path_equals_object_path(self, levels, threshold):
        decoded = decode_grid(PredictionGrid(tuple(levels)), SMALL)
        by_table = nms(decoded.detections, threshold)
        rows = list(decoded.detections)
        by_list = nms(rows, threshold)
        assert isinstance(by_table, DetectionTable) and isinstance(by_list, list)
        assert [id(d) for d in by_table] == [id(d) for d in by_list]
        assert [id(d) for d in by_table] == [id(d) for d in reference_nms(rows, threshold)]

        want = row_by_row_decode(levels, SMALL, 0.001)
        assert len(rows) == len(want)
        for got, ref in zip(rows, want):
            assert got.box == ref.box and got.objectness == ref.objectness
            assert np.array_equal(got.class_scores, ref.class_scores)
            assert (got.scale_index, got.cell) == (ref.scale_index, ref.cell)


# class logits where expit rounds: saturation at 1.0, underflow to 0.0,
# adjacent floats near 2.5, infinities and NaN
ADVERSARIAL = [37.0, 37.5, 40.0, 709.0, 1e300, -746.0, -800.0, -1e300, np.inf, -np.inf,
               np.nan, 0.0, -0.0, *near_floats(2.5), *near_floats(36.9)]


@st.composite
def adversarial_logits(draw):
    """Class logits on SMALL's grid, drawn from a few values (so exact ties
    are common) mixing ADVERSARIAL ones with any floats."""
    m = draw(st.integers(1, 9))
    pool = draw(st.lists(st.sampled_from(ADVERSARIAL) | st.floats(), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = []
    for k in range(SMALL.num_scales):
        arr = np.full((*SMALL.grid_size(k), m + 5), 0.5)   # every cell a confident box
        arr[..., 4] = 9.0
        arr[..., 5:] = rng.choice(pool, size=arr[..., 5:].shape)
        if draw(st.booleans()):   # a NaN-free level: most rows survive
            arr[..., 5:] = np.where(np.isnan(arr[..., 5:]), -np.inf, arr[..., 5:])
        levels.append(arr)
    return levels


class TestLazyClassScores:
    @settings(max_examples=300)
    @given(levels=adversarial_logits())
    def test_columns_equal_the_full_expit_bit_for_bit(self, levels):
        res = decode_grid(PredictionGrid(tuple(levels)), SMALL)
        table = res.detections
        logits = np.array([levels[k][x, y, 5:] for k, (x, y) in
                           zip(table.scale_index.tolist(), table.cell.tolist())])
        full = expit(logits.reshape(len(table), levels[0].shape[-1] - 5))
        assert not np.isnan(full).any()
        nan_rows = sum(int(np.isnan(a[..., 5:]).any(axis=-1).sum()) for a in levels)
        assert res.dropped_degenerate == nan_rows
        assert len(table) + nan_rows == sum(a[..., 0].size for a in levels)
        assert np.array_equal(table.class_id, full.argmax(axis=1))
        assert table.best.tobytes() == full.max(axis=1).tobytes()
        assert table.class_scores.tobytes() == full.tobytes()
        for row, want in zip(table, full):
            assert row.class_scores.tobytes() == want.tobytes()
            assert row.class_id == int(want.argmax())
            assert row.score == row.objectness * float(want.max())

    @settings(max_examples=300)
    @given(values=st.lists(st.sampled_from(ADVERSARIAL) | st.floats(), min_size=1, max_size=5),
           shape=st.tuples(st.integers(0, 40), st.integers(1, 9)), seed=st.integers(0, 2**32 - 1))
    def test_best_class_is_the_argmax_and_max_of_expit(self, values, shape, seed):
        logits = np.random.default_rng(seed).choice(values, size=shape)
        class_id, best = infer.best_class(logits)
        full = expit(logits)
        assert np.array_equal(class_id, full.argmax(axis=1))
        assert np.array_equal(best, full.max(axis=1), equal_nan=True)
        finite = ~np.isnan(best)
        assert best[finite].tobytes() == full.max(axis=1)[finite].tobytes()

    def test_saturated_logits_below_the_top_win_the_argmax(self):
        logits = np.array([[40.0, 50.0, 38.0], [-800.0, -750.0, -900.0],
                           [2.5, np.nextafter(2.5, 3.0), 0.0], [1.0, 3.0, 3.0]])
        class_id, best = infer.best_class(logits)
        assert class_id.tolist() == [0, 0, 0, 1] == expit(logits).argmax(axis=1).tolist()
        assert best.tolist() == [1.0, 0.0, expit(2.5), expit(3.0)]

    def test_probabilities_are_computed_on_read(self, scale):
        levels = empty_grid(scale)
        plant(levels, scale, BoundingBox(241.5, 133.25, 58.0, 37.5), scale_index=1, class_id=2)
        plant(levels, scale, BoundingBox(400.5, 300.25, 40.0, 30.0), scale_index=0, class_id=1)
        grid = PredictionGrid(tuple(levels))
        with mock.patch("scipy.special.expit", wraps=expit) as spy:
            table = decode_grid(grid, scale).detections
            kept = nms(table)
            # objectness, the distances (in codec), each row's best class and its
            # next best; no row ties
            calls = [c.args[0].shape for c in spy.call_args_list]
            assert calls == [(2,), (2, 4), (2,), (2,), (0, M)]
            assert "class_scores" not in vars(table) and "class_scores" not in vars(kept)
            spy.reset_mock()
            rows = list(kept)
            assert [c.args[0].shape for c in spy.call_args_list] == [(2, M)]
            assert [table[i] for i in range(2)] == rows and spy.call_count == 1
        assert table.class_scores.tobytes() == expit(table.logits).tobytes()


class TestNmsView:
    def decoded(self, scale):
        levels = empty_grid(scale)
        box = BoundingBox(241.5, 133.25, 58.0, 37.5)
        plant(levels, scale, box, scale_index=1, class_id=2)
        plant(levels, scale, box, scale_index=2, objectness=5.0, class_id=2)   # suppressed
        plant(levels, scale, BoundingBox(400.5, 300.25, 40.0, 30.0), scale_index=0, class_id=1)
        plant(levels, scale, BoundingBox(100.5, 500.25, 30.0, 60.0), scale_index=0,
              objectness=4.0, class_id=3)
        return decode_grid(PredictionGrid(tuple(levels)), scale).detections

    def test_rows_are_the_parents_cached_rows(self, scale):
        table = self.decoded(scale)
        kept = nms(table)
        assert isinstance(kept, DetectionTable) and len(table) == 4 and len(kept) == 3
        positions = infer.suppress(table).tolist()
        # read from the view first, then from the parent: the same objects
        rows = list(kept)
        assert all(table[p] is row for p, row in zip(positions, rows))
        assert [id(r) for r in table] == [id(table[i]) for i in range(len(table))]
        for name in ("boxes", "objectness", "logits", "scale_index", "cell", "class_id", "best"):
            assert np.array_equal(getattr(kept, name), getattr(table, name)[positions])

    def test_slicing_indexing_and_equality(self, scale):
        table = self.decoded(scale)
        kept = nms(table)
        rows = list(kept)
        assert kept == rows and kept != rows[:-1] and kept[-1] is rows[-1]
        for part in (slice(None, -1), slice(1, None), slice(None, None, -1), slice(5, 9)):
            assert isinstance(kept[part], DetectionTable)
            assert [id(r) for r in kept[part]] == [id(r) for r in rows[part]]
        with pytest.raises(IndexError):
            kept[3]
        assert list(table[1:3]) == [table[1], table[2]]

    def test_select_on_a_view(self, scale):
        table = self.decoded(scale)
        kept = nms(table)
        rows = list(kept)
        assert list(kept.select([2, 0])) == [rows[2], rows[0]]
        assert list(kept.select(np.array([False, True, True]))) == rows[1:]
        again = kept.select([1]).select([0])
        assert again[0] is rows[1] and again == [rows[1]]

    def test_empty_result(self, scale):
        table = decode_grid(PredictionGrid(tuple(empty_grid(scale))), scale).detections
        kept = nms(table)
        assert isinstance(kept, DetectionTable) and len(kept) == 0 and kept == []
        assert kept[:] == [] and kept.select([]) == [] and list(kept) == []
        assert kept.class_scores.shape == (0, M)

    def test_list_input_gives_a_list_of_its_own_objects(self):
        dets = [make_det(0, 0, 10, 10, 0.8, class_id=1), make_det(0, 0, 10, 10, 0.9, class_id=1),
                make_det(0, 0, 10, 10, 0.7, class_id=2)]
        kept = nms(dets)
        assert type(kept) is list and kept[0] is dets[1] and kept[1] is dets[2]
        assert nms([]) == [] and type(nms([])) is list

    def test_slicing_a_table_read_from_jsonl(self):
        text = "".join('{"x1":0,"y1":0,"x2":%d,"y2":4,"score":0.5,"class":%d,"scale":0}\n'
                       % (k + 1, k) for k in range(3))
        table = detections_from_jsonl(text)
        head = table[0:2]
        assert isinstance(head, DetectionTable) and len(head) == 2
        assert [d.class_id for d in head] == [0, 1] and head[1] is table[1]
        assert detections_to_jsonl(head) == "".join(text.splitlines(keepends=True)[:2])
        assert list(table[::-1]) == [table[2], table[1], table[0]]


class TestWireFormat:
    def test_round_trip(self, rng):
        dets = [
            make_det(1.25, 2.5, 30.75, 44.125, 0.875, class_id=2, scale_index=1),
            make_det(0.1, 0.2, 5.3, 7.9, 0.25, class_id=0, scale_index=0),
        ]
        text = detections_to_jsonl(dets)
        back = detections_from_jsonl(text)
        assert len(back) == 2
        for orig, loaded in zip(dets, back):
            np.testing.assert_allclose(loaded.box.as_array(), orig.box.as_array(), rtol=1e-8)
            assert loaded.class_id == orig.class_id
            assert loaded.scale_index == orig.scale_index
            np.testing.assert_allclose(loaded.score, orig.score, rtol=1e-8)

    def test_header_lines_skipped(self):
        text = '# config: {"seed": 0}\n{"x1":0,"y1":0,"x2":1,"y2":1,"score":0.5,"class":0,"scale":0}\n'
        assert len(detections_from_jsonl(text)) == 1

    def test_bad_line_reports_position(self):
        text = '{"x1":0,"y1":0,"x2":1,"y2":1,"score":0.5,"class":0,"scale":0}\n{"x1":0}\n'
        with pytest.raises(ValueError, match="line 2"):
            detections_from_jsonl(text)

    @pytest.mark.parametrize("line, kind", [("[1, 2]", "list"), ('"x1"', "str"), ("7", "int"),
                                            ("null", "NoneType")])
    def test_line_that_is_not_an_object_is_a_bad_line(self, line, kind):
        good = '{"x1":0,"y1":0,"x2":1,"y2":1,"score":0.5,"class":0,"scale":0}'
        with pytest.raises(ValueError) as info:
            detections_from_jsonl(f"{good}\n{line}\n")
        assert str(info.value) == f"bad detection on line 2: expected a JSON object, got {kind}"

    def test_negative_class_is_a_bad_line(self):
        text = ('{"x1":0,"y1":0,"x2":1,"y2":1,"score":0.5,"class":0,"scale":0}\n'
                '{"x1":0,"y1":0,"x2":1,"y2":1,"score":0.5,"class":-1,"scale":0}\n')
        with pytest.raises(ValueError, match="bad detection on line 2"):
            detections_from_jsonl(text)

    @pytest.mark.parametrize("key,value", [
        ("x1", "NaN"), ("y2", "Infinity"), ("score", "-Infinity"), ("x2", "1e400"),
        ("class", "NaN"), ("scale", "Infinity"), ("x1", "1" + "0" * 400),
        ("x1", '"1"'), ("score", '"0.5"'), ("class", "true"), ("scale", "null"),
        ("y1", "[0]"), ("class", "1" + "0" * 30), ("scale", "-1" + "0" * 30),
    ])
    def test_field_that_is_not_a_finite_number_is_a_bad_line(self, key, value):
        fields = {"x1": "0", "y1": "0", "x2": "1", "y2": "1", "score": "0.5", "class": "0",
                  "scale": "0"}
        good = "{" + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}"
        bad = "{" + ",".join(f'"{k}":{value if k == key else v}' for k, v in fields.items()) + "}"
        with pytest.raises(ValueError, match="bad detection on line 3"):
            detections_from_jsonl(f"# header\n{good}\n{bad}\n{good}\n")

    def test_parses_into_columns_with_one_hot_rows(self):
        text = ('{"x1":0,"y1":1,"x2":2,"y2":3,"score":0.5,"class":2,"scale":1}\n'
                '{"x1":4,"y1":5,"x2":6.5,"y2":7,"score":0.25,"class":1000000,"scale":0}\n')
        table = detections_from_jsonl(text)
        assert isinstance(table, DetectionTable) and table.class_scores is None
        assert table.boxes.tolist() == [[0, 1, 2, 3], [4, 5, 6.5, 7]]
        assert table.objectness.tolist() == [0.5, 0.25] and table.best.tolist() == [1, 1]
        assert table.class_id.tolist() == [2, 1000000] and table.scale_index.tolist() == [1, 0]
        assert table.cell.tolist() == [[-1, -1], [-1, -1]]
        # a row's score vector grows with its own class id only
        assert table[0].class_scores.tolist() == [0.0, 0.0, 1.0]
        assert (table[0].class_id, table[0].score, table[0].cell) == (2, 0.5, (-1, -1))


class TestTableColumns:
    def test_from_rows_reads_each_rows_class_and_best_score(self):
        rows = [make_det(0, 0, 4, 4, 0.5, class_id=3), make_det(1, 1, 5, 5, 0.75, class_id=1),
                Detection(CornerBox(2, 2, 6, 6), 0.9, np.array([0.1, 0.7]), 2, (3, 4))]
        table = DetectionTable.from_rows(rows)
        assert table.class_scores is None
        assert table.class_id.tolist() == [3, 1, 1] and table.best.tolist() == [1, 1, 0.7]
        assert table.cell.tolist() == [[-1, -1], [-1, -1], [3, 4]]
        assert list(table) == rows and all(a is b for a, b in zip(table, rows))

    def test_select_keeps_every_column(self, scale):
        levels = empty_grid(scale)
        plant(levels, scale, BoundingBox(241.5, 133.25, 58.0, 37.5), scale_index=1, class_id=2)
        plant(levels, scale, BoundingBox(400.5, 300.25, 40.0, 30.0), scale_index=0, class_id=1)
        table = decode_grid(PredictionGrid(tuple(levels)), scale).detections
        for index in ([1, 0], np.array([False, True]), []):
            part = table.select(index)
            want = [table[i] for i in np.arange(len(table))[index]]
            assert len(part) == len(want)
            for got, ref in zip(part, want):
                assert got.box == ref.box and got.objectness == ref.objectness
                assert np.array_equal(got.class_scores, ref.class_scores)
                assert (got.class_id, got.scale_index, got.cell) == \
                    (ref.class_id, ref.scale_index, ref.cell)
        assert table.select([]).class_scores.shape == (0, M)
