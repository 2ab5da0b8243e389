"""COCO ingestion, skip accounting, dataset statistics."""

import json
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detbox import (
    AssignMode,
    BoundingBox,
    CocoFormatError,
    ScaleConfig,
    Scene,
    center_collision_audit,
    dataset_stats,
    load_coco,
)
from detbox.assign import LOCATION_STRATEGIES
from detbox.codec import center_cell
from detbox.geom import overlaps

from conftest import COCO_FIXTURE


@pytest.fixture(scope="module")
def fixture_result():
    return load_coco(COCO_FIXTURE)


class TestLoad:
    def test_every_annotation_converted_or_counted(self, fixture_result):
        res = fixture_result
        assert res.n_annotations == 63
        assert res.n_converted + res.skipped.total == res.n_annotations
        assert res.skipped.nonpositive_size == 2
        assert res.skipped.center_outside == 2
        assert res.skipped.iscrowd == 2

    def test_scene_layout(self, fixture_result):
        scenes = fixture_result.scenes
        assert len(scenes) == 12
        assert [s.source_id for s in scenes] == [str(i) for i in range(1, 13)]
        empty = [s for s in scenes if not s.objects]
        assert [s.source_id for s in empty] == ["11"]

    def test_topleft_to_center_conversion(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 7, "bbox": [80, 50, 40, 20]}
            ],
            "categories": [{"id": 7}],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        res = load_coco(path)
        box, class_id = res.scenes[0].objects[0]
        assert (box.cx, box.cy, box.w, box.h) == (100.0, 60.0, 40.0, 20.0)
        assert class_id == 7

    def test_bbox_xywh_inverse(self):
        box = BoundingBox(100.25, 60.5, 40.0, 21.0)
        assert [box.x1, box.y1, box.w, box.h] == [80.25, 50.0, 40.0, 21.0]


    def test_planted_skips_on_a_generated_document(self, tmp_path):
        rng = np.random.default_rng(7)
        sizes = [(640, 480), (320, 320), (500, 375)]
        images = [{"id": k + 1, "width": sizes[k % 3][0], "height": sizes[k % 3][1]}
                  for k in range(20)]
        planted = {"iscrowd": 0, "nonpositive_size": 0, "center_outside": 0}
        expected = {img["id"]: [] for img in images}
        annotations = []
        for n in range(400):
            img = images[int(rng.integers(len(images)))]
            w, h = rng.uniform(1.0, 100.0, 2).tolist()
            x = float(rng.uniform(0.0, img["width"] - w))
            y = float(rng.uniform(0.0, img["height"] - h))
            cat = int(rng.integers(1, 4))
            ann = {"id": n, "image_id": img["id"], "category_id": cat, "bbox": [x, y, w, h]}
            fault = n % 10
            if fault == 0:
                ann["iscrowd"] = 1
                planted["iscrowd"] += 1
            elif fault in (1, 2):   # zero and NaN sizes are both not positive
                ann["bbox"][fault + 1] = [0.0, float("nan")][fault - 1]
                planted["nonpositive_size"] += 1
            elif fault == 3:
                ann["bbox"][0] = x + img["width"]
                planted["center_outside"] += 1
            elif fault == 4:        # whole-pixel boxes read as floats
                ann["bbox"] = [int(x), int(y), 4, 4]
                expected[img["id"]].append(((int(x) + 2.0, int(y) + 2.0, 4.0, 4.0), cat))
            else:
                expected[img["id"]].append(((x + w / 2, y + h / 2, w, h), cat))
            annotations.append(ann)
        path = tmp_path / "generated.json"
        path.write_text(json.dumps({"images": images, "annotations": annotations,
                                    "categories": [{"id": c} for c in (1, 2, 3)]}))
        res = load_coco(path)
        assert vars(res.skipped) == planted
        assert res.n_annotations == 400 and res.n_converted + res.skipped.total == 400
        assert [s.source_id for s in res.scenes] == [str(img["id"]) for img in images]
        for scene in res.scenes:
            got = [((b.cx, b.cy, b.w, b.h), c) for b, c in scene.objects]
            assert got == expected[int(scene.source_id)]
            assert all(type(v) is float for b, _ in scene.objects for v in (b.cx, b.w))


    def test_integer_ids_sort_before_string_ids(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "images": [{"id": i, "width": 64, "height": 64} for i in ("a", 10, "B", 2, "1")],
            "annotations": [{"id": 1, "image_id": "a", "category_id": 1, "bbox": [1, 1, 2, 2]},
                            {"id": 2, "image_id": 2, "category_id": 1, "bbox": [3, 3, 2, 2]}],
            "categories": [{"id": 1}],
        }))
        res = load_coco(path)
        assert [s.source_id for s in res.scenes] == ["2", "10", "1", "B", "a"]
        assert [len(s.objects) for s in res.scenes] == [1, 0, 0, 0, 1]


class TestMalformed:
    def _write(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(CocoFormatError, match="invalid JSON"):
            load_coco(path)

    def test_missing_images_key(self, tmp_path):
        path = self._write(tmp_path, {"annotations": [], "categories": []})
        with pytest.raises(CocoFormatError, match="images"):
            load_coco(path)

    def test_unknown_image_reference(self, tmp_path):
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 9, "category_id": 1, "bbox": [1, 1, 2, 2]}],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError, match="image_id 9"):
            load_coco(path)

    def test_undeclared_category(self, tmp_path):
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 3, "bbox": [1, 1, 2, 2]}],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError, match="category_id 3"):
            load_coco(path)

    def test_first_fault_wins(self, tmp_path):
        # an unknown image beats a missing category, which beats a missing bbox
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2]},
                            {"id": 2, "image_id": 9}],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError, match="unknown image_id 9"):
            load_coco(path)
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1}],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError,
                           match="missing field 'category_id' in annotation for image 1"):
            load_coco(path)

    @pytest.mark.parametrize("section, field, value, where", [
        ("images", "id", [1], "image"),
        ("images", "id", {"a": 1}, "image"),
        ("annotations", "image_id", [1], "annotation"),
        ("annotations", "image_id", {"a": 1}, "annotation"),
        ("categories", "id", {"a": 1}, "category"),
        ("categories", "id", [1], "category"),
        ("annotations", "category_id", [1], "annotation for image 1"),
        ("annotations", "category_id", {"a": 1}, "annotation for image 1"),
    ])
    def test_id_that_is_a_list_or_object(self, tmp_path, section, field, value, where):
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2]}],
            "categories": [{"id": 1}],
        }
        doc[section][0][field] = value
        with pytest.raises(CocoFormatError) as exc:
            load_coco(self._write(tmp_path, doc))
        assert str(exc.value).endswith(f"field {field!r} in {where} is not an id: {value!r}")

    @pytest.mark.parametrize("section, field, value, where", [
        ("images", "id", True, "image"),
        ("images", "id", 1.0, "image"),
        ("images", "id", None, "image"),
        ("annotations", "image_id", True, "annotation"),
        ("annotations", "image_id", 1.0, "annotation"),
    ])
    def test_image_id_that_would_alias_an_integer(self, tmp_path, section, field, value, where):
        # 1, 1.0 and true are one dict key; the fast path must not take them either
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}, {"id": 2, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2]}],
            "categories": [{"id": 1}],
        }
        doc[section][0][field] = value
        with pytest.raises(CocoFormatError) as exc:
            load_coco(self._write(tmp_path, doc))
        assert str(exc.value).endswith(f"field {field!r} in {where} is not an id: {value!r}")

    @pytest.mark.parametrize("ids", [(1, 1), ("a", "a"), (3, 1, 3)])
    def test_duplicate_image_id(self, tmp_path, ids):
        path = self._write(tmp_path, {
            "images": [{"id": i, "width": 64, "height": 64} for i in ids],
            "annotations": [],
            "categories": [],
        })
        with pytest.raises(CocoFormatError, match=f"duplicate image id {ids[-1]!r}$"):
            load_coco(path)

    @pytest.mark.parametrize("ids", [(1, "1"), ("7", 2, 7)])
    def test_image_ids_that_print_the_same(self, tmp_path, ids):
        # both would become scenes with one source_id, so reports could not tell them apart
        path = self._write(tmp_path, {
            "images": [{"id": i, "width": 64, "height": 64} for i in ids],
            "annotations": [],
            "categories": [],
        })
        match = f"duplicate image id {ids[-1]!r}: image id {ids[0]!r} reads the same$"
        with pytest.raises(CocoFormatError, match=match):
            load_coco(path)

    @pytest.mark.parametrize("section, value", [
        ("images", None), ("annotations", 3), ("categories", {"id": 1}), ("images", "abc"),
    ])
    def test_section_that_is_not_a_list(self, tmp_path, section, value):
        doc = {"images": [], "annotations": [], "categories": []}
        doc[section] = value
        with pytest.raises(CocoFormatError) as exc:
            load_coco(self._write(tmp_path, doc))
        assert str(exc.value).endswith(
            f"field {section!r} in document is not a list: {value!r}")

    @pytest.mark.parametrize("field, text, value", [
        ("width", "1e400", "inf"), ("height", "-1e400", "-inf"), ("width", "NaN", "nan"),
    ])
    def test_image_size_that_is_not_finite(self, tmp_path, field, text, value):
        # json reads each of these as a float, which no pyramid can be sized from
        path = tmp_path / "bad.json"
        image = {"id": 1, "width": 64, "height": 64, field: "SIZE"}
        path.write_text(json.dumps({"images": [image], "annotations": [], "categories": []})
                        .replace('"SIZE"', text))
        with pytest.raises(CocoFormatError) as exc:
            load_coco(path)
        assert str(exc.value).endswith(f"field {field!r} in image 1 is not finite: {value}")

    @pytest.mark.parametrize("section, field, value, where", [
        ("categories", "id", 1.5, "category"),
        ("categories", "id", "1", "category"),
        ("categories", "id", True, "category"),
        ("annotations", "category_id", 1.0, "annotation for image 1"),
        ("annotations", "category_id", True, "annotation for image 1"),
        ("annotations", "category_id", "1", "annotation for image 1"),
    ])
    def test_category_id_that_is_not_an_integer(self, tmp_path, section, field, value, where):
        # 1.0 and true would pass as the declared 1, and 1.5 would become class 1
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2]}],
            "categories": [{"id": 1}],
        }
        doc[section][0][field] = value
        with pytest.raises(CocoFormatError) as exc:
            load_coco(self._write(tmp_path, doc))
        assert str(exc.value).endswith(f"field {field!r} in {where} is not an id: {value!r}")

    @pytest.mark.parametrize("value", [[1], "1", True, None, {"crowd": 1}])
    def test_iscrowd_that_is_not_a_number(self, tmp_path, value):
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2],
                             "iscrowd": value}],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError) as exc:
            load_coco(path)
        assert str(exc.value).endswith(
            f"field 'iscrowd' in annotation for image 1 is not a number: {value!r}")

    @pytest.mark.parametrize("ann, message", [
        ({"image_id": 9, "category_id": 1.0}, "unknown image_id 9"),
        ({"image_id": 1, "category_id": 1.0, "bbox": None}, "is not an id: 1.0"),
        ({"image_id": 1, "category_id": 1, "bbox": [1, 1, 2, None], "iscrowd": "1"},
         "field 'h' in bbox"),
    ])
    def test_new_checks_keep_the_first_fault_first(self, tmp_path, ann, message):
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [ann],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError, match=message):
            load_coco(path)

    def test_list_image_id_after_an_unknown_one(self, tmp_path):
        # the first fault is still the one named
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 9, "category_id": 1, "bbox": [1, 1, 2, 2]},
                            {"id": 2, "image_id": [1], "category_id": 1, "bbox": [1, 1, 2, 2]}],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError, match="unknown image_id 9"):
            load_coco(path)

    @pytest.mark.parametrize("ann", [[1, 1, 2, 2], "image_id", None, 7])
    def test_annotation_that_is_not_an_object(self, tmp_path, ann):
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [ann],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError, match="missing field 'image_id' in annotation$"):
            load_coco(path)

    @pytest.mark.parametrize("bbox", [[1, 1, 2], [1, 1, 2, 2, 3], {"x": 1, "y": 1, "w": 2, "h": 2},
                                      "1122", None])
    def test_bbox_that_is_not_four_entries(self, tmp_path, bbox):
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": bbox}],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError, match=r"bbox must be \[x, y, w, h\]"):
            load_coco(path)

    def test_crowd_bbox_entry_that_is_not_a_number(self, tmp_path):
        # a crowd region is skipped only after its bbox passes the checks
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, None],
                             "iscrowd": 1}],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError, match="field 'h' in bbox of annotation for image 1"):
            load_coco(path)

    def test_category_id_outside_int64_comes_after_every_other_fault(self, tmp_path):
        wide = 2**70
        doc = {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": wide, "bbox": [1, 1, 2, 2]}],
            "categories": [{"id": 1}, {"id": wide}],
        }
        with pytest.raises(CocoFormatError) as exc:
            load_coco(self._write(tmp_path, doc))
        assert str(exc.value) == f"{tmp_path / 'bad.json'}: category id {wide} does not fit in 64 bits"
        # a later annotation's fault of any older kind is still the one named
        doc["annotations"].append({"id": 2, "image_id": 9, "category_id": 1, "bbox": [1, 1, 2, 2]})
        with pytest.raises(CocoFormatError, match="unknown image_id 9"):
            load_coco(self._write(tmp_path, doc))

    def test_bad_bbox_shape(self, tmp_path):
        path = self._write(tmp_path, {
            "images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2]}],
            "categories": [{"id": 1}],
        })
        with pytest.raises(CocoFormatError, match="bbox"):
            load_coco(path)


class TestStats:
    def test_center_mode_counts(self, fixture_result, scale):
        stats = dataset_stats(
            fixture_result.scenes, scale, AssignMode(location_strategy="center")
        )
        assert stats["positives"]["min"] == 3
        assert stats["positives"]["median"] == 3.0
        assert stats["positives"]["max"] == 3
        assert stats["n_objects"] == 57

    def test_engineered_collision_found(self, fixture_result, scale):
        stats = dataset_stats(fixture_result.scenes, scale)
        assert {"scene": "1", "scale": 2, "cell": [3, 3], "objects": [4, 5]} in stats[
            "collisions"
        ]["details"]
        assert stats["collisions"]["per_scale"]["2"] >= 1
        assert stats["collisions"]["total"] == sum(
            stats["collisions"]["per_scale"].values()
        )

    def test_handmade_collision_scene(self, scale):
        scene = Scene(
            image_w=640, image_h=640,
            objects=(
                (BoundingBox(103, 100, 40, 40), 1),
                (BoundingBox(105, 100, 40, 40), 2),
            ),
            source_id="pair",
        )
        stats = dataset_stats([scene], scale)
        assert stats["collisions"]["per_scale"] == {"0": 0, "1": 1, "2": 1}

    def test_stats_json_serializable(self, fixture_result, scale):
        stats = dataset_stats(fixture_result.scenes, scale)
        json.dumps(stats)


def referee_audit(objects, scale):
    """Brute force: each scale's objects grouped by ``center_cell``, and the
    members of a group that share an area with another, by ``overlaps``."""
    corners = [(b.x1, b.y1, b.x2, b.y2) for b, _ in objects]
    report = {}
    for scale_index, stride in enumerate(scale.strides):
        by_cell = defaultdict(list)
        for i, (b, _) in enumerate(objects):
            by_cell[center_cell(b.cx, b.cy, stride)].append(i)
        report[scale_index] = []
        for cell in sorted(by_cell):
            ids = by_cell[cell]
            hit = tuple(i for i in ids if any(i != j and overlaps(corners[i], corners[j])
                                              for j in ids))
            if len(hit) >= 2:
                report[scale_index].append((cell, hit))
    return report


def referee_collisions(scenes, scale):
    """``dataset_stats``' collisions section, from :func:`referee_audit`."""
    per_scale, details = {str(k): 0 for k in range(scale.num_scales)}, []
    for scene in scenes:
        for k, hits in referee_audit(scene.objects, scale).items():
            per_scale[str(k)] += len(hits)
            details += [{"scene": scene.source_id, "scale": k, "cell": list(cell),
                         "objects": list(ids)} for cell, ids in hits]
    return {"per_scale": per_scale, "total": sum(per_scale.values()), "details": details}


@st.composite
def crowded_batches(draw):
    """Scenes of clustered objects: centers within 2 px of a cluster point, many
    on grid lines, so they share a cell at every stride; sides from 0.01 px up."""
    strides = draw(st.sampled_from([(8, 16, 32), (8, 24, 72)]))
    unit = strides[-1]
    scale = ScaleConfig(strides=strides, gains=(2, 4, 16), image_w=unit, image_h=unit)
    scenes = []
    for n in range(draw(st.integers(1, 4))):
        w, h = (unit * draw(st.integers(1, 8)) for _ in range(2))
        objects = []
        for _ in range(draw(st.integers(0, 4))):   # clusters
            # multiples of 4 sit on a grid line or a cell midline at every stride
            x, y = (draw(st.one_of(st.integers(1, side // 4 - 1).map(lambda k: 4.0 * k),
                                   st.floats(1, side - 3)))
                    for side in (w, h))
            for _ in range(draw(st.integers(1, 5))):
                dx, dy = (draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 2)) for _ in "xy")
                bw, bh = (draw(st.sampled_from([0.01, 1.0, 4.0]) | st.floats(0.01, 200))
                          for _ in "wh")
                objects.append((BoundingBox(x + dx, y + dy, bw, bh), 0))
        scenes.append(Scene(w, h, tuple(objects), source_id=f"s{n}"))
    return scenes, scale


class TestAuditHandOff:
    """``dataset_stats`` audits the cells and corners of its assignment pass;
    the brute-force referee and the public audit must agree with it."""

    @settings(max_examples=150)
    @given(case=crowded_batches(), strategy=st.sampled_from(LOCATION_STRATEGIES),
           thresholds=st.sampled_from([None, (0, 24, 96, math.inf)]),
           predictions=st.sampled_from([1, 4]))
    def test_collisions_equal_the_referee(self, case, strategy, thresholds, predictions):
        scenes, scale = case
        mode = AssignMode(strategy, thresholds, predictions)
        stats = dataset_stats(scenes, scale, mode)
        assert stats["collisions"] == referee_collisions(scenes, scale)
        # one all-scenes call is the merge of the one-scene calls
        parts = [dataset_stats([scene], scale, mode) for scene in scenes]
        assert stats["collisions"]["details"] == [d for p in parts
                                                  for d in p["collisions"]["details"]]
        for k in stats["collisions"]["per_scale"]:
            assert stats["collisions"]["per_scale"][k] == sum(
                p["collisions"]["per_scale"][k] for p in parts)
            assert stats["positives"]["per_scale"][k] == sum(
                p["positives"]["per_scale"][k] for p in parts)
        assert stats["positives"]["total"] == sum(p["positives"]["total"] for p in parts)
        for scene in scenes:
            assert center_collision_audit(scene.objects, scale) == referee_audit(scene.objects,
                                                                                 scale)
