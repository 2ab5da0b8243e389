"""COCO ingestion, skip accounting, dataset statistics."""

import json

import numpy as np
import pytest

from detbox import (
    AssignMode,
    BoundingBox,
    CocoFormatError,
    ScaleConfig,
    Scene,
    dataset_stats,
    load_coco,
)
from detbox.ingest import bbox_xywh

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
        assert bbox_xywh(box) == [80.25, 50.0, 40.0, 21.0]


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
