"""The benchmark harness can still see every layer it traces and read
every record it checks.

``perfbench/tracing.py`` wraps each (module, function) in ``TARGETS`` and
only logs a name it cannot find, so a renamed or deleted layer would
silently vanish from the per-layer metrics. ``perfbench/coco_stats.py``
reads ``len()`` of an assignment and, per record, ``object_id``,
``scale_index`` and ``target.l/t/r/b``. ``perfbench/infer_stream.py``
reads the fields of every decoded row and finds each kept row among them
by ``id()``; ``perfbench/smoke.py`` rebuilds decoded rows with
``dataclasses.replace``. These checks make any such break fail here, and
the benchmark's own referee check runs on a sparse and a crowded image.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import detbox
from detbox import ScaleConfig, assign, dataset_stats, load_coco, nms

from conftest import COCO_FIXTURE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


@pytest.fixture
def infer_stream(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("infer_stream")
    monkeypatch.setattr(module, "POOL", 2)
    return module


def test_every_traced_layer_resolves(tracing):
    missing = [
        f"detbox.{module}.{func}"
        for module, func, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"detbox.{module}"), func, None))
    ]
    assert missing == []


def test_every_export_resolves():
    assert [name for name in detbox.__all__ if not hasattr(detbox, name)] == []


def test_assignment_records_keep_the_fields_coco_stats_reads():
    scenes = [s for s in load_coco(COCO_FIXTURE).scenes if s.objects]
    assert scenes
    for scene in scenes:
        scale = ScaleConfig(image_w=int(scene.image_w), image_h=int(scene.image_h))
        records = assign(list(scene.objects), scale)
        assert len(records) == dataset_stats([scene], ScaleConfig())["positives"]["total"]
        for rec in records:
            box = scene.objects[rec.object_id][0]
            stride = scale.strides[rec.scale_index]
            t = rec.target
            assert abs(t.l + t.r - (box.w / stride + 1)) <= 1e-9
            assert abs(t.t + t.b - (box.h / stride + 1)) <= 1e-9


def test_detection_rows_keep_what_infer_stream_reads(infer_stream):
    stream = infer_stream.InferStream(1, detbox)
    levels = stream.grid(0)
    decoded, kept = stream.infer(levels)
    rows = list(decoded.detections)
    assert len(decoded.detections) == len(rows) > len(kept) > 0
    assert all(decoded.detections[i] is row for i, row in enumerate(rows))
    assert isinstance(kept, detbox.DetectionTable)
    assert {id(k) for k in kept} <= {id(row) for row in rows}
    for d in rows:
        assert all(type(v) is float for v in (d.box.x1, d.box.y1, d.box.x2, d.box.y2,
                                             d.objectness, d.score))
        assert all(type(v) is int for v in (d.class_id, d.scale_index, *d.cell))
    problem, found = stream.check(levels, decoded, kept, 0)
    assert problem is None and found > 0


def test_most_crowded_image_passes_the_referee(monkeypatch):
    # the most crowded image of the seed-1 pool spans several NMS blocks,
    # as the images that set infer-stream's tail latency do
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("infer_stream")
    stream = module.InferStream(1, detbox)
    index = max(range(module.POOL), key=lambda i: len(stream.images[i][1]))
    levels = stream.grid(index)
    decoded, kept = stream.infer(levels)
    per_class = np.bincount(decoded.detections.class_id)
    assert (per_class * (per_class - 1) // 2).max() > detbox.infer.PAIR_CHUNK
    assert isinstance(kept, detbox.DetectionTable)
    problem, found = stream.check(levels, decoded, kept, index)
    assert problem is None and found > 0


def test_decoded_rows_can_be_replaced_as_smoke_plants_faults(infer_stream):
    stream = infer_stream.InferStream(1, detbox)
    decoded = stream.infer(stream.grid(0))[0]
    rows = [dataclasses.replace(d, class_scores=d.class_scores ** 2) for d in decoded.detections]
    replaced = dataclasses.replace(decoded, detections=rows)
    kept = nms(replaced.detections, infer_stream.NMS_IOU)
    assert isinstance(kept, list) and {id(k) for k in kept} <= {id(row) for row in rows}
