"""The benchmark harness can still see every layer it traces and read
every record it checks.

``perfbench/tracing.py`` wraps each (module, function) in ``TARGETS`` and
only logs a name it cannot find, so a renamed or deleted layer would
silently vanish from the per-layer metrics. ``perfbench/coco_stats.py``
reads ``len()`` of an assignment and, per record, ``object_id``,
``scale_index`` and ``target.l/t/r/b``. These checks make either break
fail here.
"""

import importlib
from pathlib import Path

import pytest

import detbox
from detbox import ScaleConfig, assign, dataset_stats, load_coco

from conftest import COCO_FIXTURE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


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
