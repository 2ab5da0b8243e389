"""The benchmark harness can still see every layer it traces.

``perfbench/tracing.py`` wraps each (module, function) in ``TARGETS`` and
only logs a name it cannot find, so a renamed or deleted layer would
silently vanish from the per-layer metrics. These checks make it fail here.
"""

import importlib
from pathlib import Path

import pytest

import detbox

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
