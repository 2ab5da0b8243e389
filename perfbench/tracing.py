"""Spans around the calls into each detbox layer, recorded from outside.

``Tracer.install`` wraps each public function named in TARGETS and
rebinds the wrapper wherever a detbox module holds the original, e.g. the
name ``regression_loss_grad`` inside ``detbox.fit``, so calls from one
layer into another are timed without editing the package. A span records
its name, start, end, parent span and operation id; spans stay in memory
(up to a cap, past which only the per-function totals grow) and are
written out when the run ends. A function missing from the package is
logged and skipped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from common import failure_reason

SKIP_REASONS = ("nonpositive_size", "center_outside", "iscrowd")
FAIL_REASONS = ("stride_mismatch", "other")
MAX_SPANS = 200_000     # spans kept in memory; past it only the totals grow


def _decode_grid(agg, args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    agg.add("cells_in", sum(int(np.prod(level.shape[:2])) for level in grid.levels))
    agg.add("dets_out", len(result.detections))
    agg.add("dropped_degenerate", result.dropped_degenerate)


def _nms(agg, args, kwargs, result):
    agg.add("dets_in", len(args[0] if args else kwargs["detections"]))
    agg.add("kept", len(result))


def _rows_of_result(agg, args, kwargs, result):
    agg.add("rows", int(np.size(result)))


def _elements(agg, args, kwargs, result):
    agg.add("elements", int(np.size(result)))


def _loss_rows(agg, args, kwargs, result):
    agg.add("rows", int(np.size(result[0])))


def _assign(agg, args, kwargs, result):
    agg.add("objects_in", len(args[0] if args else kwargs["objects"]))
    agg.add("records_out", len(result))


def _fit_scene(agg, args, kwargs, result):
    agg.add("steps", result.steps)
    agg.add("records", result.n_records)
    agg.add("records_excluded", result.n_records_excluded)


def _gradcheck(agg, args, kwargs, result):
    agg.add("samples", result.n_samples)


def _load_coco(agg, args, kwargs, result):
    agg.add("annotations", result.n_annotations)
    agg.add("converted", result.n_converted)
    for f in dataclasses.fields(result.skipped):
        agg.add(f"skipped.{f.name}", getattr(result.skipped, f.name))


# (defining module, function, counter over a completed call, counter names)
TARGETS = (
    ("infer", "decode_grid", _decode_grid, ("cells_in", "dets_out", "dropped_degenerate")),
    ("infer", "nms", _nms, ("dets_in", "kept")),
    ("geom", "iou", None, ()),
    ("geom", "iou_xyxy", _rows_of_result, ("rows",)),
    ("codec", "decode_distances", _elements, ("elements",)),
    ("codec", "decode_jacobian", _elements, ("elements",)),
    ("codec", "encode", None, ()),
    ("assign", "assign", _assign, ("objects_in", "records_out")),
    ("assign", "center_collision_audit", None, ()),
    ("losses", "regression_loss_grad", _loss_rows, ("rows",)),
    ("losses", "logit_loss_grad", _loss_rows, ("rows",)),
    ("fit", "fit_scene", _fit_scene, ("steps", "records", "records_excluded")),
    ("gradcheck", "run_gradcheck", _gradcheck, ("samples",)),
    ("ingest", "load_coco", _load_coco,
     ("annotations", "converted") + tuple(f"skipped.{r}" for r in SKIP_REASONS)),
    ("ingest", "dataset_stats", None, tuple(f"failed.{r}" for r in FAIL_REASONS)),
)


@dataclasses.dataclass
class Aggregate:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.aggregates: dict[str, Aggregate] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.ops: list[str] = []
        self.log: list[str] = []
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 0
        self._enabled = False
        self._patches: list[tuple] = []

    def begin_op(self, label: str) -> None:
        self.ops.append(label)

    @contextlib.contextmanager
    def paused(self):
        was, self._enabled = self._enabled, False
        try:
            yield
        finally:
            self._enabled = was

    def _wrap(self, qualname: str, fn, counter):
        name_idx = len(self.names)
        self.names.append(qualname)
        agg = self.aggregates.setdefault(qualname, Aggregate())
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError as exc:
                agg.add(f"failed.{failure_reason(exc)}", 1)
                raise
            finally:
                tracer._close(agg, name_idx, span_id, parent, start, frame)
            if counter is not None:
                try:
                    counter(agg, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    tracer._note(f"{qualname}: counters skipped ({exc!r})")
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, agg, name_idx, span_id, parent, start, frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        agg.calls += 1
        agg.busy += duration
        agg.self_time += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name_idx, start, end, parent, len(self.ops) - 1))
        else:
            self.dropped += 1

    def _note(self, message: str) -> None:
        if message not in self.log:
            self.log.append(message)
            print(f"trace: {message}", file=sys.stderr)

    def install(self) -> None:
        """Wrap every target and rebind it in each detbox module holding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "detbox" or n.startswith("detbox."))]
        for module_name, func, counter, _ in TARGETS:
            home = sys.modules.get(f"detbox.{module_name}")
            original = getattr(home, func, None)
            if original is None:
                self._note(f"detbox.{module_name}.{func} not found; not traced")
                continue
            wrapper = self._wrap(f"{module_name}.{func}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        self._enabled = True

    def uninstall(self) -> None:
        self._enabled = False
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def metrics(self, cycles: int) -> dict:
        """Per-layer totals per cycle, named <module>.<function>.<quantity>."""
        out = {}
        for module_name, func, _, counter_names in TARGETS:
            qualname = f"{module_name}.{func}"
            agg = self.aggregates.get(qualname, Aggregate())
            out[f"{qualname}.calls"] = agg.calls / cycles
            out[f"{qualname}.busy_s"] = agg.busy / cycles
            out[f"{qualname}.self_s"] = agg.self_time / cycles
            for key in counter_names:
                out[f"{qualname}.{key}"] = agg.counts.get(key, 0) / cycles
        dg, nms = "infer.decode_grid", "infer.nms"
        out[f"{dg}.pass_ratio"] = _ratio(out[f"{dg}.dets_out"], out[f"{dg}.cells_in"])
        out[f"{nms}.keep_ratio"] = _ratio(out[f"{nms}.kept"], out[f"{nms}.dets_in"])
        return out

    def write(self, path: Path, header: dict) -> None:
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        doc = dict(header)
        doc.update({
            "names": self.names,
            "ops": self.ops,
            "spans": dict(zip(("id", "name", "start", "end", "parent", "op"), map(list, cols))),
            "spans_dropped": self.dropped,
            "log": self.log,
        })
        path.write_text(json.dumps(doc))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
