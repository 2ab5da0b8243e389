"""Smoke test of the benchmark at tiny sizes, outside the test suite's timing.

Run from the repository root:

    python3 perfbench/smoke.py

It shrinks every workload's pool, runs each workload once untraced and
once traced, and checks that the result line has exactly the metrics
BENCHMARK.json declares. It then plants a wrong output in each layer the
checks guard and requires the run to report ``correct: false`` and exit
nonzero. Exit code 0 means every step behaved.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import sys
from pathlib import Path

import coco_stats
import infer_stream
import loss_study
import run

TINY = [
    (infer_stream, "POOL", 6),
    (loss_study, "GRADCHECK_OPS", 3),
    (loss_study, "SCENE_BATCHES", ((1, 3),)),
    (loss_study, "STEPS", 60),
    (coco_stats, "IMAGES", 60),
    (run, "SETUP_LAUNCHES", 1),
]


def invoke(workload: str, trace: int = 0) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().splitlines()[-1])


@contextlib.contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def drop_last_kept(nms):
    return lambda dets, thr=0.6: nms(dets, thr)[:-1]


def square_class_scores(decode_grid):
    """A wrong score formula that keeps every box, cell and class."""
    def wrong(*args, **kwargs):
        decoded = decode_grid(*args, **kwargs)
        dets = [dataclasses.replace(d, class_scores=d.class_scores ** 2) for d in decoded.detections]
        return dataclasses.replace(decoded, detections=dets)
    return wrong


def fail_gradcheck(run_gradcheck):
    def wrong(*args, **kwargs):
        return dataclasses.replace(run_gradcheck(*args, **kwargs), worst_rel_err_distance=1.0)
    return wrong


def drift_table(compare_losses):
    calls = []

    def wrong(*args, **kwargs):
        rows = compare_losses(*args, **kwargs)
        calls.append(1)
        rows[0]["mean_final_iou"] += 1e-12 * len(calls)
        return rows
    return wrong


def extra_positive(dataset_stats):
    def wrong(*args, **kwargs):
        stats = dataset_stats(*args, **kwargs)
        stats["positives"]["per_scale"]["0"] += 1
        return stats
    return wrong


def lose_skip(load_coco):
    def wrong(*args, **kwargs):
        loaded = load_coco(*args, **kwargs)
        loaded.skipped.iscrowd -= 1
        return loaded
    return wrong


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for module, name, value in TINY:
        setattr(module, name, value)
    sys.path.insert(0, str(Path.cwd() / "src"))
    fit, gradcheck, infer, ingest = (
        importlib.import_module(f"detbox.{m}") for m in ("fit", "gradcheck", "infer", "ingest")
    )

    problems = []
    for workload in run.WORKLOADS:
        code, result = invoke(workload)
        if code != 0 or not result["correct"] or set(result["metrics"]) != end_to_end:
            problems.append(f"{workload}: clean run gave exit {code}, {result}")
        if any(m["value"] <= 0 for m in result["metrics"].values()):
            problems.append(f"{workload}: an end-to-end metric is not positive: {result}")
    code, result = invoke("coco-stats", trace=1)
    if code != 0 or set(result["metrics"]) != per_layer:
        problems.append(f"coco-stats traced: exit {code}, metrics {sorted(result['metrics'])}")

    plants = [
        ("infer-stream", infer, "nms", drop_last_kept),
        ("infer-stream", infer, "decode_grid", square_class_scores),
        ("loss-study", gradcheck, "run_gradcheck", fail_gradcheck),
        ("loss-study", fit, "compare_losses", drift_table),
        ("coco-stats", ingest, "dataset_stats", extra_positive),
        ("coco-stats", ingest, "load_coco", lose_skip),
    ]
    for workload, module, name, make in plants:
        with patched(module, name, make):
            code, result = invoke(workload)
        fired = code != 0 and not result["correct"] and result["failed"] > 0
        print(f"planted fault in {module.__name__}.{name} on {workload}: "
              f"{'caught' if fired else 'MISSED'} (exit {code})")
        if not fired:
            problems.append(f"{workload}: planted fault in {name} not caught")

    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
