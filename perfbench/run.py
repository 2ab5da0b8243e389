"""detbox benchmark: seeded workloads against the public API of src/detbox.

Run from the repository root:

    python3 perfbench/run.py --workload infer-stream --seed 1 --seconds 20 --trace 0

Each workload replays a fixed pool of seeded operations in cycles until
``--seconds`` of wall time are used, checks every output against the
benchmark's own referees, and prints a readable report followed, as the
last line of standard output, by one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the
per-layer ones, taken from spans around each detbox layer, plus the
tracing overhead. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: the workloads are single
# threaded, and the machine's other core must not be borrowed.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    REFERENCE_S, Recorder, environment, peak_rss_mb, percentile, reference_seconds, tail_level,
)

WORKLOADS = ("infer-stream", "loss-study", "coco-stats")
SETUP_LAUNCHES = 3         # before the measured cycles, and as many after
SETUP_CODE = """
import time
t0 = time.perf_counter()
import detbox
for name in ("ScaleConfig", "AssignMode", "LossConfig", "FitConfig", "SceneSpec"):
    cls = getattr(detbox, name, None)
    if cls is not None:
        cls()
print(time.perf_counter() - t0)
"""
# The import gauge: a fresh interpreter importing numpy and scipy.special,
# fixed work of the same kind as detbox's own import. On a shared host
# set-up times swing by up to 25% from one minute to the next, and the
# gauge swings with them, so each set-up launch is scaled by GAUGE_S over
# the mean time of the gauge launches on either side of it. GAUGE_S is the
# gauge's median time on a 2-vCPU Intel Xeon KVM guest.
GAUGE_CODE = """
import time
t0 = time.perf_counter()
import numpy
import scipy.special
print(time.perf_counter() - t0)
"""
GAUGE_S = 0.33


def measure_setup(root: Path) -> list[tuple[float, float]]:
    """Seconds to import detbox and build its default configs in a fresh
    interpreter, raw and scaled by the import gauge, one pair per launch."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def launch(code: str) -> float:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(done.stdout.split()[-1])

    gauge = launch(GAUGE_CODE)
    times = []
    for _ in range(SETUP_LAUNCHES):
        raw = launch(SETUP_CODE)
        after = launch(GAUGE_CODE)
        times.append((raw, raw * GAUGE_S / ((gauge + after) / 2)))
        gauge = after
    return times


def make_workload(name: str, seed: int, detbox, workdir: Path, tracer):
    if name == "infer-stream":
        from infer_stream import InferStream
        return InferStream(seed, detbox)
    if name == "loss-study":
        from loss_study import LossStudy
        return LossStudy(seed, detbox)
    from coco_stats import CocoStats
    return CocoStats(seed, detbox, workdir, tracer)


def run_cycles(workload, rec: Recorder, deadline: float) -> int:
    """Whole cycles until the deadline passes; always at least one."""
    cycles = 0
    while cycles == 0 or time.perf_counter() < deadline:
        workload.cycle(rec)
        cycles += 1
    return cycles


def end_to_end(workload, rec: Recorder, setup: list[float]) -> dict:
    latencies = rec.latencies()
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (rec.attempted - rec.n_failed) / rec.attempted,
        "work_per_s": rec.rate(workload.rate_prefix),
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "latency_tail_ms": percentile(latencies, tail_level(len(latencies))) * 1e3,
        "quality_frac": workload.quality,
    }


def report_lines(workload, rec: Recorder, values: dict, setup: list[float], cycles: int) -> list[str]:
    """The same run under the metric names a reader of the workload uses."""
    n = len(rec.samples)
    level = tail_level(n)
    each = f"median of {cycles} repeats each"
    rows = [
        ("setup_s", values["setup_s"], "s",
         f"median of {len(setup)} launches, scaled by the import gauge to {GAUGE_S:g} s; "
         f"raw median {statistics.median(raw for raw, _ in setup):.4g} s"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", "benchmark process"),
        ("failed_frac", rec.n_failed / rec.attempted, "frac",
         f"{rec.n_failed} of {rec.attempted} operations; {rec.failed or 'none'}"),
    ]
    p50, tail, rate = values["latency_p50_ms"], values["latency_tail_ms"], values["work_per_s"]
    if workload.name == "infer-stream":
        rows += [
            ("infer_images_per_s", rate, "1/s", f"{n} images, {each}"),
            ("infer_latency_p50_ms", p50, "ms", f"{n} images, {each}"),
            ("infer_latency_tail_ms", tail, "ms", f"p{level:g} of {n} images"),
            ("infer_recall_frac", workload.quality, "frac", "planted objects kept at IoU >= 0.5"),
        ]
    elif workload.name == "loss-study":
        rows += [
            ("gradcheck_samples_per_s", rec.rate("gradcheck"), "1/s", f"{n} operations, {each}"),
            ("gradcheck_op_p50_ms", p50, "ms", f"{n} operations of 4 kinds x 2 samples"),
            ("gradcheck_op_tail_ms", tail, "ms", f"p{level:g} of {n} operations"),
            ("fit_steps_per_s", rate, "1/s", f"{len(workload.batches)} compare_losses calls, {each}"),
            ("fit_iou99_frac", workload.quality, "frac", "objects reaching IoU 0.99 under sdiou"),
        ]
    else:
        rows += [
            ("coco_annotations_per_s", rate, "1/s",
             f"load plus every scene, {each}; annotations of succeeded scenes only"),
            ("coco_scene_p50_ms", p50, "ms", f"{n} succeeded scenes, {each}"),
            ("coco_scene_tail_ms", tail, "ms", f"p{level:g} of {n} succeeded scenes"),
            ("coco_converted_frac", workload.quality, "frac", "annotations converted to objects"),
        ]
    rows.append(("reference_loop_ms", statistics.median(rec.reference) * 1e3, "ms",
                 f"median of {len(rec.reference)} passes; times above are scaled "
                 f"to {REFERENCE_S * 1e3:g} ms"))
    return [f"{name:<26} {value:14.6g} {unit:<5} ({note})" for name, value, unit, note in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "detbox" / "__init__.py").is_file():
        print(f"run.py: no detbox sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    detbox = importlib.import_module("detbox")
    for sub in ("infer", "fit", "gradcheck", "ingest"):
        importlib.import_module(f"detbox.{sub}")

    print("env", json.dumps(environment(root, THREAD_VARS), sort_keys=True))
    # Half the set-up launches run before the workload and half after, so
    # their median spans the machine's pace over the whole run.
    setup = measure_setup(root) if args.trace == 0 else []
    workdir = root / ".bench_work"
    workdir.mkdir(exist_ok=True)

    from tracing import Tracer
    tracer = Tracer() if args.trace else None
    workload = make_workload(args.workload, args.seed, detbox, workdir, tracer)
    try:
        workload.warmup()
        for _ in range(20):
            reference_seconds()
        # Collect the set-up garbage and exempt it from later collections,
        # so the collector's pauses depend on the program's work alone.
        gc.collect()
        gc.freeze()
        rec = Recorder()
        start = time.perf_counter()
        if args.trace == 0:
            cycles = run_cycles(workload, rec, start + args.seconds)
            setup += measure_setup(root)
            values = end_to_end(workload, rec, setup)
            names = spec["end_to_end"]
            for line in report_lines(workload, rec, values, setup, cycles):
                print(line)
        else:
            plain = Recorder()
            run_cycles(workload, plain, start + args.seconds / 3)
            rec.on_begin = tracer.begin_op
            tracer.install()
            try:
                cycles = run_cycles(workload, rec, start + args.seconds)
            finally:
                tracer.uninstall()
            values = tracer.metrics(cycles)
            values["trace.overhead_frac"] = (
                plain.rate(workload.rate_prefix) / rec.rate(workload.rate_prefix) - 1.0
            )
            names = spec["per_layer"]
            tracer.write(workdir / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed, "cycles": cycles})
            print(f"trace: {len(tracer.spans)} spans kept, {tracer.dropped} past the cap, "
                  f"{cycles} traced cycles; per-layer values are per cycle")
            rec.attempted += plain.attempted
            for reason, n in plain.failed.items():
                rec.failed[reason] = rec.failed.get(reason, 0) + n
            rec.mismatches += plain.mismatches
    finally:
        workload.close()

    for problem in rec.mismatches:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {}
    for m in names:
        if m["name"] not in values:
            print(f"run.py: metric {m['name']} not measured; reported as 0", file=sys.stderr)
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    correct = not rec.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.n_failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
