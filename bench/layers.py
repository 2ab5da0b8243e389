"""Per-layer and end-to-end timings of detbox's inference and loss paths, as JSON.

Run from the repository root:

    python3 bench/layers.py                      # this checkout -> BENCH_1.json
    python3 bench/layers.py --compare HEAD~1     # this checkout and HEAD~1, alternately

Every case runs once per round, and each case reports the min and the
median over rounds of its seconds and of its rate; on a noisy machine the
min is the steadier of the two. The rounds are spread, as evenly as they
divide, over ``WORKER_SETS`` (3) sets of fresh worker processes, one process
per checkout, started one set after the other, so that no one process's
luck of memory layout or cache decides a case. With ``--compare REV`` the
working tree and ``git archive REV`` are the two workers of each set, which
take turns, one round at a time and in ABBA order, so both see the same
swings of the machine, and each case also reports in how many rounds the
working tree was the faster, with the two-sided sign-test p-value of that
count: the chance of a count at least as lopsided if either checkout were
as likely to win each round. The bench code is this checkout's in both.

Cases, keyed like perfbench's spans:

- ``infer.decode_grid``: cells/s over the infer-stream pool of 640x640,
  80-class, 3-level grids (perfbench/infer_stream.py, seed 1);
- ``infer.suppress.N`` and ``infer.nms.N``: detections/s on a table of N
  detections decoded from a seeded dense grid (N = 1000 and 5000);
- ``infer.e2e.call``: images/s for infer-stream's timed call, ``decode_grid``
  then ``nms``, over the pool;
- ``infer.e2e.read_kept``: the same call, then reading every kept row
  (``list(kept)``). That is the cost for a caller that reads rows, where
  ``nms`` may leave the building of its rows to the reader;
- ``losses.regression_loss_grad.<kind>``: pairs/s of one call per kind on
  200 seeded (prediction, truth) rows, drawn as the gradient checker draws
  them;
- ``gradcheck.run_gradcheck``: samples/s of loss-study's gradcheck
  operations at seed 1, each a ``run_gradcheck`` call per loss kind at
  that kind's fd step and loss-study's sample count;
- ``fit.step``: steps/s of the fit loop alone on loss-study's 1+20-object
  batch (perfbench/loss_study.py, seed 1): the seconds of ``fit_scenes`` at
  loss-study's step count minus those at 0 steps, so assignment and setup
  drop out;
- ``fit.step.multitask``: the same with ``multitask=True``, which adds the
  objectness and class terms to every step;
- ``fit.compare_losses``: steps/s of loss-study's timed calls,
  ``compare_losses`` at its step count on its three batches;
- ``fit.compare_losses.100``: scenes/s of one ``compare_losses`` call on
  ``COMPARE_SCENES`` (100) one-object synthetic scenes at seeds 0 to 99, as
  ``detbox compare-losses --scenes 100`` runs it;
- ``ingest.load_coco``: annotations/s of one load of coco-stats' document
  (perfbench/coco_stats.py, seed 1);
- ``ingest.dataset_stats``: objects/s of one ``dataset_stats`` call on
  every scene of that document whose size every stride divides, empty
  ones too, as ``detbox assign-stats`` runs it on a file of such scenes;
- ``assign.assign``: objects/s of one ``assign`` call per scene of that
  document that has objects and a size every stride divides, the array
  pass that ``dataset_stats`` runs on each scene;
- ``codec.encode_distances``: boxes/s of one call per such scene on the
  records ``assign`` makes there, the formula that ``assign`` evaluates;
- ``codec.decode_distances``: boxes/s of one call per such scene on seeded
  logits for those records, with each record's gain.

A fit step is one (scene, kind) step, as loss-study counts its work, over
loss-study's four kinds. Grids and loss inputs are built outside the
timed region. The output holds perfbench's environment block and the
``src/detbox`` line count of each checkout.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:   # single threaded, as perfbench runs
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from common import environment, source_lines  # noqa: E402

CLASSES, STRIDES, GAINS = 80, (8, 16, 32), (2.0, 4.0, 16.0)
LOSS_PAIRS, LOSS_CALLS = 200, 50   # rows per regression_loss_grad call, calls per round
COMPARE_SCENES = 100   # the scene count of ROADMAP aim 1's loss comparison
COMPARE_KEY = f"fit.compare_losses.{COMPARE_SCENES}"
WORKER_SETS = 3   # fresh worker processes per checkout, each serving a share of the rounds


def dense_grid(detbox, n: int, seed: int = 0):
    """A 640x640, 80-class grid with ``n`` confident cells of random boxes and
    classes; every other cell is far below any threshold."""
    rng = np.random.default_rng([seed, n])
    scale = detbox.ScaleConfig(strides=STRIDES, gains=GAINS, image_w=640, image_h=640)
    levels = [np.full((*scale.grid_size(k), CLASSES + 5), -40.0) for k in range(len(STRIDES))]
    starts = np.cumsum([0] + [a.shape[0] * a.shape[1] for a in levels])
    for flat in rng.choice(starts[-1], size=n, replace=False):
        k = int(np.searchsorted(starts, flat, side="right")) - 1
        x, y = divmod(int(flat - starts[k]), levels[k].shape[1])
        cell = levels[k][x, y]
        cell[:4] = rng.normal(1.0, 0.5, 4)
        cell[4] = rng.uniform(-3.0, 3.0)
        cell[5:] = rng.normal(-5.0, 1.5, CLASSES)
        cell[5 + rng.integers(CLASSES)] += 8.0
    return detbox.infer.PredictionGrid(tuple(levels)), scale


class Cases:
    """The inputs of every case, built once; ``round()`` times each case once."""

    def __init__(self, detbox, images: int, sizes: list[int]):
        import coco_stats
        import infer_stream
        import loss_study

        infer_stream.POOL = images
        self.detbox, self.infer = detbox, detbox.infer
        self.stream = infer_stream.InferStream(1, detbox)
        self.conf, self.nms_iou = infer_stream.CONF, infer_stream.NMS_IOU
        self.grids = {n: dense_grid(detbox, n) for n in sizes}
        self.work = {"infer.decode_grid": images * sum(
            int(np.prod(a.shape[:2])) for a in self.stream.grid(0))}
        for n in sizes:   # the few cells that decode to a degenerate box drop out
            self.work[f"infer.suppress.{n}"] = self.work[f"infer.nms.{n}"] = len(self.decode(n))
        self.work["infer.e2e.call"] = self.work["infer.e2e.read_kept"] = images
        self.units = {key: "detections/s" for key in self.work}
        self.units["infer.decode_grid"] = "cells/s"
        self.units["infer.e2e.call"] = self.units["infer.e2e.read_kept"] = "images/s"

        rng = np.random.default_rng(1)
        pairs = [detbox.gradcheck.sample_pair(rng, detbox.ScaleConfig()) for _ in range(LOSS_PAIRS)]
        self.pred, self.truth = (np.array(rows) for rows in list(zip(*pairs))[:2])
        self.study = loss_study.LossStudy(1, detbox)
        self.kinds, self.batches = loss_study.KINDS, self.study.batches
        self.work["gradcheck.run_gradcheck"] = (len(self.study.gradcheck_seeds) * len(self.kinds)
                                                * loss_study.SAMPLES_PER_KIND)
        self.units["gradcheck.run_gradcheck"] = "samples/s"
        steps = loss_study.STEPS
        self.configs = {multitask: [detbox.FitConfig(steps=n, multitask=multitask)
                                    for n in (steps, 0)] for multitask in (False, True)}
        self.compare_scenes = [detbox.generate_scene(detbox.SceneSpec(), i)
                               for i in range(COMPARE_SCENES)]
        for kind in detbox.losses.LOSS_KINDS:
            self.work[f"losses.regression_loss_grad.{kind}"] = LOSS_CALLS * LOSS_PAIRS
            self.units[f"losses.regression_loss_grad.{kind}"] = "pairs/s"
        for key in ("fit.step", "fit.step.multitask"):
            self.work[key] = len(self.batches[0]) * len(self.kinds) * steps
        self.work["fit.compare_losses"] = sum(map(len, self.batches)) * len(self.kinds) * steps
        for key in ("fit.step", "fit.step.multitask", "fit.compare_losses"):
            self.units[key] = "steps/s"
        self.work[COMPARE_KEY], self.units[COMPARE_KEY] = COMPARE_SCENES, "scenes/s"

        self.coco_dir = tempfile.TemporaryDirectory()
        self.coco_path = coco_stats.CocoStats(1, detbox, Path(self.coco_dir.name)).path
        loaded = detbox.ingest.load_coco(self.coco_path)
        # the inputs of dataset_stats, assign, encode_distances and decode_distances
        self.sized, self.scenes, self.encode_rows, self.decode_rows = [], [], [], []
        for scene in loaded.scenes:
            try:
                scale = detbox.ScaleConfig().for_image(scene.image_w, scene.image_h)
            except detbox.CodecError:   # a size no stride divides fails the scene
                continue
            self.sized.append(scene)
            if objects := list(scene.objects):
                table = detbox.assign(objects, scale)
                corners = np.array([[b.x1, b.y1, b.x2, b.y2] for b, _ in objects])
                self.scenes.append((objects, scale))
                self.encode_rows.append((corners[table.object_id], table.cell,
                                         np.asarray(scale.strides)[table.scale_index]))
                self.decode_rows.append((rng.normal(size=(len(table), 4)),
                                         np.asarray(scale.gains)[table.scale_index, None]))
        for key, work, unit in (
                ("ingest.load_coco", loaded.n_annotations, "annotations/s"),
                ("ingest.dataset_stats", sum(len(s.objects) for s in self.sized), "objects/s"),
                ("assign.assign", sum(len(objects) for objects, _ in self.scenes), "objects/s"),
                ("codec.encode_distances", sum(len(rows[0]) for rows in self.encode_rows),
                 "boxes/s"),
                ("codec.decode_distances", sum(len(rows[0]) for rows in self.decode_rows),
                 "boxes/s")):
            self.work[key], self.units[key] = work, unit
        self.round()   # warm up

    def close(self) -> None:
        self.coco_dir.cleanup()

    def decode(self, n: int):
        return self.infer.decode_grid(*self.grids[n], self.conf).detections

    def round(self) -> dict[str, float]:
        infer, seconds = self.infer, dict.fromkeys(self.work, 0.0)
        gc.collect()
        for index in range(len(self.stream.images)):
            # each call gets a grid just built, as infer-stream's timed call does
            grid = infer.PredictionGrid(tuple(self.stream.grid(index)))
            t0 = time.perf_counter()
            decoded = infer.decode_grid(grid, self.stream.scale, self.conf)
            t1 = time.perf_counter()
            infer.nms(decoded.detections, self.nms_iou)
            t2 = time.perf_counter()
            grid = infer.PredictionGrid(tuple(self.stream.grid(index)))
            t3 = time.perf_counter()
            decoded = infer.decode_grid(grid, self.stream.scale, self.conf)
            list(infer.nms(decoded.detections, self.nms_iou))
            seconds["infer.e2e.read_kept"] += time.perf_counter() - t3
            seconds["infer.decode_grid"] += t1 - t0
            seconds["infer.e2e.call"] += t2 - t0
        for n in self.grids:
            table = self.decode(n)   # fresh rows for each timed nms
            t0 = time.perf_counter()
            infer.suppress(table, self.nms_iou)
            t1 = time.perf_counter()
            infer.nms(table, self.nms_iou)
            seconds[f"infer.suppress.{n}"] = t1 - t0
            seconds[f"infer.nms.{n}"] = time.perf_counter() - t1

        losses, fit = self.detbox.losses, self.detbox.fit
        for kind in losses.LOSS_KINDS:
            t0 = time.perf_counter()
            for _ in range(LOSS_CALLS):
                losses.regression_loss_grad(self.pred, self.truth, kind)
            seconds[f"losses.regression_loss_grad.{kind}"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        for seed in self.study.gradcheck_seeds:
            self.study.gradcheck(seed)
        seconds["gradcheck.run_gradcheck"] = time.perf_counter() - t0
        for multitask, key in ((False, "fit.step"), (True, "fit.step.multitask")):
            for cfg, sign in zip(self.configs[multitask], (1.0, -1.0)):   # steps, less setup
                t0 = time.perf_counter()
                fit.fit_scenes(self.batches[0], cfg, self.kinds)
                seconds[key] += sign * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        for scenes in self.batches:
            fit.compare_losses(scenes, self.configs[False][0], self.kinds)
        t1 = time.perf_counter()
        fit.compare_losses(self.compare_scenes, self.configs[False][0], self.kinds)
        seconds["fit.compare_losses"] = t1 - t0
        seconds[COMPARE_KEY] = time.perf_counter() - t1

        t0 = time.perf_counter()
        self.detbox.ingest.load_coco(self.coco_path)
        t1 = time.perf_counter()
        self.detbox.ingest.dataset_stats(self.sized, self.detbox.ScaleConfig())
        t2 = time.perf_counter()
        for objects, scale in self.scenes:
            self.detbox.assign(objects, scale)
        t3 = time.perf_counter()
        for rows in self.encode_rows:
            self.detbox.codec.encode_distances(*rows)
        t4 = time.perf_counter()
        for rows in self.decode_rows:
            self.detbox.codec.decode_distances(*rows)
        seconds["ingest.load_coco"], seconds["ingest.dataset_stats"] = t1 - t0, t2 - t1
        seconds["assign.assign"], seconds["codec.encode_distances"] = t3 - t2, t4 - t3
        seconds["codec.decode_distances"] = time.perf_counter() - t4
        return seconds


def worker(src: Path, images: int, sizes: list[int]) -> int:
    """Serve rounds over stdin/stdout: one line in, one JSON line out."""
    sys.path.insert(0, str(src))
    import detbox
    import detbox.gradcheck  # noqa: F401   (the loss and gradcheck cases use it)

    cases = Cases(detbox, images, sizes)
    try:
        print(json.dumps({"work": cases.work, "units": cases.units}), flush=True)
        for _ in sys.stdin:
            print(json.dumps(cases.round()), flush=True)
    finally:
        cases.close()
    return 0


def sign_test_p(wins: int, rounds: int) -> float:
    """Two-sided sign-test p-value of ``wins`` in ``rounds`` fair coin flips."""
    tail = sum(math.comb(rounds, k) for k in range(min(wins, rounds - wins) + 1))
    return min(1.0, 2 * tail / 2**rounds)


def summary(work: dict, units: dict, rounds: list[dict]) -> dict:
    out = {}
    for key in work:
        times = [r[key] for r in rounds]
        out[key] = {"unit": units[key], "work": work[key],
                    "min_s": min(times), "median_s": statistics.median(times),
                    "rate_at_min": work[key] / min(times),
                    "rate_at_median": work[key] / statistics.median(times)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="REV", help="also time this git revision")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--images", type=int, default=200, help="infer-stream pool size")
    parser.add_argument("--sizes", default="1000,5000", help="table sizes for suppress and nms")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_1.json")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.sizes.split(",")]
    if args.worker:
        return worker(args.worker, args.images, sizes)

    with tempfile.TemporaryDirectory() as scratch:
        checkouts = {"working tree": ROOT}
        if args.compare:
            rev = subprocess.run(["git", "rev-parse", "--short", args.compare], cwd=ROOT,
                                 capture_output=True, text=True, check=True).stdout.strip()
            archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", scratch], input=archive, check=True)
            checkouts[rev] = Path(scratch)
        rounds = {name: [] for name in checkouts}
        for k in range(WORKER_SETS):
            share = range(args.rounds)[k::WORKER_SETS]   # global round indexes of this set
            if not share:
                break
            workers = {name: subprocess.Popen(
                [sys.executable, __file__, "--worker", str(root / "src"), "--images",
                 str(args.images), "--sizes", args.sizes],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                for name, root in checkouts.items()}
            try:
                heads = {name: json.loads(w.stdout.readline()) for name, w in workers.items()}
                for r in share:
                    for name in list(workers)[::1 if r % 2 == 0 else -1]:   # ABBA order
                        workers[name].stdin.write("round\n")
                        workers[name].stdin.flush()
                        rounds[name].append(json.loads(workers[name].stdout.readline()))
            finally:
                for w in workers.values():
                    w.stdin.close()
                    w.wait()
        results = {name: {"src_detbox_lines": source_lines(root),
                          "layers": summary(heads[name]["work"], heads[name]["units"],
                                            rounds[name])}
                   for name, root in checkouts.items()}
    report = {"environment": environment(ROOT, THREAD_VARS), "rounds": args.rounds,
              "images": args.images, "checkouts": results}
    if args.compare:   # rounds are paired: each ran next to the other checkout's
        mine, theirs = rounds.values()
        wins = {key: sum(a[key] < b[key] for a, b in zip(mine, theirs)) for key in mine[0]}
        report["working_tree_faster_rounds"] = wins
        report["working_tree_sign_p"] = {k: sign_test_p(w, args.rounds) for k, w in wins.items()}
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, result in results.items():
        print(f"{name} ({result['src_detbox_lines']} lines in src/detbox)")
        for key, v in result["layers"].items():
            print(f"  {key:34s} {v['rate_at_min']:12.5g} {v['unit']:13s} "
                  f"min {v['min_s'] * 1e3:9.2f} ms  median {v['median_s'] * 1e3:9.2f} ms")
    for key, wins in report.get("working_tree_faster_rounds", {}).items():
        print(f"working tree faster in {wins} of {args.rounds} rounds "
              f"(sign test p = {report['working_tree_sign_p'][key]:.4f}): {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
