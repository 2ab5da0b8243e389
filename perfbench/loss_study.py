"""loss-study: gradient checks and a loss comparison, as the CLI runs them.

A cycle has two phases. Phase 1 runs ``run_gradcheck`` for sdiou, mse,
giou and ciou (fd step 1e-4 for the overlap kinds, as the CLI documents)
in operations of a few samples per kind; there the loss kernel runs on
single 4-vectors and per-call overhead dominates. Phase 2 runs
``compare_losses`` over the same four kinds at 500 steps on
``generate_scene`` scenes, mostly with one object and a minority with
twenty; there the same kernel runs on record batches.
"""

from __future__ import annotations

import json

import numpy as np

from common import Recorder

KINDS = ("sdiou", "mse", "giou", "ciou")
FD_STEP = {"sdiou": 1e-6, "mse": 1e-6, "giou": 1e-4, "ciou": 1e-4}
GRADCHECK_OPS = 100       # operations per cycle; tail rung p90 leaves 10 beyond
SAMPLES_PER_KIND = 2
# Object counts of the scenes of each compare_losses call: mostly one
# object (the CLI default), a minority about twenty.
SCENE_BATCHES = ((1, 20), (1, 1), (1, 1))
STEPS = 500


class LossStudy:
    name = "loss-study"
    rate_prefix = "fit"

    def __init__(self, seed: int, detbox):
        self.detbox = detbox
        rng = np.random.default_rng([seed, 2])
        self.gradcheck_seeds = [int(s) for s in rng.integers(0, 2**31, size=GRADCHECK_OPS)]
        self.batches = [
            [detbox.generate_scene(detbox.SceneSpec(n_objects=n), int(rng.integers(0, 2**31)))
             for n in batch]
            for batch in SCENE_BATCHES
        ]
        self.tables = {}
        self.quality = None

    def gradcheck(self, seed: int, samples: int = SAMPLES_PER_KIND) -> list:
        run_gradcheck = self.detbox.gradcheck.run_gradcheck
        return [run_gradcheck(kind, samples=samples, seed=seed, h=FD_STEP[kind]) for kind in KINDS]

    def warmup(self) -> None:
        self.gradcheck(self.gradcheck_seeds[0], samples=1)
        self.detbox.fit.compare_losses(self.batches[0][:1], self.detbox.FitConfig(steps=20), KINDS)

    def close(self) -> None:
        pass

    def cycle(self, rec: Recorder) -> None:
        for i, seed in enumerate(self.gradcheck_seeds):
            key = f"gradcheck {i}"
            done = rec.timed(key, lambda: self.gradcheck(seed))
            if done is None:
                continue
            results, elapsed = done
            failed = [r.kind for r in results if not r.passed]
            if failed:
                rec.mismatch(f"gradcheck seed {seed} failed for {failed}")
            else:
                rec.ok(key, elapsed, work=sum(r.n_samples for r in results))

        cfg = self.detbox.FitConfig(steps=STEPS)
        for j, scenes in enumerate(self.batches):
            key = f"fit {j}"
            done = rec.timed(key, lambda: self.detbox.fit.compare_losses(scenes, cfg, KINDS))
            if done is None:
                continue
            rows, elapsed = done
            table = json.dumps(rows, sort_keys=True)
            if self.tables.setdefault(j, table) != table:
                rec.mismatch(f"compare_losses table of batch {j} differs from its first repeat")
            else:
                rec.ok(key, elapsed, work=len(scenes) * len(KINDS) * STEPS, sample=False)
        if self.quality is None and len(self.tables) == len(self.batches):
            rows = [json.loads(t) for t in self.tables.values()]
            sdiou = [r for table in rows for r in table if r["loss"] == "sdiou"]
            self.quality = sum(r["reached_iou99"] for r in sdiou) / sum(r["n_objects"] for r in sdiou)
