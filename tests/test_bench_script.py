"""``bench/layers.py`` runs end to end at a tiny size and writes every key.

Only the shape of its JSON is checked here, never a speed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

sys.path.insert(0, str(ROOT / "bench"))

from layers import sign_test_p  # noqa: E402
from loss_study import GRADCHECK_OPS, KINDS, SAMPLES_PER_KIND, STEPS  # noqa: E402

CASES = {"infer.decode_grid": "cells/s", "infer.e2e.call": "images/s",
         "infer.e2e.read_kept": "images/s", "infer.suppress.30": "detections/s",
         "infer.nms.30": "detections/s", "infer.suppress.60": "detections/s",
         "infer.nms.60": "detections/s",
         **{f"losses.regression_loss_grad.{kind}": "pairs/s"
            for kind in ("sdiou", "mse", "iou", "giou", "diou", "ciou")},
         "gradcheck.run_gradcheck": "samples/s",
         "fit.step": "steps/s", "fit.step.multitask": "steps/s",
         "fit.compare_losses": "steps/s", "fit.compare_losses.100": "scenes/s",
         "ingest.load_coco": "annotations/s", "ingest.dataset_stats": "objects/s",
         "assign.assign": "objects/s",
         "codec.encode_distances": "boxes/s", "codec.decode_distances": "boxes/s"}
FIELDS = {"unit", "work", "min_s", "median_s", "rate_at_min", "rate_at_median"}


def run_bench(tmp_path, *extra):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"), "--images", "2",
                    "--rounds", "2", "--sizes", "30,60", "--output", str(out),
                    *extra],
                   cwd=ROOT, check=True, capture_output=True, timeout=300)
    return json.loads(out.read_text())


def check_checkout(result):
    assert result["src_detbox_lines"] > 0
    layers = result["layers"]
    assert {k: v["unit"] for k, v in layers.items()} == CASES
    for v in layers.values():
        assert set(v) == FIELDS and v["work"] > 0 and 0 < v["min_s"] <= v["median_s"]


def test_writes_every_case_with_the_environment(tmp_path):
    report = run_bench(tmp_path)
    assert {"cpu", "nproc", "python", "numpy", "scipy", "src_detbox_lines"} <= set(
        report["environment"])
    assert report["rounds"] == 2 and report["images"] == 2
    assert list(report["checkouts"]) == ["working tree"]
    assert "working_tree_faster_rounds" not in report
    assert "working_tree_sign_p" not in report
    check_checkout(report["checkouts"]["working tree"])
    layers = report["checkouts"]["working tree"]["layers"]
    assert layers["infer.decode_grid"]["work"] == 2 * (80 * 80 + 40 * 40 + 20 * 20)
    # (scene, kind) steps over loss-study's four kinds: 2 scenes, then 6 in three batches
    assert layers["fit.step"]["work"] == layers["fit.step.multitask"]["work"] == 2 * 4 * STEPS
    assert layers["fit.compare_losses.100"]["work"] == 100
    # both count the objects of the scenes whose size every stride divides
    assert layers["ingest.dataset_stats"]["work"] == layers["assign.assign"]["work"]
    assert layers["fit.compare_losses"]["work"] == 6 * 4 * STEPS
    # loss-study's gradcheck operations: one run_gradcheck call per kind
    assert layers["gradcheck.run_gradcheck"]["work"] == (
        GRADCHECK_OPS * len(KINDS) * SAMPLES_PER_KIND)


def test_compare_times_a_revision_too(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    # more rounds than one of the WORKER_SETS (3) worker pairs serves: 2, 1 and 1
    rounds = 4
    report = run_bench(tmp_path, "--compare", "HEAD", "--rounds", str(rounds))
    assert len(report["checkouts"]) == 2 and report["rounds"] == rounds
    assert set(report["working_tree_faster_rounds"]) == set(CASES)
    assert all(0 <= wins <= rounds for wins in report["working_tree_faster_rounds"].values())
    assert set(report["working_tree_sign_p"]) == set(CASES)
    for key, wins in report["working_tree_faster_rounds"].items():
        assert report["working_tree_sign_p"][key] == sign_test_p(wins, rounds)
    for result in report["checkouts"].values():
        check_checkout(result)


def test_sign_test_p():
    assert sign_test_p(9, 9) == sign_test_p(0, 9) == pytest.approx(0.0039, abs=1e-4)   # 2 / 512
    assert sign_test_p(7, 9) == pytest.approx(0.1797, abs=1e-4)   # 2 * 46 / 512
    assert sign_test_p(2, 4) == sign_test_p(5, 9) == 1.0
