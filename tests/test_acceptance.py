"""End-to-end acceptance checks.

One test per criterion, each printing a single pass line with its measured
numbers. Run with ``pytest tests/test_acceptance.py -v -s`` to see them.
Every tolerance and budget is pinned here, not configurable.
"""

import json
import math
import time

import numpy as np

from detbox import (
    AssignMode,
    BoundingBox,
    FitConfig,
    ScaleConfig,
    SceneSpec,
    apply_scale_constraints,
    assign,
    center_cell,
    dataset_stats,
    encode,
    fit_scenes,
    generate_scene,
    load_coco,
    sdiou_loss,
)
from detbox.cli import main
from detbox.codec import decode_distances, encode_logit_array
from detbox.gradcheck import run_gradcheck

from conftest import COCO_FIXTURE, random_box
from test_infer import make_det, reference_nms


def _report(name, elapsed, budget, detail=""):
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeds {budget}s budget"
    print(f"PASS {name}: {detail} [{elapsed:.2f}s < {budget}s]")


def test_criterion_01_encoding_identities():
    """Sum identities within 1e-9 and positivity over 10,000 boxes x 3 scales."""
    t0 = time.time()
    scale = ScaleConfig()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        box = random_box(rng)
        for i, s in enumerate(scale.strides):
            t = encode(box, center_cell(box.cx, box.cy, s), scale, i)
            worst = max(
                worst,
                abs((t.l + t.r) - (box.w / s + 1)),
                abs((t.t + t.b) - (box.h / s + 1)),
            )
            assert min(t.l, t.t, t.r, t.b) > 0.0
    assert worst < 1e-9
    _report("criterion 1 (encoding identities)", time.time() - t0, 5.0,
            f"worst identity error {worst:.2e}")


def test_criterion_02_decode_round_trip():
    """decode_distances(encode_logit_array(d)) within 1e-9 over 1,000 targets per scale."""
    t0 = time.time()
    scale = ScaleConfig()
    rng = np.random.default_rng(102)
    worst = 0.0
    for g in scale.gains:
        d = rng.uniform(1e-6, 4 * g - 1e-6, size=(1000, 4))
        back = decode_distances(encode_logit_array(d, g), g)
        worst = max(worst, float(np.max(np.abs(back - d))))
    assert worst < 1e-9
    _report("criterion 2 (decode round-trip)", time.time() - t0, 1.0,
            f"worst round-trip error {worst:.2e}")


def test_criterion_03_sdiou_fixed_points():
    """loss(t, t) == 0 exactly; any perturbation >= 1e-6 is punished."""
    t0 = time.time()
    rng = np.random.default_rng(103)
    scale = ScaleConfig()
    for _ in range(1000):
        i = int(rng.integers(3))
        s, g = scale.strides[i], scale.gains[i]
        box = random_box(rng, size_lo=2.0, size_hi=min(500.0, 3.0 * g * s))
        t = encode(box, center_cell(box.cx, box.cy, s), scale, i).as_array()
        assert float(sdiou_loss(t, t)) == 0.0
        k = int(rng.integers(4))
        eps = float(rng.uniform(1e-6, 1e-2)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        p = t.copy()
        p[k] = max(p[k] + eps, 1e-9)
        if p[k] != t[k]:
            assert float(sdiou_loss(p, t)) > 0.0
    _report("criterion 3 (fixed points)", time.time() - t0, 1.0,
            "1000 identities exact, perturbations punished")


def test_criterion_04_gradient_suite():
    """Analytic vs central differences (h=1e-6), rel err < 1e-5, 1000 pairs."""
    t0 = time.time()
    result = run_gradcheck(kind="sdiou", samples=1000, seed=104, h=1e-6, tolerance=1e-5)
    assert result.worst_rel_err_distance < 1e-5
    assert result.worst_rel_err_logit < 1e-5
    _report(
        "criterion 4 (gradient suite)", time.time() - t0, 10.0,
        f"worst rel err distance {result.worst_rel_err_distance:.2e}, "
        f"logit-chained {result.worst_rel_err_logit:.2e}",
    )


def test_criterion_05_fitting_convergence():
    """100 seeded scenes: IoU > 0.99 on >= 95; sdiou medians beat giou's."""
    t0 = time.time()
    spec = SceneSpec()
    scenes = [generate_scene(spec, seed=i) for i in range(100)]
    by_kind = fit_scenes(scenes, FitConfig(steps=500, learning_rate=0.1), ("sdiou", "giou"))
    results = {}
    for kind, reports in zip(("sdiou", "giou"), by_kind):
        finals = [float(report.final_iou[0]) for report in reports]
        steps90 = [report.steps_to_iou90[0] for report in reports]
        results[kind] = (finals, steps90)

    n_converged = sum(v > 0.99 for v in results["sdiou"][0])
    assert n_converged >= 95

    def median(values):
        vals = sorted(math.inf if v is None else v for v in values)
        mid = len(vals) // 2
        return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2

    med_sdiou = median(results["sdiou"][1])
    med_giou = median(results["giou"][1])
    assert med_sdiou <= med_giou
    _report(
        "criterion 5 (fitting convergence)", time.time() - t0, 60.0,
        f"{n_converged}/100 above 0.99; median steps-to-0.9 "
        f"sdiou {med_sdiou} <= giou {med_giou}",
    )


def test_criterion_06_nms_oracle_equivalence(tmp_path):
    """Greedy NMS equals the brute-force referee; defaults echoed by the CLI."""
    t0 = time.time()
    rng = np.random.default_rng(106)
    from detbox import nms

    for _ in range(200):
        n = int(rng.integers(1, 21))
        dets = []
        for _ in range(n):
            box = random_box(rng, size_lo=5, size_hi=120, image_w=320, image_h=320)
            dets.append(
                make_det(box.x1, box.y1, box.x2, box.y2,
                         float(rng.uniform(0.05, 1.0)), int(rng.integers(3)))
            )
        assert nms(dets, 0.6) == reference_nms(dets, 0.6)

    src = tmp_path / "dets.jsonl"
    src.write_text('{"x1":0,"y1":0,"x2":9,"y2":9,"score":0.5,"class":0,"scale":0}\n')
    out = tmp_path / "kept.jsonl"
    assert main(["nms", "--detections", str(src), "--output", str(out)]) == 0
    config = json.loads(out.read_text().splitlines()[0][len("# config: "):])
    assert config["conf_threshold"] == 0.001
    assert config["nms_threshold"] == 0.6
    _report("criterion 6 (nms equivalence)", time.time() - t0, 5.0,
            "200 instances identical; defaults 0.001/0.6 echoed")


def test_criterion_07_size_independent_assignment():
    """Scaling about a fixed center never changes counts or cells."""
    t0 = time.time()
    scale = ScaleConfig()
    rng = np.random.default_rng(107)
    for _ in range(1000):
        box = random_box(rng, size_lo=4.0, size_hi=200.0)
        variants = [
            assign([(BoundingBox(box.cx, box.cy, k * box.w, k * box.h), 0)], scale)
            for k in (0.5, 1.0, 2.0, 4.0)
        ]
        cells = [{(r.scale_index, r.cell) for r in recs} for recs in variants]
        counts = [len(recs) for recs in variants]
        assert len(set(counts)) == 1
        assert all(c == cells[0] for c in cells[1:])
    _report("criterion 7 (size independence)", time.time() - t0, 5.0,
            "1000 boxes x 4 scale factors, identical cells")


def test_criterion_08_scale_constraint_ablation():
    """Threshold brackets filter a fixed size ladder exactly as stated."""
    t0 = time.time()
    scale = ScaleConfig(image_w=1280, image_h=1280)
    sizes = (10, 40, 100, 300)
    expected = {
        (0, 32, 64, math.inf): {10: {0}, 40: {1}, 100: {2}, 300: {2}},
        (0, 64, 128, math.inf): {10: {0}, 40: {0}, 100: {1}, 300: {2}},
        (0, 128, 256, math.inf): {10: {0}, 40: {0}, 100: {0}, 300: {2}},
        (0, 256, 512, math.inf): {10: {0}, 40: {0}, 100: {0}, 300: {1}},
    }
    for thresholds, by_size in expected.items():
        for size in sizes:
            records = assign(
                [(BoundingBox(640.3, 639.7, size, size), 0)], scale,
                AssignMode(location_strategy="center"),
            )
            kept = apply_scale_constraints(records, thresholds, scale)
            assert {r.scale_index for r in kept} == by_size[size], (thresholds, size)
    _report("criterion 8 (scale-constraint filter)", time.time() - t0, 1.0,
            "4 threshold sets x 4 sizes match the hand-derived table")


def test_criterion_09_coco_ingestion():
    """Fixture accounting, statistics, and bbox round-trip within 1e-9."""
    t0 = time.time()
    result = load_coco(COCO_FIXTURE)
    assert result.n_converted + result.skipped.total == result.n_annotations == 63

    stats = dataset_stats(result.scenes, ScaleConfig())
    collisions = stats["collisions"]["per_scale"]
    assert stats["collisions"]["total"] == sum(collisions.values())
    assert collisions["2"] >= 1  # engineered overlapping pair shares a cell

    original = json.loads(COCO_FIXTURE.read_text())
    by_image = {}
    for ann in original["annotations"]:
        by_image.setdefault(ann["image_id"], []).append(ann["bbox"])
    matched = 0
    for scene in result.scenes:
        pool = by_image.get(int(scene.source_id), [])
        for box, _ in scene.objects:
            out = [box.x1, box.y1, box.w, box.h]   # COCO's top-left form
            err, idx = min(
                (max(abs(a - b) for a, b in zip(pool[i], out)), i)
                for i in range(len(pool))
            )
            assert err < 1e-9
            pool.pop(idx)
            matched += 1
    assert matched == result.n_converted
    _report("criterion 9 (coco ingestion)", time.time() - t0, 2.0,
            f"{result.n_converted} converted + {result.skipped.total} skipped, "
            f"collisions {collisions}")


def test_criterion_10_cli_determinism(tmp_path):
    """Every subcommand rerun with identical flags gives identical bytes."""
    t0 = time.time()
    dets = tmp_path / "dets.jsonl"
    dets.write_text(
        '{"x1":0,"y1":0,"x2":10,"y2":10,"score":0.9,"class":1,"scale":0}\n'
        '{"x1":1,"y1":0,"x2":11,"y2":10,"score":0.8,"class":1,"scale":0}\n'
        '{"x1":40,"y1":40,"x2":60,"y2":55,"score":0.7,"class":0,"scale":1}\n'
    )
    commands = {
        "encode": ["encode", "--scene", str(COCO_FIXTURE), "--mode", "aug_center"],
        "gradcheck": ["gradcheck", "--samples", "60", "--seed", "2"],
        "fit": ["fit", "--steps", "120", "--seed", "8"],
        "compare-losses": ["compare-losses", "--scenes", "2", "--steps", "60",
                           "--losses", "sdiou,giou", "--seed", "3"],
        "assign-stats": ["assign-stats", "--scene", str(COCO_FIXTURE)],
        "audit": ["audit", "--scene", str(COCO_FIXTURE)],
        "nms": ["nms", "--detections", str(dets)],
    }
    for name, argv in commands.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert main(argv + ["--output", str(a)]) == 0, name
        assert main(argv + ["--output", str(b)]) == 0, name
        assert a.read_bytes() == b.read_bytes(), name
    _report("criterion 10 (cli determinism)", time.time() - t0, 30.0,
            f"{len(commands)} subcommands byte-identical on rerun")
