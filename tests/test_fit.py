"""Gradient-descent harness: determinism, fixed points, convergence."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from detbox import (
    AssignMode,
    BoundingBox,
    FitConfig,
    ScaleConfig,
    Scene,
    SceneSpec,
    compare_losses,
    fit_scene,
    fit_scenes,
    assign,
    decode_distances,
    generate_scene,
    sdiou_loss,
)
from detbox import fit
from detbox.fit import N_CLASSES, check_size_bounds
from detbox.losses import LOSS_KINDS


class TestGenerateScene:
    def test_deterministic(self):
        spec = SceneSpec(n_objects=5)
        a = generate_scene(spec, seed=42)
        b = generate_scene(spec, seed=42)
        assert a == b
        c = generate_scene(spec, seed=43)
        assert c != a

    def test_counts_and_interior_centers(self):
        spec = SceneSpec(n_objects=100)
        scene = generate_scene(spec, seed=0)
        assert len(scene.objects) == 100
        for box, class_id in scene.objects:
            assert 0 < box.cx < spec.image_w
            assert 0 < box.cy < spec.image_h
            assert spec.size_min <= box.w <= spec.size_max
            assert 0 <= class_id < N_CLASSES

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(size_min=50, size_max=20)
        with pytest.raises(ValueError):
            SceneSpec(size_min=0, size_max=20)

    def test_size_bounds_check(self):
        scale = ScaleConfig(strides=(8,), gains=(2.0,))
        with pytest.raises(ValueError, match="decodable"):
            check_size_bounds(SceneSpec(size_min=200, size_max=400), scale)
        check_size_bounds(SceneSpec(), ScaleConfig())


class TestFitScene:
    def test_zero_steps_reports_initialization_only(self):
        scene = generate_scene(SceneSpec(), seed=1)
        report = fit_scene(scene, FitConfig(steps=0))
        assert report.loss_trace.shape == (1,)
        assert report.iou_trace.shape == (1, 1)
        assert 0.0 <= report.final_iou[0] < 0.95

    def test_bit_identical_reruns(self):
        scene = generate_scene(SceneSpec(n_objects=3), seed=7)
        cfg = FitConfig(steps=50)
        a, b = fit_scene(scene, cfg), fit_scene(scene, cfg)
        np.testing.assert_array_equal(a.loss_trace, b.loss_trace)
        np.testing.assert_array_equal(a.iou_trace, b.iou_trace)
        np.testing.assert_array_equal(a.final_iou, b.final_iou)
        assert a.steps_to_iou90 == b.steps_to_iou90

    def test_truth_initialization_is_a_fixed_point(self):
        # one stride, and a box whose center-cell distances all equal the
        # gain, which is exactly what zero logits decode to
        scale = ScaleConfig(strides=(8,), gains=(2.0,), image_w=640, image_h=640)
        scene = Scene(640, 640, ((BoundingBox(44.0, 44.0, 24.0, 24.0), 0),), "fp")
        report = fit_scene(scene, FitConfig(steps=20, scale=scale))
        np.testing.assert_array_equal(report.loss_trace, np.zeros(21))
        assert report.final_iou[0] == 1.0

    def test_small_first_step_decreases_loss(self):
        spec = SceneSpec()
        for seed in range(100):
            scene = generate_scene(spec, seed=seed)
            report = fit_scene(scene, FitConfig(steps=1, learning_rate=1e-4))
            assert report.loss_trace[1] < report.loss_trace[0]

    def test_default_fit_converges(self):
        scene = generate_scene(SceneSpec(), seed=11)
        report = fit_scene(scene, FitConfig())
        assert report.final_iou[0] > 0.99
        assert report.steps_to_iou90[0] is not None
        assert report.success_rate == 1.0

    def test_unrepresentable_object_excluded_not_fatal(self):
        scale = ScaleConfig(strides=(8,), gains=(2.0,), image_w=640, image_h=640)
        scene = Scene(
            640, 640,
            (
                (BoundingBox(320, 320, 400, 400), 0),   # needs distances > 4*gain
                (BoundingBox(100.6, 100.2, 30, 30), 1),
            ),
            "mixed",
        )
        report = fit_scene(scene, FitConfig(steps=100, scale=scale))
        assert report.excluded_objects == (0,)
        assert math.isnan(report.final_iou[0])
        assert report.final_iou[1] > 0.9

    def test_mse_converges_too(self):
        scene = generate_scene(SceneSpec(), seed=2)
        report = fit_scene(scene, FitConfig(loss="mse"))
        assert report.final_iou[0] > 0.99

    def test_summary_is_json_ready(self):
        import json

        scene = generate_scene(SceneSpec(), seed=3)
        report = fit_scene(scene, FitConfig(steps=5))
        json.dumps(report.summary_dict())


class TestMultitask:
    def test_composition_at_initialization(self):
        # zero logits put both cross-entropy terms at ln 2 per scale, so the
        # starting objective sits above that floor by the box terms
        scene = generate_scene(SceneSpec(), seed=5)
        plain = fit_scene(scene, FitConfig(steps=0))
        multi = fit_scene(scene, FitConfig(steps=0, multitask=True))
        assert multi.loss_trace[0] > 3 * 2 * math.log(2)
        assert plain.loss_trace[0] > 0

    @pytest.mark.parametrize("spec, finest_empty", [
        (SceneSpec(n_objects=3), False),
        (SceneSpec(n_objects=3, size_min=150.0, size_max=160.0), True),
    ], ids=["every-scale", "empty-finest-scale"])
    def test_three_term_sum(self, spec, finest_empty):
        # at zero logits each scale with records costs its mean box loss plus
        # ln 2 for objectness and ln 2 for class, unweighted, in scale order;
        # a scale without usable records contributes 0
        scene = generate_scene(spec, seed=5)
        cfg = FitConfig(steps=0, multitask=True)
        scale = cfg.scale.for_image(scene.image_w, scene.image_h)
        table = assign(list(scene.objects), scale, cfg.mode)
        gain = np.asarray(scale.gains)[table.scale_index, None]
        usable = np.all((table.target > 0.0) & (table.target < 4.0 * gain), axis=1)
        box = sdiou_loss(decode_distances(np.zeros(4), gain[usable]), table.target[usable])
        at = table.scale_index[usable]
        assert (0 not in at) == finest_empty
        expected = sum(box[at == k].mean() + 2 * math.log(2) for k in np.unique(at))
        assert fit_scene(scene, cfg).loss_trace[0] == pytest.approx(expected, rel=1e-12)

    def test_negative_class_id_is_rejected_before_the_first_step(self):
        # a class id indexes the class head, so -1 would train class 2's column
        scene = Scene(640, 640, ((BoundingBox(100, 60, 40, 20), -1),
                                 (BoundingBox(300, 200, 60, 50), 2)), "negative")
        with pytest.raises(ValueError, match="class ids must be >= 0, got -1"):
            fit_scene(scene, FitConfig(steps=1, multitask=True))
        assert fit_scene(scene, FitConfig(steps=1)).steps == 1   # a plain fit reads no class

    def test_multitask_descends(self):
        # box terms converge quickly; the mean-reduced cross-entropy terms
        # drain more slowly, so the total drops but keeps a visible tail
        scene = generate_scene(SceneSpec(n_objects=2), seed=9)
        report = fit_scene(scene, FitConfig(steps=300, multitask=True))
        assert report.loss_trace[-1] < 0.65 * report.loss_trace[0]
        mid = report.loss_trace[len(report.loss_trace) // 2]
        assert report.loss_trace[-1] < mid < report.loss_trace[0]
        assert np.nanmin(report.final_iou) > 0.99


class TestCompareLosses:
    def test_deterministic_rows(self):
        scenes = [generate_scene(SceneSpec(), seed=i) for i in range(3)]
        cfg = FitConfig(steps=120)
        a = compare_losses(scenes, cfg, kinds=("sdiou", "giou"))
        b = compare_losses(scenes, cfg, kinds=("sdiou", "giou"))
        assert a == b

    def test_requested_kinds_present(self):
        scene = generate_scene(SceneSpec(), seed=0)
        rows = compare_losses([scene], FitConfig(steps=60),
                              kinds=("sdiou", "mse", "giou", "ciou"))
        assert [r["loss"] for r in rows] == ["sdiou", "mse", "giou", "ciou"]

    def test_unknown_kind_rejected(self):
        scene = generate_scene(SceneSpec(), seed=0)
        with pytest.raises(ValueError, match="valid"):
            compare_losses([scene], FitConfig(), kinds=("sdiou", "huber"))

    def test_median_handles_never_converged(self):
        scene = generate_scene(SceneSpec(), seed=0)
        rows = compare_losses([scene], FitConfig(steps=1), kinds=("sdiou",))
        assert rows[0]["median_steps_to_iou90"] == math.inf


def _assert_same_report(a, b):
    assert a.loss_kind == b.loss_kind
    assert a.loss_trace.tobytes() == b.loss_trace.tobytes()
    assert a.iou_trace.shape == b.iou_trace.shape
    assert a.iou_trace.tobytes() == b.iou_trace.tobytes()
    assert a.final_iou.tobytes() == b.final_iou.tobytes()
    assert (a.steps_to_iou90, a.steps_to_iou99) == (b.steps_to_iou90, b.steps_to_iou99)
    assert a.excluded_objects == b.excluded_objects
    assert (a.n_records, a.n_records_excluded) == (b.n_records, b.n_records_excluded)
    assert a.success_rate == b.success_rate


def _hexes(reports):
    return ([float(r.loss_trace[-1]).hex() for r in reports],
            [float(v).hex() for r in reports for v in r.final_iou])


# Final loss and final IoU per scene of the two-scene batch below, as the
# one-scene-at-a-time loop computed them before the batched engine.
_GOLDEN = {
    "sdiou": (["0x1.1efc5c9badae8p+3", "0x1.18fd98e02e88ep+2"],
              ["0x1.fd9b09b091870p-1", "0x1.fdce8af626258p-1", "0x1.f7ce8d96a91acp-1"]),
    "mse": (["0x1.4cfa55f07031ap+4", "0x1.59627f8cfc785p+3"],
            ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"]),
    "iou": (["0x1.08653554e08c5p+3", "0x1.08e1058989727p+2"],
            ["0x1.bc7696657db44p-1", "0x1.fa51481c2110ep-1", "0x1.fc95210348ca9p-1"]),
    "giou": (["0x1.010ff6f30bae2p+3", "0x1.0b0e98d15c260p+2"],
             ["0x1.fb5c90a8ea974p-1", "0x1.fe390ddb126bcp-1", "0x1.f7412f29cd994p-1"]),
    "diou": (["0x1.f565ef571a6c0p+2", "0x1.084fa43944352p+2"],
             ["0x1.f999c86876045p-1", "0x1.fb7e607da5e00p-1", "0x1.fc6313ad549bap-1"]),
    "ciou": (["0x1.f9aab711c6343p+2", "0x1.0987337abed06p+2"],
             ["0x1.f7ce77941966ap-1", "0x1.fad0932f94757p-1", "0x1.f92bba6c592bcp-1"]),
    "multitask": (["0x1.4d08cb628f82ap+2", "0x1.07e672095a84ep+2"],
                  ["0x1.fce578c4c37fbp-1", "0x1.fc66b22a78ec0p-1", "0x1.ff6aea188a084p-1"]),
}


class TestFitScenes:
    # two scales whose decode ranges stop at 64 and 128 px, so wide boxes
    # lose records at the fine scale and a 400 px box at both
    SCALE = ScaleConfig(strides=(8, 16), gains=(2.0, 2.0))

    def _batch(self, seed):
        rng = np.random.default_rng(seed)
        scenes = [
            generate_scene(SceneSpec(n_objects=int(rng.integers(1, 5)), size_min=20,
                                     size_max=180), int(rng.integers(1 << 30)))
            for _ in range(3)
        ]
        return scenes + [
            Scene(640, 640, ((BoundingBox(320, 320, 400, 400), 0),
                             (BoundingBox(100.6, 100.2, 30, 30), 4)), "excluded"),
            Scene(640, 640, (), "empty"),
            Scene(320, 480, ((BoundingBox(100, 100, 50, 70), 1),
                             (BoundingBox(104, 98, 40, 90), 2)), "shared-cells"),
        ]

    @pytest.mark.parametrize("multitask", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_one_scene_one_kind_fits(self, seed, multitask):
        scenes = self._batch(seed)
        cfg = FitConfig(steps=40, scale=self.SCALE, multitask=multitask)
        alone = {kind: [fit_scene(scene, replace(cfg, loss=kind)) for scene in scenes]
                 for kind in LOSS_KINDS}
        # one loss call per step serves every kind, in any order and with repeats
        for kinds in (LOSS_KINDS, ("ciou", "giou"), ("iou", "diou", "iou"), ("mse",),
                      ("giou", "sdiou", "ciou", "mse")):
            batched = fit_scenes(scenes, cfg, kinds)
            assert [len(reports) for reports in batched] == [len(scenes)] * len(kinds)
            for kind, reports in zip(kinds, batched):
                for report, single in zip(reports, alone[kind]):
                    _assert_same_report(report, single)
            excluded = batched[0][3]
            assert excluded.excluded_objects == (0,) and excluded.n_records_excluded > 0
            assert batched[0][4].iou_trace.shape == (41, 0)

    def test_golden_final_values(self):
        scenes = [generate_scene(SceneSpec(n_objects=2), seed=31),
                  generate_scene(SceneSpec(), seed=32)]
        by_kind = fit_scenes(scenes, FitConfig(steps=120), LOSS_KINDS)
        for kind, reports in zip(LOSS_KINDS, by_kind):
            assert _hexes(reports) == _GOLDEN[kind], kind
        multitask = fit_scenes(scenes, FitConfig(steps=120, multitask=True))
        assert _hexes(multitask[0]) == _GOLDEN["multitask"]

    def test_kinds_default_to_the_config_and_are_checked_first(self):
        scene = generate_scene(SceneSpec(), seed=0)
        (report,), = fit_scenes([scene], FitConfig(steps=3, loss="giou"))
        assert report.loss_kind == "giou"
        assert fit_scenes([], FitConfig(), ("sdiou", "mse")) == [[], []]
        with pytest.raises(ValueError, match="valid"):
            fit_scenes([scene], FitConfig(), ("sdiou", "huber"))


class TestConfigValidation:
    def test_bad_config_values(self):
        with pytest.raises(ValueError):
            FitConfig(steps=-1)
        with pytest.raises(ValueError):
            FitConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            FitConfig(loss="huber")


def _reports_digest(reports):
    """sha256 over everything a report measures, report by report."""
    digest = hashlib.sha256()
    for r in reports:
        for trace in (r.loss_trace, r.iou_trace, r.final_iou):
            digest.update(trace.tobytes())
        digest.update(repr((r.steps_to_iou90, r.steps_to_iou99, r.excluded_objects,
                            r.n_records, r.n_records_excluded)).encode())
    return digest.hexdigest()


# fit_scenes bits per kind on a seeded three-scene batch whose wide boxes lose
# records at the fine scale, with multitask off and on
_FIT_BITS = {
    False: {
        "sdiou": "439b2902095e1c6c432d957a7b434fbb220338f5b3f1ee466c33bba566e0b401",
        "mse": "e03a77e184586e69272563b6d812b907e9e6f9f610ccd34a41e07006446b1fa2",
        "iou": "674dad5104ac35d925ff5da1816bf73c697d3153dc485ea7d7e2d5a0759d20db",
        "giou": "2c12e341e4e25c2382dab80c4b6a1f8897326d7f7fe17bee71eb765b4afe2681",
        "diou": "1a4bdd23ebcf3348105fb0fae2d1d4e83018833adabb9433c40db86982e84fac",
        "ciou": "e3b8875375409ea632be640c1a3f8de85a62df2ddee9386c63bddb868a9c6e19",
    },
    True: {
        "sdiou": "1c26aba56778f209fe6b841e76f00cdf697a7459a30875c33d212118aaf539bf",
        "mse": "7ecc8df7aadd6bc62334478695c9dfe0a7f38875f2f7647df183cc1be97f5dba",
        "iou": "225511126ab6749dad7371ed44bf015852411b4bc36da3961275aa79d42444f2",
        "giou": "83a651e50d6f4ac0ef58c6f7cd7f6b9504524b8d8b422669e897859fe475f9d1",
        "diou": "e392386d5cf03a3573ed61bbc92cd18421c6faf8381b5270774f8c69e355a80e",
        "ciou": "7e7135ce00a8c2375d2e8ba505de4d55527977216ee0270547eb1de0758a4f0b",
    },
}


def _pinned_batch(multitask):
    spec = SceneSpec(n_objects=3, size_min=20, size_max=180)
    scenes = [generate_scene(spec, seed) for seed in (7, 8, 9)]
    cfg = FitConfig(steps=30, scale=TestFitScenes.SCALE, multitask=multitask)
    return fit_scenes(scenes, cfg, LOSS_KINDS)


def _assert_pinned(by_kind, multitask):
    assert {kind: _reports_digest(reports)
            for kind, reports in zip(LOSS_KINDS, by_kind)} == _FIT_BITS[multitask]


@pytest.mark.parametrize("multitask", [False, True])
def test_fit_scenes_bits_are_pinned(multitask):
    by_kind = _pinned_batch(multitask)
    assert sum(r.n_records_excluded for r in by_kind[0]) > 0
    _assert_pinned(by_kind, multitask)


@pytest.mark.parametrize("multitask", [False, True])
@pytest.mark.parametrize("steps_per_block", [1, 4, 31])
def test_step_blocks_keep_the_pinned_bits(monkeypatch, multitask, steps_per_block):
    # the batch's 31 passes traced one step per block, in blocks of 4 that
    # leave a short last block, and in one block
    values = len(LOSS_KINDS) * sum(r.n_records for r in _pinned_batch(False)[0]) * 4
    monkeypatch.setattr(fit, "BLOCK_VALUES", steps_per_block * values)
    _assert_pinned(_pinned_batch(multitask), multitask)


@pytest.mark.parametrize("multitask", [False, True])
@pytest.mark.parametrize("budget", [1, fit.BLOCK_VALUES])
def test_fits_without_usable_records_trace_nan_and_zero(monkeypatch, multitask, budget):
    monkeypatch.setattr(fit, "BLOCK_VALUES", budget)
    scenes = [Scene(640, 640, (), "empty"),
              Scene(640, 640, ((BoundingBox(320, 320, 400, 400), 0),), "excluded")]
    cfg = FitConfig(steps=5, scale=TestFitScenes.SCALE, multitask=multitask)
    for reports in fit_scenes(scenes, cfg, ("sdiou", "giou")):
        empty, excluded = reports
        assert empty.iou_trace.shape == (6, 0) and excluded.iou_trace.shape == (6, 1)
        assert np.isnan(excluded.iou_trace).all() and excluded.excluded_objects == (0,)
        for report in reports:
            assert report.n_records == 0 and report.loss_trace.tolist() == [0.0] * 6
