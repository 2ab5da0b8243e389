"""Distance-space losses: fixed points, worked values, gradient checks."""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from detbox import (
    CornerBox,
    RegressionTarget,
    ScaleConfig,
    bce_with_logits,
    giou as giou_oracle,
    iou as iou_oracle,
    regression_loss_grad,
    sdiou_loss,
)
from detbox import gradcheck
from detbox.codec import decode_distances, encode_distances, encode_logit_array
from detbox.gradcheck import central_diff, run_gradcheck, sample_pair
from detbox.losses import (
    LOSS_KINDS, DegenerateGeometryError, logit_loss_grad, plan_loss_grad,
)


def _random_truth(rng, gain=2.0):
    """A valid encoding: positive components with positive box extent."""
    w = rng.uniform(0.3, 3.0 * gain)
    h = rng.uniform(0.3, 3.0 * gain)
    fx, fy = rng.uniform(0.0, 1.0, size=2)
    return np.array([
        (1 - fx) + w / 2, (1 - fy) + h / 2, fx + w / 2, fy + h / 2,
    ])


class TestSdiouValues:
    # the worked pair: overlap 4 x 2.5 (I = 22.25), cover 5 x 2.5 (C = 31.25),
    # penalty S = 1, so the score is (22.25 - 1) / 31.25 = 0.68
    WORKED = (2, 1.75, 3, 1.75), (3, 1.75, 3, 1.75)

    def test_identity_fixed_point(self, rng):
        for _ in range(200):
            t = _random_truth(rng)
            assert sdiou_loss(t, t) == 0.0
            # without the penalty the overlap equals the cover
            assert sdiou_loss(t, t, rho=0.0) == 0.0

    def test_worked_example(self):
        np.testing.assert_allclose(sdiou_loss(*self.WORKED), 0.32, atol=1e-15)
        np.testing.assert_allclose(sdiou_loss(*self.WORKED, rho=0.0), 1 - 22.25 / 31.25,
                                   atol=1e-15)

    def test_clamped_overlap_example(self):
        # the overlap clamps to 0 x 0, the cover is 1 x 1 (C = 2) and S = 4
        assert sdiou_loss((0, 0, 0, 0), (1, 1, 1, 1)) == 3.0
        assert sdiou_loss((0, 0, 0, 0), (1, 1, 1, 1), rho=0.0) == 1.0

    def test_any_perturbation_is_punished(self, rng):
        for _ in range(300):
            t = _random_truth(rng)
            k = int(rng.integers(4))
            eps = rng.uniform(1e-6, 1e-2) * (1 if rng.uniform() < 0.5 else -1)
            p = t.copy()
            p[k] = max(p[k] + eps, 0.0)
            if p[k] == t[k]:
                continue
            assert float(sdiou_loss(p, t)) > 0.0

    def test_symmetric_in_roles(self, rng):
        for _ in range(200):
            a, b = _random_truth(rng), _random_truth(rng)
            assert sdiou_loss(a, b) == sdiou_loss(b, a)
            assert sdiou_loss(a, b, rho=0.0) == sdiou_loss(b, a, rho=0.0)

    def test_score_bounded_and_overlap_inside_cover(self, rng):
        for _ in range(300):
            a, b = _random_truth(rng), _random_truth(rng)
            assert sdiou_loss(a, b) >= 0.0
            # 1 - I / C, with the overlap's diagonal inside the cover's
            assert 0.0 <= sdiou_loss(a, b, rho=0.0) <= 1.0

    def test_rho_scales_the_penalty(self):
        l1 = sdiou_loss(*self.WORKED, rho=1.0)
        l2 = sdiou_loss(*self.WORKED, rho=2.0)
        np.testing.assert_allclose(l2 - l1, 1.0 / 31.25, atol=1e-15)

    def test_degenerate_cover_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            sdiou_loss((0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5))

    def test_scale_drift_shrinks_with_box_size(self):
        drifts = []
        for size in (2.0, 4.0, 8.0, 16.0):
            truth = np.array([size, size, size, size])
            pred = 1.15 * truth
            # the unit offsets in the overlap and cover extents break exact
            # scale invariance: scaling all eight distances moves the score
            base = 1.0 - float(sdiou_loss(pred, truth))
            drifts.append(max(
                abs((1.0 - float(sdiou_loss(k * pred, k * truth))) - base) for k in (2, 4, 8)
            ))
        print("scale drift by base size:", [f"{d:.5f}" for d in drifts])
        assert all(b < a for a, b in zip(drifts, drifts[1:]))


class TestGradients:
    def test_zero_gradient_at_identity(self, rng):
        for _ in range(100):
            t = _random_truth(rng)
            _, grad = regression_loss_grad(t, t)
            np.testing.assert_array_equal(grad, np.zeros(4))

    def test_matches_finite_differences(self, rng):
        scale = ScaleConfig()
        worst = 0.0
        for _ in range(300):
            pred, truth, _ = sample_pair(rng, scale)
            _, grad = regression_loss_grad(pred, truth)
            fd = central_diff(lambda d: sdiou_loss(d, truth), pred, 1e-6)
            denom = max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-8)
            worst = max(worst, np.linalg.norm(grad - fd) / denom)
        assert worst < 1e-5

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_gradcheck_in_chunks_equals_one_batch(self, monkeypatch, kind):
        whole = run_gradcheck(kind, samples=50, seed=8)
        monkeypatch.setattr(gradcheck, "CHUNK_SAMPLES", 7)
        assert run_gradcheck(kind, samples=50, seed=8) == whole

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_gradcheck_equals_separate_central_diff_calls(self, monkeypatch, kind):
        # the same draws, checked with a gradient call and two central_diff
        # calls per space on the whole batch
        scale, h = ScaleConfig(), gradcheck.FD_STEPS[kind]
        rng = np.random.default_rng(3)
        preds, truths, scale_index = zip(*(sample_pair(rng, scale) for _ in range(7)))
        pred, truth = np.stack(preds)[:, None], np.stack(truths)[:, None]
        gain = np.asarray(scale.gains)[list(scale_index)][:, None, None]
        logits = encode_logit_array(pred, gain)
        worst = []
        for fn, x in ((lambda d: regression_loss_grad(d, truth, kind), pred),
                      (lambda p: logit_loss_grad(p, truth, gain, kind), logits)):
            fd = central_diff(lambda rows: fn(rows)[0], x, h)
            worst.append(gradcheck._worst_rel_err(fn(x)[1][:, 0], fd))
        monkeypatch.setattr(gradcheck, "CHUNK_SAMPLES", 3)
        result = run_gradcheck(kind, samples=7, seed=3)
        assert [result.worst_rel_err_distance, result.worst_rel_err_logit] == worst

    def test_gradcheck_memory_stays_flat(self):
        run_gradcheck("ciou", samples=10)
        tracemalloc.start()
        try:
            run_gradcheck("ciou", samples=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk's rows at a time; all 10,000 samples' rows at once peak at about 63 MiB
        assert peak < 5 * 2**20

    def test_clamped_region_kills_the_overlap_path(self):
        truth = np.array([1.0, 1.0, 1.0, 1.0])
        pred = np.array([0.1, 0.1, 0.1, 0.1])   # overlap extents clamp to zero
        _, grad = regression_loss_grad(pred, truth)
        fd = central_diff(lambda d: sdiou_loss(d, truth), pred, 1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-5)
        # with the penalty off, only the cover path remains, and the cover
        # ignores predictions below the truth entirely
        _, grad_cover = regression_loss_grad(pred, truth, "sdiou", rho=0.0)
        np.testing.assert_array_equal(grad_cover, np.zeros(4))

    def test_baseline_gradients_match_finite_differences(self, rng):
        scale = ScaleConfig()
        for kind in ("mse", "iou", "giou", "diou", "ciou"):
            worst = 0.0
            for _ in range(120):
                pred, truth, _ = sample_pair(rng, scale)
                _, grad = regression_loss_grad(pred, truth, kind)
                fd = central_diff(
                    lambda d: regression_loss_grad(d, truth, kind)[0], pred, 1e-4
                )
                denom = max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-8)
                worst = max(worst, np.linalg.norm(grad - fd) / denom)
            assert worst < 1e-5, kind


class TestLogitGradients:
    def test_saturated_logits_vanish(self, scale):
        truth = RegressionTarget(3, 1.75, 3, 1.75, 0)
        logits = np.array([25.0, -25.0, 25.0, -25.0])
        _, grad = logit_loss_grad(logits, truth.as_array(), scale.gains[truth.scale_index])
        assert np.all(np.abs(grad) < 1e-8)

    def test_zero_at_decoded_truth(self, scale, rng):
        # the truth is built from the very logits under test, so the decoded
        # prediction equals it bitwise and the tie rule pins the gradient at 0
        for _ in range(50):
            gain = scale.gains[1]
            logits = rng.uniform(-2, 2, size=4)
            truth = decode_distances(logits, gain)
            _, grad = logit_loss_grad(logits, truth, gain)
            np.testing.assert_array_equal(grad, np.zeros(4))

    def test_matches_finite_differences(self, rng):
        scale = ScaleConfig()
        worst = 0.0
        for _ in range(300):
            pred, truth, si = sample_pair(rng, scale)
            gain = scale.gains[si]
            logits = encode_logit_array(pred, gain)
            _, grad = logit_loss_grad(logits, truth, gain)
            fd = central_diff(
                lambda p: logit_loss_grad(p, truth, gain)[0], logits, 1e-6
            )
            denom = max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-8)
            worst = max(worst, np.linalg.norm(grad - fd) / denom)
        assert worst < 1e-5


# --- referees: the array-test sampler and the two-call gradcheck loop ---------


def _reference_near_switch(pred, truth, margin):
    if np.any(np.abs(pred - truth) < margin):
        return True
    wi = min(truth[0], pred[0]) + min(truth[2], pred[2]) - 1.0
    hi = min(truth[1], pred[1]) + min(truth[3], pred[3]) - 1.0
    return abs(wi) < margin or abs(hi) < margin


def reference_sample_pair(rng, scale, margin=1e-3, max_tries=1000):
    """``sample_pair`` with its accept tests on arrays."""
    for _ in range(max_tries):
        scale_index = int(rng.integers(scale.num_scales))
        stride = scale.strides[scale_index]
        gain = scale.gains[scale_index]
        top = min(6.0 * stride, 3.0 * gain * stride)
        w = rng.uniform(0.2 * stride, min(top, scale.image_w - 2))
        h = rng.uniform(0.2 * stride, min(top, scale.image_h - 2))
        cx = rng.uniform(w / 2 + 1, scale.image_w - w / 2 - 1)
        cy = rng.uniform(h / 2 + 1, scale.image_h - h / 2 - 1)
        corners = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        truth = encode_distances(corners, (int(cx // stride), int(cy // stride)), stride)
        if np.any(truth >= 4.0 * gain):
            continue
        pred = decode_distances(rng.uniform(-2.5, 2.5, size=4), gain)
        if _reference_near_switch(pred, truth, margin):
            continue
        return pred, truth, scale_index
    raise RuntimeError("could not sample a pair away from gradient switch points")


def _reference_worst_rel_err(a, b):
    na, nb, nd = (np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]) for x in (a, b, a - b))
    err = nd / np.maximum(np.maximum(na, nb), 1e-8)
    return float(np.max(np.where(np.isnan(err), np.inf, err)))


def reference_gradcheck(kind, samples, seed, scale=ScaleConfig(), rho=1.0, h=None):
    """``run_gradcheck`` as one batch of two loss calls: distances, then logits."""
    h = gradcheck.FD_STEPS[kind] if h is None else h
    rng = np.random.default_rng(seed)
    preds, truths, scale_index = zip(*(reference_sample_pair(rng, scale) for _ in range(samples)))
    pred, truth = np.stack(preds)[:, None], np.stack(truths)[:, None]
    gain = np.asarray(scale.gains)[list(scale_index)][:, None, None]
    logits = encode_logit_array(pred, gain)
    step = h * np.eye(4)
    worst = []
    for fn, x in ((lambda d: regression_loss_grad(d, truth, kind, rho), pred),
                  (lambda p: logit_loss_grad(p, truth, gain, kind, rho), logits)):
        loss, grad = fn(np.concatenate([x, x + step, x - step], axis=1))
        fd = (loss[:, 1:5] - loss[:, 5:]) / (2.0 * h)
        worst.append(_reference_worst_rel_err(grad[:, 0], fd))
    per_scale = np.bincount(scale_index, minlength=scale.num_scales)
    return gradcheck.GradcheckResult(kind, samples, *worst, 1e-5, h, tuple(per_scale.tolist()))


SAMPLER_SCALES = (
    ScaleConfig(),
    ScaleConfig(strides=(8, 24, 72), gains=(2.0, 4.0, 16.0), image_w=576, image_h=576),
    ScaleConfig(image_w=320, image_h=96),
    ScaleConfig(gains=(0.25, 0.5, 1.0)),   # about a quarter of the draws fail max(t) < 4 * gain
)


class TestGradcheckReferees:
    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from(range(len(SAMPLER_SCALES))),
           draws=st.integers(1, 12))
    def test_sample_pair_equals_array_sampler(self, seed, which, draws):
        scale = SAMPLER_SCALES[which]
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            pred, truth, si = sample_pair(mine, scale)
            ref_pred, ref_truth, ref_si = reference_sample_pair(theirs, scale)
            assert si == ref_si
            assert pred.tobytes() == ref_pred.tobytes() and truth.tobytes() == ref_truth.tobytes()
        assert mine.random() == theirs.random()

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), samples=st.sampled_from([1, 2, 7]),
           h=st.sampled_from([None, 1e-4, 1e-6]), rho=st.sampled_from([0.0, 0.5, 1.0]),
           chunk=st.sampled_from([1, 3, gradcheck.CHUNK_SAMPLES]))
    def test_gradcheck_equals_two_call_loop(self, kind, seed, samples, h, rho, chunk):
        want = reference_gradcheck(kind, samples, seed, rho=rho, h=h)
        with mock.patch.object(gradcheck, "CHUNK_SAMPLES", chunk):
            got = run_gradcheck(kind, samples=samples, seed=seed, rho=rho, h=h)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("gains", [(0.1, 0.1, 0.1), (0.01, 0.01, 0.01), (0.01, 4.0, 16.0)])
    def test_gains_too_small_to_draw_from_raise(self, gains):
        with pytest.raises(ValueError, match=rf"at gains \({gains[0]}, "):
            run_gradcheck(samples=5, scale=ScaleConfig(gains=gains))

    @pytest.mark.parametrize("stride, side", [(2, 2), (1, 1), (1, 2)])
    def test_image_too_small_to_draw_from_raises(self, stride, side):
        scale = ScaleConfig(strides=(stride,), gains=(2.0,), image_w=side, image_h=side)
        with pytest.raises(ValueError, match=rf"image size {side}x{side} is too small to draw "
                                             rf"a box at stride {stride}"):
            run_gradcheck(samples=5, scale=scale)

    def test_image_two_px_wider_than_the_narrowest_box_draws(self):
        scale = ScaleConfig(strides=(1,), gains=(2.0,), image_w=3, image_h=3)   # 0.2 + 2 < 3
        assert run_gradcheck(samples=20, scale=scale).passed

    def test_reports_samples_per_scale(self):
        # a gain of 0.1 draws no pair at scale 0, so that scale goes unchecked
        skipped = run_gradcheck(samples=200, scale=ScaleConfig(gains=(0.1, 4.0, 16.0)))
        assert skipped.passed and skipped.samples_per_scale[0] == 0
        assert sum(skipped.samples_per_scale) == 200 and min(skipped.samples_per_scale[1:]) > 0
        full = run_gradcheck(samples=200)
        assert sum(full.samples_per_scale) == 200 and min(full.samples_per_scale) > 0

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        with pytest.raises(ValueError, match=f"tolerance must be finite and > 0, got {tolerance}"):
            run_gradcheck(samples=5, tolerance=tolerance)


class TestBaselines:
    def test_identity_is_zero_for_every_kind(self, rng):
        for _ in range(50):
            t = _random_truth(rng)
            for kind in ("mse", "iou", "giou", "diou", "ciou"):
                assert regression_loss_grad(t, t, kind)[0] == pytest.approx(0.0, abs=1e-12)

    def test_mse_example(self):
        assert regression_loss_grad((2, 1.75, 3, 1.75), (3, 1.75, 3, 1.75), "mse")[0] == 0.25

    def _reconstruct(self, d):
        return CornerBox(1 - d[0], 1 - d[1], d[2], d[3])

    def test_iou_family_agrees_with_reference_scores(self, rng):
        for _ in range(200):
            truth = _random_truth(rng)
            pred = _random_truth(rng)
            pb, tb = self._reconstruct(pred), self._reconstruct(truth)
            np.testing.assert_allclose(
                regression_loss_grad(pred, truth, "iou")[0], 1 - iou_oracle(pb, tb), atol=1e-12
            )
            np.testing.assert_allclose(
                regression_loss_grad(pred, truth, "giou")[0], 1 - giou_oracle(pb, tb),
                atol=1e-12,
            )

    def test_diou_ciou_against_local_reference(self, rng):
        def reference(pred, truth, kind):
            pb, tb = self._reconstruct(pred), self._reconstruct(truth)
            score = iou_oracle(pb, tb)
            hull_w = max(pb.x2, tb.x2) - min(pb.x1, tb.x1)
            hull_h = max(pb.y2, tb.y2) - min(pb.y1, tb.y1)
            dist2 = ((pb.x1 + pb.x2) / 2 - (tb.x1 + tb.x2) / 2) ** 2 + (
                (pb.y1 + pb.y2) / 2 - (tb.y1 + tb.y2) / 2
            ) ** 2
            score -= dist2 / (hull_w**2 + hull_h**2)
            if kind == "ciou":
                v = (4 / math.pi**2) * (
                    math.atan(tb.w / tb.h) - math.atan(pb.w / pb.h)
                ) ** 2
                score -= v * v / ((1 - iou_oracle(pb, tb)) + v + 1e-12)
            return 1 - score

        for _ in range(200):
            truth = _random_truth(rng)
            pred = _random_truth(rng)
            for kind in ("diou", "ciou"):
                np.testing.assert_allclose(
                    regression_loss_grad(pred, truth, kind)[0], reference(pred, truth, kind),
                    atol=1e-9,
                )

    def test_degenerate_predictions_stay_finite(self):
        truth = np.array([2.0, 2.0, 2.0, 2.0])
        pred = np.array([0.2, 0.2, 0.2, 0.2])   # reconstructs to negative extent
        for kind in ("iou", "giou", "diou", "ciou"):
            loss, grad = regression_loss_grad(pred, truth, kind)
            assert np.isfinite(loss)
            assert np.all(np.isfinite(grad))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="valid"):
            regression_loss_grad(np.ones(4), np.ones(4), "huber")


@st.composite
def _kernel_batches(draw):
    """(pred, truth), both (n, 4, 4): truths keep a positive extent; preds
    tie with truth row 0, lie flat, invert or miss the truth entirely."""
    n = draw(st.integers(1, 4))
    truth = draw(arrays(float, (n, 4, 4), elements=st.floats(0.55, 8.0)))
    pred = draw(arrays(float, (n, 4, 4), elements=st.floats(-3.0, 8.0)))
    pred = np.where(draw(arrays(bool, (n, 4, 4))), truth[:, :1], pred)
    flat = draw(arrays(bool, (n, 4, 2)))
    pred[..., 2:] = np.where(flat, 1.0 - pred[..., :2], pred[..., 2:])   # zero extent
    return pred, truth


class TestBatchedKernels:
    """One call over broadcast rows of either rank equals one (4,) call per row."""

    @settings(max_examples=150)
    @given(batch=_kernel_batches(), kind=st.sampled_from(LOSS_KINDS))
    def test_batched_call_equals_row_calls(self, batch, kind):
        pred, truth = batch
        pairs = ((pred[:, :1], truth), (pred[:, :1], truth[0, 0]), (pred, truth[:, :1]),
                 (pred[0, 0], truth[:, 0]))
        for p, t in pairs:
            loss, grad = regression_loss_grad(p, t, kind)
            p_rows, t_rows = np.broadcast_arrays(p, t)
            rows = [regression_loss_grad(p_rows[i], t_rows[i], kind) for i in np.ndindex(loss.shape)]
            assert loss.shape == p_rows.shape[:-1] and grad.shape == p_rows.shape
            assert loss.tobytes() == np.array([r[0] for r in rows]).reshape(loss.shape).tobytes()
            assert np.array_equal(grad, np.array([r[1] for r in rows]).reshape(grad.shape))


class TestPlannedStep:
    """A plan built once gives, call after call, the bits of a fresh dispatch."""

    @settings(max_examples=200)
    @given(batch=_kernel_batches(), kind=st.sampled_from(LOSS_KINDS), truth_form=st.integers(0, 2))
    def test_every_call_equals_regression_loss_grad(self, batch, kind, truth_form):
        pred, truth = batch   # (n, 4, 4) rows against (n, 4, 4), (n, 1, 4) or (4,) truth
        p, t = pred, (truth, truth[:, :1], truth[0, 0])[truth_form]
        step = plan_loss_grad(t, kind, p.shape)
        # each call sees other rows: nothing of one call may leak into the next
        for q in (p, 2.0 * p[::-1] - 1.0, p):
            loss, grad = (x.copy() for x in step(q))
            one_loss, one_grad = regression_loss_grad(q, t, kind)
            assert loss.shape == one_loss.shape and grad.shape == one_grad.shape
            assert loss.tobytes() == one_loss.tobytes(), kind
            assert grad.tobytes() == one_grad.tobytes(), kind

    def test_a_plan_checks_the_shape_it_was_built_for(self):
        step = plan_loss_grad(np.ones((3, 4)) * 2.0, "giou", (2, 3, 4))
        with pytest.raises(ValueError, match=r"planned for prediction rows of shape \(2, 3, 4\)"):
            step(np.ones((2, 1, 4)))
        for kind in ("mse", "giou", "ciou"):   # not only where sdiou reads it
            with pytest.raises(ValueError, match=r"rho must be >= 0, got -1\.0"):
                plan_loss_grad(np.ones(4), kind, (2, 4), rho=-1.0)
        with pytest.raises(ValueError, match="'huber'.*valid"):
            plan_loss_grad(np.ones(4), "huber", (4,))

    @pytest.mark.parametrize("kinds", [("giou", "mse"), ("sdiou",), ["iou", "iou"]])
    def test_a_tuple_or_list_of_kinds_is_an_unknown_kind(self, kinds):
        with pytest.raises(ValueError, match=r"unknown loss kind [\[(].*; valid"):
            regression_loss_grad(np.ones((len(kinds), 1, 4)), np.ones(4), kinds)
        with pytest.raises(ValueError, match=r"unknown loss kind [\[(].*; valid"):
            plan_loss_grad(np.ones(4), kinds, (len(kinds), 1, 4))


class TestMultitask:
    def test_zero_logits_cost_ln2(self):
        # each objectness and class term costs ln 2 at zero logits, either label
        out = bce_with_logits(np.zeros((2, 3)), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(out, math.log(2), atol=1e-12)

    def test_saturated_logits_vanish(self):
        out = bce_with_logits(np.array([[40.0, -40.0, -40.0]] * 4), np.eye(1, 3).repeat(4, 0))
        assert out.shape == (4, 3) and out.max() < 1e-12
        assert bce_with_logits(np.full(4, 40.0), 1.0).max() < 1e-12

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            bce_with_logits(np.array([1.0]), np.array([0.5]))

    def test_bce_stability(self):
        z = np.array([-800.0, 800.0, 0.0])
        y = np.array([0.0, 1.0, 1.0])
        out = bce_with_logits(z, y)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[2], math.log(2), atol=1e-15)


def _loss_bits_digest(kind):
    """sha256 of the loss and gradient bytes of one kind on 200 seeded
    ``sample_pair`` rows, in three broadcast forms."""
    rng = np.random.default_rng(2024)
    pred, truth = (np.array(x) for x in zip(*(sample_pair(rng, ScaleConfig())[:2]
                                              for _ in range(200))))
    wide = np.stack([pred, np.roll(pred, 1, axis=0), np.roll(pred, 2, axis=0)], axis=1)
    digest = hashlib.sha256()
    for p, t in ((pred, truth), (wide, truth[:, None]), (pred, truth[0])):
        for x in regression_loss_grad(p, t, kind):
            digest.update(x.tobytes())
    return digest.hexdigest()


# Loss and gradient bits per kind, so that a refactor of the kernels shows
# a changed bit here
_LOSS_BITS = {
    "sdiou": "2f54ac3bd82386df00d7a07fe3a978b0a77a3471d74a7ef4a22a33357216bb37",
    "mse": "66136ed577b011597e358f826a039b04dec4d76c588654f179193ac53bc08402",
    "iou": "c5afc3bf23de3bdac9866afdb3833450805af9b28d9c475e4cfcfd960de1fd72",
    "giou": "854030cdc0cdb7fd65cc4c8f7dbd648c2bfab6fc513a4f0af5c966e0bef5861a",
    "diou": "a25c515f81bac46fe4b1402c3f878df53c847741685c30262b80761368625345",
    "ciou": "9281a3628529288ab5fba6735eca49c2b2489f41a24d0c54dc1f71008b86c578",
}


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_loss_and_gradient_bits_are_pinned(kind):
    assert _loss_bits_digest(kind) == _LOSS_BITS[kind]
