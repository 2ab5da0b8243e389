"""Corner-distance encoding, squared-sigmoid decoding, and their inverses."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit, logit

from detbox import (
    BoundingBox,
    CodecError,
    RegressionTarget,
    ScaleConfig,
    center_cell,
    encode,
)
from detbox.codec import (
    decode_distances,
    decode_jacobian,
    decode_with_jacobian,
    encode_distances,
    encode_logit_array,
)

from conftest import random_box


def reference_encode_logit_array(d, gain):
    """``encode_logit_array`` with its operands broadcast before the range test."""
    d, gain = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(gain, dtype=float))
    bad = (d <= 0.0) | (d >= 4.0 * gain)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        name = "ltrb"[idx[-1]] if d.shape[-1:] == (4,) else "d"
        raise CodecError(
            f"component {name}={d[idx]:.6g} at index {idx} not representable: "
            f"open interval (0, {4.0 * gain[idx]:.6g})"
        )
    return logit(np.sqrt(d / gain) / 2.0)


class TestScaleConfig:
    def test_defaults(self, scale):
        assert scale.strides == (8, 16, 32)
        assert scale.gains == (2.0, 4.0, 16.0)
        assert scale.grid_size(0) == (80, 80)
        assert scale.grid_size(2) == (20, 20)

    def test_rejects_bad_strides(self):
        with pytest.raises(CodecError):
            ScaleConfig(strides=(8, 8, 32))
        with pytest.raises(CodecError):
            ScaleConfig(strides=(8, 16, 48), image_w=640, image_h=640)  # 48 ∤ 640

    @pytest.mark.parametrize("size", [(-64, 64), (64, -64), (0, 64), (64, 0)])
    def test_rejects_a_non_positive_image_size(self, size):
        w, h = size
        with pytest.raises(CodecError, match=f"image size must be positive, got {w}x{h}"):
            ScaleConfig(image_w=w, image_h=h)
        with pytest.raises(CodecError, match="must be positive"):
            ScaleConfig().for_image(w, h)

    def test_rejects_bad_gains(self):
        with pytest.raises(CodecError):
            ScaleConfig(gains=(2.0, 4.0))
        with pytest.raises(CodecError):
            ScaleConfig(gains=(2.0, 0.0, 16.0))

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf, -2.0])
    def test_rejects_a_gain_that_is_not_finite_and_positive(self, gain):
        with pytest.raises(CodecError, match=r"gains must be finite and > 0, got \("):
            ScaleConfig(gains=(gain, 4.0, 16.0))

    @pytest.mark.parametrize("stride", [8.5, math.inf, math.nan])
    def test_rejects_a_stride_that_is_not_a_whole_number(self, stride):
        with pytest.raises(CodecError, match=r"strides must be whole numbers, got \("):
            ScaleConfig(strides=(stride, 16, 32))

    def test_whole_float_strides_read_as_ints(self):
        assert ScaleConfig(strides=[8.0, 16, np.float64(32)]).strides == (8, 16, 32)

    def test_for_image_same_size_is_the_same_object(self, scale):
        assert scale.for_image(640, 640) is scale
        assert scale.for_image(640.0, 640.0) is scale

    def test_for_image_keeps_strides_and_gains(self):
        base = ScaleConfig(strides=(8, 24, 72), gains=(2.0, 4.0, 16.0), image_w=576, image_h=576)
        sized = base.for_image(1152, 288)
        assert (sized.strides, sized.gains) == (base.strides, base.gains)
        assert (sized.image_w, sized.image_h) == (1152, 288)
        assert sized.grid_size(2) == (16, 4)

    def test_for_image_rejects_a_size_no_stride_divides(self, scale):
        with pytest.raises(CodecError, match="does not divide image size 640x427"):
            scale.for_image(640, 427)

    @pytest.mark.parametrize("size, shown", [((640.5, 480), "640.5x480"),
                                             ((640.0, 479.75), "640x479.75"),
                                             ((640.0000000001, 480), "640.00000000010004x480"),
                                             ((1234567890.5, 480), "1234567890.5x480")])
    def test_for_image_rejects_a_size_that_is_not_whole(self, scale, size, shown):
        # truncating would size the pyramid to an image the file never states,
        # and a size close to whole must not print as one
        for _ in range(2):   # and a raised error is never cached
            with pytest.raises(CodecError, match=f"image size must be whole numbers, got {shown}$"):
                scale.for_image(*size)

    def test_for_image_copy_equals_replace(self):
        base = ScaleConfig(strides=(8, 24, 72), gains=(2.0, 4.0, 16.0), image_w=576, image_h=576)
        assert base.for_image(1152, 288.0) == replace(base, image_w=1152, image_h=288)

    def test_for_image_repeated_call_returns_the_same_object(self, scale):
        assert scale.for_image(640, 480) is scale.for_image(640.0, 480)

    def test_for_image_bad_size_raises_on_every_call(self, scale):
        for _ in range(3):
            with pytest.raises(CodecError, match="does not divide image size 500x375"):
                scale.for_image(500, 375)
        assert scale.for_image(512, 384).image_h == 384

    def test_for_image_equal_config_built_separately(self):
        a = ScaleConfig(strides=(8, 16), gains=(2.0, 4.0))
        b = ScaleConfig(strides=[8, 16], gains=[2, 4])
        assert a is not b and a == b
        assert a.for_image(320, 160) == b.for_image(320, 160)
        assert a.for_image(320, 160) == replace(a, image_w=320, image_h=160)
        with pytest.raises(CodecError):
            b.for_image(320, 161)


class TestEncode:
    def test_worked_example(self, scale):
        t = encode(BoundingBox(100, 60, 40, 20), (12, 7), scale, 0)
        assert (t.l, t.t, t.r, t.b) == (3.0, 1.75, 3.0, 1.75)

    def test_one_cell_symmetric_box(self, scale):
        # box centered on a cell center, exactly one cell wide
        s = scale.strides[1]
        box = BoundingBox(s * 3.5, s * 3.5, s, s)
        t = encode(box, (3, 3), scale, 1)
        assert (t.l, t.t, t.r, t.b) == (1.0, 1.0, 1.0, 1.0)

    def test_sub_cell_box_stays_positive(self, scale):
        # object far smaller than the cell still gets four positive distances
        t = encode(BoundingBox(12, 12, 4, 4), (0, 0), scale, 2)
        assert (t.l, t.t, t.r, t.b) == (0.6875, 0.6875, 0.4375, 0.4375)

    def test_far_cell_rejected(self, scale):
        with pytest.raises(CodecError):
            encode(BoundingBox(12, 12, 4, 4), (5, 0), scale, 2)
        # the unchecked path still evaluates the formula
        box = BoundingBox(12, 12, 4, 4)
        l, t, r, b = encode_distances((box.x1, box.y1, box.x2, box.y2), (5, 0), scale.strides[2])
        assert r < 0

    def test_sum_identities_any_cell(self, scale, rng):
        # l + r and t + b depend only on the box size, not the cell
        for _ in range(300):
            box = random_box(rng)
            for i, s in enumerate(scale.strides):
                ax, ay = center_cell(box.cx, box.cy, s)
                ax += int(rng.integers(-2, 3))
                ay += int(rng.integers(-2, 3))
                l, t, r, b = encode_distances((box.x1, box.y1, box.x2, box.y2), (ax, ay), s)
                assert abs((l + r) - (box.w / s + 1)) < 1e-9
                assert abs((t + b) - (box.h / s + 1)) < 1e-9

    def test_center_cell_positivity(self, scale, rng):
        for _ in range(300):
            box = random_box(rng)
            for i, s in enumerate(scale.strides):
                t = encode(box, center_cell(box.cx, box.cy, s), scale, i)
                assert min(t.l, t.t, t.r, t.b) > 0


class TestDecode:
    def test_zero_logits(self, scale):
        d = decode_distances(np.zeros(4), scale.gains[0])
        assert d.tolist() == [2.0, 2.0, 2.0, 2.0]

    def test_saturation_bounds(self, scale):
        for g in scale.gains:
            lo = decode_distances(np.full(4, -30.0), g)
            hi = decode_distances(np.full(4, 30.0), g)
            assert np.all((0 < lo) & (lo < 1e-10))
            assert np.all((4 * g - 1e-8 < hi) & (hi < 4 * g))

    def test_strictly_monotone(self):
        p = np.linspace(-30, 30, 2001)
        d = decode_distances(p, 2.0)
        assert np.all(np.diff(d) > 0)

    def test_derivative_matches_finite_differences(self):
        # atol covers the differencing noise floor (~1e-16 * gain / h) that
        # dominates deep in the saturated tails
        p = np.linspace(-10, 10, 501)
        h = 1e-6
        fd = (decode_distances(p + h, 4.0) - decode_distances(p - h, 4.0)) / (2 * h)
        analytic = decode_jacobian(p, 4.0)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)


    @settings(max_examples=300)
    @given(logits=arrays(float, st.integers(1, 40), elements=st.floats(-800.0, 800.0)
                         | st.floats(-380.0, -350.0)),
           gain=st.sampled_from([2.0, 4.0, 16.0, 0.3]), per_row=st.booleans())
    def test_shared_decode_has_the_bits_of_each_function(self, logits, gain, per_row):
        # [-380, -350] is where s*s turns subnormal and 2*d*(1-s) would round apart
        if per_row:
            gain = np.linspace(0.5, 16.0, logits.size)
        d, jacobian = decode_with_jacobian(logits, gain)
        assert d.tobytes() == decode_distances(logits, gain).tobytes()
        assert jacobian.tobytes() == decode_jacobian(logits, gain).tobytes()

    def test_shared_decode_in_the_subnormal_band(self):
        logits = np.linspace(-380.0, -350.0, 20001)
        d, jacobian = decode_with_jacobian(logits, 2.0)
        assert d.tobytes() == decode_distances(logits, 2.0).tobytes()
        assert jacobian.tobytes() == decode_jacobian(logits, 2.0).tobytes()
        # the band is a real trap: the Jacobian from d rounds apart there
        assert np.count_nonzero(2.0 * d * (1.0 - expit(logits)) != jacobian) > 0


class TestEncodeLogit:
    def test_inverse_of_zero_case(self, scale):
        p = encode_logit_array(np.full(4, 2.0), scale.gains[0])
        assert p == pytest.approx([0, 0, 0, 0], abs=1e-12)

    def test_boundary_rejected_with_component_name(self, scale):
        with pytest.raises(CodecError, match="r=8"):
            encode_logit_array(np.array([2, 2, 8.0, 2]), scale.gains[0])
        with pytest.raises(CodecError, match="t="):
            encode_logit_array(np.array([2, 0.0, 2, 2]), scale.gains[0])

    @settings(max_examples=200)
    @given(rows=st.integers(2, 6), data=st.data(), per_row=st.booleans(),
           points=st.booleans(), width=st.sampled_from([4, 3]))
    def test_later_row_names_the_same_entry(self, rows, data, per_row, points, width):
        # the first bad entry sits in a later row, among more bad entries
        gain = np.array([2.0, 4.0, 16.0, 0.5, 1.0, 8.0])[:rows, None] if per_row else 2.0
        row_gain = np.broadcast_to(gain, (rows, 1))
        d = 1.5 * row_gain * np.ones(width)
        for _ in range(data.draw(st.integers(1, 3))):
            row = data.draw(st.integers(1, rows - 1))
            col = data.draw(st.integers(0, width - 1))
            d[row, col] = data.draw(st.sampled_from([0.0, -1.0, 4.0, 1e9])) * row_gain[row, 0]
        if points:   # run_gradcheck's (n, 1, 4) points against (n, 1, 1) gains
            d, gain = d[:, None], np.asarray(gain)[..., None]
        with pytest.raises(CodecError) as want:
            reference_encode_logit_array(d, gain)
        with pytest.raises(CodecError) as got:
            encode_logit_array(d, gain)
        assert str(got.value) == str(want.value)

    def test_round_trip(self, scale, rng):
        for i, g in enumerate(scale.gains):
            d = rng.uniform(1e-6, 4 * g - 1e-6, size=(1000, 4))
            p = encode_logit_array(d, g)
            back = decode_distances(p, g)
            np.testing.assert_allclose(back, d, rtol=0, atol=1e-9)

    def test_round_trip_scalar_types(self, scale, rng):
        for _ in range(50):
            i = int(rng.integers(3))
            g = scale.gains[i]
            t = RegressionTarget(*rng.uniform(0.01, 4 * g - 0.01, size=4), i)
            back = decode_distances(encode_logit_array(t.as_array(), g), g)
            np.testing.assert_allclose(back, t.as_array(), atol=1e-9)

