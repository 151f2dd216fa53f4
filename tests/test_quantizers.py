"""Tests of the one int8 quantiser (``repro.quant.quantizers``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.quant import QMAX, QMIN, dequantize, fake_quantize, quantize, weight_scale


class TestGrid:
    def test_int8_ranges(self):
        assert (QMIN, QMAX) == (-128, 127)
        assert QMAX - QMIN + 1 == 256


class TestQuantizeDequantize:
    def test_roundtrip_error_bounded_by_half_scale(self, rng):
        values = rng.standard_normal(1000) * 3
        scale = weight_scale(values)
        reconstruction = dequantize(quantize(values, scale), scale)
        assert np.max(np.abs(values - reconstruction)) <= float(scale) * 0.5 + 1e-12

    def test_zero_range_does_not_divide_by_zero(self):
        scale = weight_scale(np.array([0.0, 0.0]))
        assert np.all(np.isfinite(scale))

    def test_weight_scale_divides_the_bound_by_128(self):
        """Weights divide ``max|w|`` by ``-QMIN`` (activations divide by
        ``QMAX``), and an all-zero tensor takes the bound ``1e-8``."""
        assert weight_scale(np.array([-2.0, 3.0])) == 3.0 / 128
        assert weight_scale(np.array([-3.0, 2.0])) == 3.0 / 128
        assert weight_scale(np.zeros(4)) == 1e-8 / 128

    def test_zero_maps_to_integer_zero(self):
        q = quantize(np.array([0.0, -0.0, -1e-12]), 0.5)
        assert q.dtype == np.int32
        np.testing.assert_array_equal(q, [0, 0, 0])
        assert not np.signbit(dequantize(q, 0.5)).any()

    def test_int8_grid_as_int32(self, rng):
        values = rng.standard_normal(10)
        q = quantize(values, weight_scale(values))
        assert q.dtype == np.int32
        assert QMIN <= q.min() and q.max() <= QMAX

    def test_fake_quantize_idempotent(self, rng):
        values = rng.standard_normal(50)
        scale = weight_scale(values)
        once = fake_quantize(values, scale)
        twice = fake_quantize(once, scale)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    @given(arrays(np.float64, (64,), elements=st.floats(-100, 100)))
    @settings(max_examples=40, deadline=None)
    def test_quantization_error_property(self, values):
        """int8 RMS quantisation error is below 1% of the value range."""
        reconstruction = fake_quantize(values, weight_scale(values))
        error = float(np.sqrt(np.mean((values - reconstruction) ** 2)))
        value_range = max(np.abs(values).max(), 1e-8)
        assert error <= 0.01 * value_range + 1e-9

    def test_quantize_saturates_to_the_int8_range(self):
        """Values past the bound clip to ``QMIN``/``QMAX``; a weight's positive
        maximum maps to +128 and clips to 127 (the known positive-bound clip)."""
        np.testing.assert_array_equal(quantize(np.array([1e6, -1e6, 127.4, -128.4]), 1.0), [QMAX, QMIN, QMAX, QMIN])
        weights = np.array([-2.0, 3.0])
        np.testing.assert_array_equal(quantize(weights, weight_scale(weights)), [-85, QMAX])

    def test_rounding_is_half_to_even(self):
        """Ties round to the even integer (``np.round``), not away from zero."""
        q = quantize(np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5]), 1.0)
        np.testing.assert_array_equal(q, [0, 2, 2, 0, -2, -2])

    @given(
        arrays(np.float64, (32,), elements=st.floats(-100, 100)),
        st.floats(1e-3, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_fake_quantize_is_dequantize_of_quantize(self, values, scale):
        """QAT's fake quantisation equals the deployed ``q * scale`` bit for bit,
        and lands within half a step of every value inside the grid."""
        q = quantize(values, scale)
        assert q.dtype == np.int32 and QMIN <= q.min() and q.max() <= QMAX
        fake = fake_quantize(values, scale)
        np.testing.assert_array_equal(fake, q.astype(np.float64) * scale)
        inside = (values / scale >= QMIN) & (values / scale <= QMAX)
        assert np.all(np.abs(values - fake)[inside] <= scale * 0.5 * (1 + 1e-12))
