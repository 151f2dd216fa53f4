"""Tests of the I-BERT integer-only kernels against float references."""

import math

import numpy as np
import pytest
from scipy.special import erf, softmax as scipy_softmax

from repro.quant import (
    integer_erf,
    integer_exp,
    integer_gelu,
    integer_layernorm,
    integer_polynomial,
    integer_softmax,
    integer_sqrt,
)


def to_integer(values, scale):
    return np.round(values / scale).astype(np.int64)


class TestIntegerPolynomial:
    def test_matches_float_polynomial(self):
        scale = 0.01
        values = np.linspace(-1.5, 0.0, 50)
        q = to_integer(values, scale)
        q_out, scale_out = integer_polynomial(q, scale, (0.3585, 1.353, 0.344))
        expected = 0.3585 * (values + 1.353) ** 2 + 0.344
        np.testing.assert_allclose(q_out * scale_out, expected, atol=0.02)


class TestIntegerErfGelu:
    def test_erf_close_to_reference(self):
        """The I-BERT second-order polynomial has up to ~0.1 absolute error on
        raw erf near zero (by design: the error is suppressed by the ``x *``
        factor inside GELU); away from zero it is much tighter."""
        scale = 0.005
        values = np.linspace(-3, 3, 200)
        q_out, scale_out = integer_erf(to_integer(values, scale), scale)
        np.testing.assert_allclose(q_out * scale_out, erf(values), atol=0.11)
        tails = np.abs(values) > 1.5
        np.testing.assert_allclose((q_out * scale_out)[tails], erf(values)[tails], atol=0.03)

    def test_gelu_close_to_reference(self):
        scale = 0.005
        values = np.linspace(-4, 4, 200)
        q_out, scale_out = integer_gelu(to_integer(values, scale), scale)
        reference = values * 0.5 * (1.0 + erf(values / np.sqrt(2)))
        np.testing.assert_allclose(q_out * scale_out, reference, atol=0.05)

    def test_gelu_preserves_large_positive_values(self):
        scale = 0.01
        values = np.array([5.0, 8.0])
        q_out, scale_out = integer_gelu(to_integer(values, scale), scale)
        np.testing.assert_allclose(q_out * scale_out, values, rtol=0.02)


class TestIntegerExpSoftmax:
    def test_exp_matches_reference_for_negative_inputs(self):
        scale = 0.002
        values = np.linspace(-8, 0, 300)
        q_out, scale_out = integer_exp(to_integer(values, scale), scale)
        np.testing.assert_allclose(q_out * scale_out, np.exp(values), atol=0.02)

    def test_softmax_close_to_reference(self, rng):
        scale = 0.01
        logits = rng.standard_normal((4, 10)) * 3
        q_out, scale_out = integer_softmax(to_integer(logits, scale), scale, axis=-1)
        reference = scipy_softmax(logits, axis=-1)
        np.testing.assert_allclose(q_out * scale_out, reference, atol=0.02)

    def test_softmax_sums_to_one(self, rng):
        scale = 0.02
        logits = rng.standard_normal((8, 16))
        q_out, scale_out = integer_softmax(to_integer(logits, scale), scale)
        sums = (q_out * scale_out).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=0.02)

    def test_softmax_argmax_preserved(self, rng):
        scale = 0.01
        logits = rng.standard_normal((20, 8)) * 2
        q_out, _ = integer_softmax(to_integer(logits, scale), scale)
        np.testing.assert_array_equal(q_out.argmax(axis=-1), logits.argmax(axis=-1))


def newton_integer_sqrt(values):
    """I-BERT Alg. 4: 20 Newton steps from ``2**ceil(bits / 2)``, the
    reference :func:`integer_sqrt` must equal."""
    values = np.asarray(values, dtype=np.int64)
    result = np.zeros_like(values)
    positive = values > 0
    x = values[positive]
    estimate = (2 ** np.ceil(np.log2(np.maximum(x, 1)) / 2.0)).astype(np.int64)
    for _ in range(20):
        new_estimate = (estimate + x // np.maximum(estimate, 1)) // 2
        estimate = np.where(new_estimate >= estimate, estimate, new_estimate)
    result[positive] = estimate
    return result


class TestIntegerSqrt:
    def test_equals_newton_below_2_to_20(self):
        values = np.arange(2**20)
        np.testing.assert_array_equal(integer_sqrt(values), newton_integer_sqrt(values))

    @pytest.mark.parametrize("bound", [2**40, 2**52, np.iinfo(np.int64).max])
    def test_equals_newton_on_random_draws(self, rng, bound):
        values = rng.integers(0, bound, size=20_000, dtype=np.int64)
        np.testing.assert_array_equal(integer_sqrt(values), newton_integer_sqrt(values))

    @pytest.mark.parametrize(
        "root", [2**13, 2**15 + 3, 2**26 - 1, 2**26, 2**26 + 1, 2**31 - 1, 2**31, 2**31 + 1, 3_037_000_499]
    )
    def test_exact_around_squares(self, root):
        """k**2 - 1, k**2 and k**2 + 1, up to the largest square in int64."""
        values = np.array([root * root - 1, root * root, root * root + 1], dtype=np.int64)
        expected = [math.isqrt(int(value)) for value in values]
        np.testing.assert_array_equal(integer_sqrt(values), expected)
        np.testing.assert_array_equal(newton_integer_sqrt(values), expected)

    def test_exact_on_perfect_squares(self):
        values = np.array([0, 1, 4, 9, 144, 10_000, 2**30])
        np.testing.assert_array_equal(integer_sqrt(values), np.sqrt(values).astype(np.int64))

    def test_floor_behaviour(self):
        np.testing.assert_array_equal(integer_sqrt(np.array([2, 8, 99])), [1, 2, 9])

    def test_large_values(self, rng):
        values = rng.integers(1, 2**40, size=100)
        result = integer_sqrt(values)
        assert np.all(result**2 <= values)
        assert np.all((result + 1) ** 2 > values)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            integer_sqrt(np.array([-1]))


class TestIntegerLayerNorm:
    def test_matches_float_layernorm(self, rng):
        scale = 0.01
        values = rng.standard_normal((4, 64)) * 2
        weight = np.ones(64)
        bias = np.zeros(64)
        q_out, scale_out = integer_layernorm(to_integer(values, scale), scale, weight, bias)
        reference = (values - values.mean(-1, keepdims=True)) / values.std(-1, keepdims=True)
        np.testing.assert_allclose(q_out * scale_out, reference, atol=0.08)

    def test_affine_parameters_applied(self, rng):
        scale = 0.01
        values = rng.standard_normal((2, 32))
        weight = 2.0 * np.ones(32)
        bias = 0.5 * np.ones(32)
        q_out, scale_out = integer_layernorm(to_integer(values, scale), scale, weight, bias)
        reference = 2.0 * (values - values.mean(-1, keepdims=True)) / values.std(-1, keepdims=True) + 0.5
        np.testing.assert_allclose(q_out * scale_out, reference, atol=0.15)
