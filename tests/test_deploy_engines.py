"""Tests for the float and integer graph executors and the int8 lowering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import (
    FloatGraphExecutor,
    IntegerGraphExecutor,
    lower_to_int8,
    quantize_multiplier,
    requantize,
    trace_bioformer,
    trace_temponet,
)
from repro.deploy.engine import (
    avgpool1d_reference,
    conv1d_reference,
    gelu_reference,
    layernorm_reference,
    softmax_reference,
)
from repro.deploy.graph import ComputeGraph, GraphNode, TensorSpec
from repro.deploy.tracers import _folded_batchnorm
from repro.models import Bioformer, BioformerConfig, temponet
from repro.nn import BatchNorm1d
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def small_bioformer(**overrides):
    config = BioformerConfig(
        num_channels=4, window_samples=60, patch_size=10, depth=1, num_heads=2, seed=11, **overrides
    )
    return Bioformer(config).eval()


def small_temponet():
    return temponet(num_channels=4, window_samples=80, seed=11).eval()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


# --------------------------------------------------------------------- #
# Reference kernels
# --------------------------------------------------------------------- #
class TestReferenceKernels:
    def test_conv1d_matches_framework(self, rng):
        x = rng.normal(size=(2, 3, 20))
        weight = rng.normal(size=(5, 3, 4))
        bias = rng.normal(size=5)
        expected = F.conv1d(Tensor(x), Tensor(weight), Tensor(bias), stride=2, padding=1, dilation=1)
        actual = conv1d_reference(x, weight, bias, stride=2, padding=1, dilation=1)
        np.testing.assert_allclose(actual, expected.data, atol=1e-10)

    def test_conv1d_dilation_matches_framework(self, rng):
        x = rng.normal(size=(1, 2, 30))
        weight = rng.normal(size=(4, 2, 3))
        expected = F.conv1d(Tensor(x), Tensor(weight), None, stride=1, padding=2, dilation=2)
        actual = conv1d_reference(x, weight, None, stride=1, padding=2, dilation=2)
        np.testing.assert_allclose(actual, expected.data, atol=1e-10)

    def test_conv1d_rejects_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="input channels"):
            conv1d_reference(rng.normal(size=(1, 3, 10)), rng.normal(size=(2, 4, 3)), None, 1, 0, 1)

    def test_gelu_matches_framework(self, rng):
        # A random sample plus a dense sweep of the active range: a cube
        # spelled ``x**3`` instead of ``x * x * x`` is off by a ULP somewhere.
        for x in (rng.normal(size=(5, 7)), np.linspace(-8.0, 8.0, 20001)):
            expected = F.gelu(Tensor(x)).data
            np.testing.assert_array_equal(gelu_reference(x), expected)

    def test_layernorm_matches_framework(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(3, 7, 16)) * 4 + 1
        weight = rng.normal(size=16)
        bias = rng.normal(size=16)
        expected = F.layer_norm(Tensor(x), Tensor(weight), Tensor(bias), eps=1e-5).data
        np.testing.assert_array_equal(layernorm_reference(x, weight, bias, 1e-5), expected)

    @pytest.mark.parametrize("kernel_size,stride", [(2, 2), (3, 2), (4, 1)])
    def test_avgpool1d_matches_framework(self, kernel_size, stride):
        x = np.random.default_rng(52).normal(size=(2, 5, 23))
        expected = F.avg_pool1d(Tensor(x), kernel_size, stride).data
        np.testing.assert_array_equal(avgpool1d_reference(x, kernel_size, stride), expected)

    def test_channel_affine_matches_eval_batchnorm(self):
        rng = np.random.default_rng(53)
        bn = BatchNorm1d(6)
        bn.weight.data[:] = rng.normal(size=6)
        bn.bias.data[:] = rng.normal(size=6)
        bn.running_mean[:] = rng.normal(size=6)
        bn.running_var[:] = rng.uniform(0.1, 3.0, size=6)
        bn.eval()
        x = rng.normal(size=(3, 6, 11))
        affine = GraphNode(
            name="bn",
            op="channel_affine",
            inputs=["input"],
            output=TensorSpec("out", (6, 11)),
            weights=_folded_batchnorm(bn),
        )
        graph = ComputeGraph("bn", TensorSpec("input", (6, 11)), [affine])
        np.testing.assert_array_equal(FloatGraphExecutor(graph).run(x), bn(Tensor(x)).data)

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(3, 9)) * 10
        probabilities = softmax_reference(x)
        np.testing.assert_allclose(probabilities.sum(axis=-1), 1.0, atol=1e-12)


# --------------------------------------------------------------------- #
# Float executor: trace fidelity
# --------------------------------------------------------------------- #
class TestFloatExecutorParity:
    def test_bioformer_parity(self, rng):
        model = small_bioformer()
        x = rng.normal(size=(5, 4, 60))
        expected = model(x).data
        actual = FloatGraphExecutor(trace_bioformer(model)).run(x)
        np.testing.assert_array_equal(actual, expected)

    def test_bioformer_mean_pooling_parity(self, rng):
        model = small_bioformer(pooling="mean")
        x = rng.normal(size=(3, 4, 60))
        np.testing.assert_array_equal(FloatGraphExecutor(trace_bioformer(model)).run(x), model(x).data)

    def test_bioformer_depth2_parity(self, rng):
        model = Bioformer(
            BioformerConfig(num_channels=4, window_samples=60, patch_size=10, depth=2, num_heads=2, seed=5)
        ).eval()
        x = rng.normal(size=(2, 4, 60))
        np.testing.assert_array_equal(FloatGraphExecutor(trace_bioformer(model)).run(x), model(x).data)

    def test_temponet_parity(self, rng):
        model = small_temponet()
        x = rng.normal(size=(4, 4, 80))
        np.testing.assert_array_equal(FloatGraphExecutor(trace_temponet(model)).run(x), model(x).data)

    def test_single_sample_without_batch_axis(self, rng):
        model = small_bioformer()
        x = rng.normal(size=(4, 60))
        output = FloatGraphExecutor(trace_bioformer(model)).run(x)
        assert output.shape == (1, 8)

    def test_wrong_input_shape_rejected(self, rng):
        executor = FloatGraphExecutor(trace_bioformer(small_bioformer()))
        with pytest.raises(ValueError, match="expects input shape"):
            executor.run(rng.normal(size=(2, 3, 60)))

    def test_recording_contains_every_tensor(self, rng):
        model = small_bioformer()
        graph = trace_bioformer(model)
        recorded = FloatGraphExecutor(graph).run_recording(rng.normal(size=(2, 4, 60)))
        assert set(recorded) == set(graph.tensor_specs())

    def test_predict_returns_class_indices(self, rng):
        model = small_bioformer()
        predictions = FloatGraphExecutor(trace_bioformer(model)).predict(rng.normal(size=(6, 4, 60)))
        assert predictions.shape == (6,)
        assert predictions.min() >= 0 and predictions.max() < 8


# --------------------------------------------------------------------- #
# Requantisation primitives
# --------------------------------------------------------------------- #
class TestRequantization:
    def test_quantize_multiplier_reconstruction(self):
        for value in (1.0, 0.5, 0.013, 7.3e-4, 3.9, 123.4):
            multiplier, shift = quantize_multiplier(value)
            reconstructed = multiplier * 2.0**-shift
            assert reconstructed == pytest.approx(value, rel=1e-6)

    def test_quantize_multiplier_rejects_non_positive(self):
        with pytest.raises(ValueError):
            quantize_multiplier(0.0)
        with pytest.raises(ValueError):
            quantize_multiplier(-1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_quantize_multiplier_accuracy_property(self, value):
        multiplier, shift = quantize_multiplier(value)
        assert abs(multiplier * 2.0**-shift - value) <= 1e-6 * value

    @given(
        st.lists(st.integers(min_value=-(2**20), max_value=2**20), min_size=1, max_size=32),
        st.floats(min_value=1e-4, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_requantize_matches_float_rounding(self, values, factor):
        accumulators = np.asarray(values, dtype=np.int64)
        result = requantize(accumulators, factor)
        expected = np.clip(np.round(accumulators * factor), -128, 127)
        # Fixed-point rounding may differ by at most one LSB from float rounding.
        assert np.all(np.abs(result - expected) <= 1)

    def test_requantize_clips_to_int8(self):
        assert requantize(np.array([10**9]), 1.0).max() == 127
        assert requantize(np.array([-(10**9)]), 1.0).min() == -128

    def test_requantize_negative_factor_flips_sign(self):
        values = np.array([100, -50])
        positive = requantize(values, 0.5)
        negative = requantize(values, -0.5)
        np.testing.assert_array_equal(negative, requantize(-values, 0.5))
        assert positive[0] == -negative[0]

    def test_requantize_left_shift_saturates_instead_of_overflowing(self):
        """Regression: factors > 1 encode as a *left* shift (negative
        ``shift`` from ``quantize_multiplier``), and the shift used to run
        on the raw int64 product — ``2**30 * 2**33`` wrapped negative and
        came back as -128 instead of saturating at +127."""
        accumulators = np.array([2**30, -(2**30), 0], dtype=np.int64)
        multiplier, shift = quantize_multiplier(2.0**33)
        assert shift < 0  # the boundary this test pins: a left shift
        np.testing.assert_array_equal(
            requantize(accumulators, 2.0**33), np.array([127, -128, 0])
        )

    def test_requantize_huge_left_shift_saturates(self):
        """A shift large enough that even the clipped int8 value would
        overflow int64 when shifted: nonzero values saturate directly."""
        accumulators = np.array([5, -5, 0], dtype=np.int64)
        np.testing.assert_array_equal(
            requantize(accumulators, 2.0**100), np.array([127, -128, 0])
        )

    def test_requantize_boundary_multipliers_stay_exact(self):
        """Small magnitudes under a left shift still requantise exactly
        (the clip-before-shift reordering must not change in-range math)."""
        accumulators = np.arange(-8, 9, dtype=np.int64)
        for factor in (2.0, 4.0, 8.0):
            expected = np.clip(accumulators * int(factor), -128, 127)
            np.testing.assert_array_equal(requantize(accumulators, factor), expected)


# --------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------- #
class TestLowering:
    def test_every_tensor_gets_activation_scale(self, rng):
        model = small_bioformer()
        graph = trace_bioformer(model)
        quantized = lower_to_int8(graph, rng.normal(size=(8, 4, 60)))
        assert set(quantized.activations) == set(graph.tensor_specs())
        assert all(act.scale > 0 for act in quantized.activations.values())

    def test_weight_footprint_close_to_parameter_count(self, rng):
        model = small_bioformer()
        graph = trace_bioformer(model)
        quantized = lower_to_int8(graph, rng.normal(size=(4, 4, 60)))
        # int8 weights ~1 byte/param + int32 biases; allow the bias overhead.
        assert quantized.total_weight_bytes >= model.num_parameters()
        assert quantized.total_weight_bytes <= 1.6 * model.num_parameters()

    def test_paper_scale_bioformer_memory_footprint(self, rng):
        """Bio1 with filter 10 must land near the paper's 94.2 kB figure."""
        from repro.models import bioformer_bio1

        model = bioformer_bio1(patch_size=10).eval()
        graph = trace_bioformer(model)
        quantized = lower_to_int8(graph, rng.normal(size=(2, 14, 300)))
        assert 85.0 <= quantized.weight_kilobytes <= 110.0

    def test_softmax_scale_pinned(self, rng):
        model = small_bioformer()
        graph = trace_bioformer(model)
        quantized = lower_to_int8(graph, rng.normal(size=(4, 4, 60)))
        softmax_nodes = [node for node in graph if node.op == "softmax"]
        for node in softmax_nodes:
            assert quantized.activations[node.output.name].scale == pytest.approx(1.0 / 127.0)

    def test_conv_and_linear_nodes_have_requantizers(self, rng):
        model = small_temponet()
        graph = trace_temponet(model)
        quantized = lower_to_int8(graph, rng.normal(size=(4, 4, 80)))
        for node in graph:
            if node.op in ("conv1d", "linear"):
                lowered = quantized.nodes[node.name]
                assert "weight" in lowered.constants
                assert lowered.constants["weight"].dtype == "int8"
                assert "output" in lowered.requantizers

    def test_activation_bits_respected(self, rng):
        model = small_bioformer()
        graph = trace_bioformer(model)
        quantized = lower_to_int8(graph, rng.normal(size=(4, 4, 60)), activation_bits=6)
        assert quantized.input_quantization.qmax == 31
        assert quantized.input_quantization.qmin == -32


# --------------------------------------------------------------------- #
# Vectorised integer kernels vs. the original per-tap accumulation loops
# --------------------------------------------------------------------- #
def _int_conv1d_taploop(q_x, q_weight, stride, padding, dilation):
    """Per-tap integer conv1d: the reference the executor's im2col GEMM must equal."""
    q_x = q_x.astype(np.int64)
    q_weight = q_weight.astype(np.int64)
    batch, _, length = q_x.shape
    out_channels, _, kernel = q_weight.shape
    if padding > 0:
        q_x = np.pad(q_x, ((0, 0), (0, 0), (padding, padding)))
        length = q_x.shape[-1]
    effective = dilation * (kernel - 1) + 1
    out_length = (length - effective) // stride + 1
    accumulator = np.zeros((batch, out_channels, out_length), dtype=np.int64)
    for tap in range(kernel):
        start = tap * dilation
        stop = start + stride * out_length
        window = q_x[:, :, start:stop:stride]
        accumulator += np.einsum("bcl,oc->bol", window, q_weight[:, :, tap])
    return accumulator


def _int_avgpool_taploop(q_x, kernel, stride):
    """Per-tap accumulation of the integer average-pool (pre-requantisation)."""
    batch, channels, length = q_x.shape
    out_length = (length - kernel) // stride + 1
    accumulator = np.zeros((batch, channels, out_length), dtype=np.int64)
    for tap in range(kernel):
        accumulator += q_x[:, :, tap : tap + stride * out_length : stride]
    return accumulator


class TestVectorizedIntegerKernels:
    @given(
        batch=st.integers(1, 3),
        in_channels=st.integers(1, 5),
        out_channels=st.integers(1, 5),
        length=st.integers(8, 40),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
        dilation=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_int_conv1d_equals_taploop(
        self, batch, in_channels, out_channels, length, kernel, stride, padding, dilation
    ):
        from repro.deploy.int_engine import int_gemm
        from repro.nn.functional import im2col

        effective = dilation * (kernel - 1) + 1
        if length + 2 * padding < effective:
            return  # empty output; the executor never builds such nodes
        generator = np.random.default_rng(batch * 1000 + length * 10 + kernel)
        q_x = generator.integers(-128, 128, size=(batch, in_channels, length))
        q_weight = generator.integers(-128, 128, size=(out_channels, in_channels, kernel))
        patches = im2col(q_x, kernel, stride, padding, dilation)
        flat_weight = q_weight.reshape(out_channels, in_channels * kernel)
        np.testing.assert_array_equal(
            int_gemm(patches, flat_weight.T).transpose(0, 2, 1),
            _int_conv1d_taploop(q_x, q_weight, stride, padding, dilation),
        )

    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 6),
        length=st.integers(4, 48),
        kernel=st.integers(1, 6),
        stride=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_int_avgpool_equals_taploop(self, batch, channels, length, kernel, stride):
        if length < kernel:
            return
        generator = np.random.default_rng(channels * 100 + length)
        q_x = generator.integers(-128, 128, size=(batch, channels, length))
        windows = np.lib.stride_tricks.sliding_window_view(q_x, kernel, axis=-1)
        vectorized = windows[:, :, ::stride, :].astype(np.int64).sum(axis=-1)
        np.testing.assert_array_equal(vectorized, _int_avgpool_taploop(q_x, kernel, stride))


# --------------------------------------------------------------------- #
# Integer executor
# --------------------------------------------------------------------- #
class TestIntegerExecutor:
    def test_bioformer_int8_agreement_with_float(self, rng):
        model = small_bioformer()
        graph = trace_bioformer(model)
        calibration = rng.normal(size=(16, 4, 60))
        quantized = lower_to_int8(graph, calibration)
        executor = IntegerGraphExecutor(quantized)
        agreement = executor.agreement_with_float(rng.normal(size=(24, 4, 60)))
        assert agreement >= 0.75

    def test_temponet_int8_agreement_with_float(self, rng):
        model = small_temponet()
        graph = trace_temponet(model)
        calibration = rng.normal(size=(16, 4, 80))
        quantized = lower_to_int8(graph, calibration)
        executor = IntegerGraphExecutor(quantized)
        agreement = executor.agreement_with_float(rng.normal(size=(24, 4, 80)))
        assert agreement >= 0.85

    def test_integer_logits_correlate_with_float(self, rng):
        model = small_bioformer()
        graph = trace_bioformer(model)
        inputs = rng.normal(size=(12, 4, 60))
        quantized = lower_to_int8(graph, inputs)
        float_logits = FloatGraphExecutor(graph).run(inputs)
        integer_logits = IntegerGraphExecutor(quantized).run(inputs)
        correlation = np.corrcoef(float_logits.ravel(), integer_logits.ravel())[0, 1]
        assert correlation >= 0.85

    def test_integer_outputs_are_int8_grid(self, rng):
        model = small_bioformer()
        graph = trace_bioformer(model)
        quantized = lower_to_int8(graph, rng.normal(size=(4, 4, 60)))
        integer_logits = IntegerGraphExecutor(quantized).run_integer(rng.normal(size=(3, 4, 60)))
        assert integer_logits.dtype in (np.int32, np.int64)
        assert integer_logits.min() >= -128 and integer_logits.max() <= 127

    def test_predictions_shape(self, rng):
        model = small_temponet()
        quantized = lower_to_int8(trace_temponet(model), rng.normal(size=(4, 4, 80)))
        predictions = IntegerGraphExecutor(quantized).predict(rng.normal(size=(5, 4, 80)))
        assert predictions.shape == (5,)

    def test_lower_activation_bits_degrade_gracefully(self, rng):
        model = small_bioformer()
        graph = trace_bioformer(model)
        calibration = rng.normal(size=(16, 4, 60))
        evaluation = rng.normal(size=(24, 4, 60))
        agreement_8 = IntegerGraphExecutor(lower_to_int8(graph, calibration)).agreement_with_float(
            evaluation
        )
        agreement_4 = IntegerGraphExecutor(
            lower_to_int8(graph, calibration, weight_bits=4, activation_bits=4)
        ).agreement_with_float(evaluation)
        assert agreement_8 >= agreement_4
