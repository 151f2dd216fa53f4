"""Tests for the float and integer graph executors and the int8 lowering."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import (
    FloatGraphExecutor,
    IntegerGraphExecutor,
    LoweringConfig,
    lower_to_int8,
    quantize_multiplier,
    requantize,
    trace_model,
)
from repro.deploy.graph import ComputeGraph, GraphNode, TensorSpec
from repro.models import Bioformer, BioformerConfig, build_model, temponet
from repro.nn import BatchNorm1d, Module
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.serve import Int8Backend


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
# The float op set: one functional op per operator, on Tensor and ndarray
# --------------------------------------------------------------------- #
def assert_same_bits(actual, expected):
    """Equal bit patterns: unlike ``==``, tells ``-0.0`` from ``+0.0``."""
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestFunctionalOpsOnArrays:
    """Each float op the executor binds gives on an ``ndarray`` the bits it
    gives on a ``Tensor``, so the traced graph runs the training forward."""

    def test_conv1d_matches_framework(self, rng):
        x = rng.normal(size=(2, 3, 20))
        weight = rng.normal(size=(5, 3, 4))
        bias = rng.normal(size=5)
        expected = F.conv1d(Tensor(x), Tensor(weight), Tensor(bias), stride=2, padding=1, dilation=1)
        actual, _ = F.conv1d_array(x, weight, bias, stride=2, padding=1, dilation=1)
        assert_same_bits(actual, expected.data)

    def test_conv1d_dilation_matches_framework(self, rng):
        x = rng.normal(size=(1, 2, 30))
        weight = rng.normal(size=(4, 2, 3))
        expected = F.conv1d(Tensor(x), Tensor(weight), None, stride=1, padding=2, dilation=2)
        actual, _ = F.conv1d_array(x, weight, None, stride=1, padding=2, dilation=2)
        assert_same_bits(actual, expected.data)

    def test_conv1d_rejects_channel_mismatch(self, rng):
        x, weight = rng.normal(size=(1, 3, 10)), rng.normal(size=(2, 4, 3))
        with pytest.raises(ValueError, match="input channels"):
            F.conv1d_array(x, weight, None, 1, 0, 1)
        with pytest.raises(ValueError, match="input channels"):
            F.conv1d(Tensor(x), Tensor(weight))

    def test_linear_matches_framework(self, rng):
        x, weight, bias = rng.normal(size=(3, 7, 16)), rng.normal(size=(5, 16)), rng.normal(size=5)
        expected = F.linear(Tensor(x), Tensor(weight), Tensor(bias)).data
        assert_same_bits(F.linear(x, weight, bias), expected)
        assert_same_bits(F.linear(x, weight), F.linear(Tensor(x), Tensor(weight)).data)

    def test_relu_matches_framework_including_signed_zeros(self, rng):
        x = np.concatenate([rng.normal(size=50), [0.0, -0.0, -1.0, 1.0]])
        expected = F.relu(Tensor(x)).data
        assert_same_bits(F.relu(x), expected)
        assert np.signbit(F.relu(x)[-2])  # ``x * mask``: a negative input gives -0.0

    def test_gelu_matches_framework(self, rng):
        # A random sample plus a dense sweep of the active range: a cube
        # spelled ``x**3`` instead of ``x * x * x`` is off by a ULP somewhere.
        for x in (rng.normal(size=(5, 7)), np.linspace(-8.0, 8.0, 20001)):
            assert_same_bits(F.gelu(x), F.gelu(Tensor(x)).data)

    def test_layernorm_matches_framework(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(3, 7, 16)) * 4 + 1
        weight = rng.normal(size=16)
        bias = rng.normal(size=16)
        expected = F.layer_norm(Tensor(x), Tensor(weight), Tensor(bias), eps=1e-5).data
        assert_same_bits(F.layer_norm(x, weight, bias, 1e-5), expected)

    @pytest.mark.parametrize("kernel_size,stride", [(2, 2), (3, 2), (4, 1)])
    def test_avgpool1d_matches_framework(self, kernel_size, stride):
        x = np.random.default_rng(52).normal(size=(2, 5, 23))
        expected = F.avg_pool1d(Tensor(x), kernel_size, stride).data
        assert_same_bits(F.avg_pool1d(x, kernel_size, stride), expected)

    def test_softmax_matches_framework(self, rng):
        x = rng.normal(size=(2, 3, 9)) * 10
        for axis in (-1, 1):
            assert_same_bits(F.softmax(x, axis), F.softmax(Tensor(x), axis).data)
        np.testing.assert_allclose(F.softmax(x).sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("arch,patch", [("bio1", 10), ("bio2", 10), ("temponet", None)])
    def test_every_module_activation_matches_the_model_bitwise(self, arch, patch, monkeypatch):
        """Every graph tensor that a module of the model produces, including
        each ReLU's signed zeros, carries the bits of the model's forward."""
        kwargs = dict(num_channels=4, window_samples=60, seed=11)
        if patch is not None:
            kwargs["patch_size"] = patch
        model = build_model(arch, **kwargs).eval()
        graph = trace_model(model)
        paths = {id(module): path for path, module in model.named_modules()}
        produced, calls = {}, Counter()
        call = Module.__call__

        def recording_call(module, *args, **kwargs):
            out = call(module, *args, **kwargs)
            # A reused module's nth call is node ``path_n``, as the tracer names it.
            path = paths[id(module)]
            produced[f"{path}_{calls[path]}" if calls[path] else path] = out.data
            calls[path] += 1
            return out

        x = np.random.default_rng(13).normal(size=(3, 4, 60))
        with monkeypatch.context() as patched:
            patched.setattr(Module, "__call__", recording_call)
            logits = model(Tensor(x)).data
        observed = {}
        FloatGraphExecutor(graph).run(x, observe=observed.setdefault)
        checked = [node for node in graph.nodes if node.name in produced]
        activation = "relu" if arch == "temponet" else "gelu"
        assert {node.op for node in checked} >= {"conv1d", "linear", activation}
        for node in checked:
            assert_same_bits(observed[node.output.name], produced[node.name])
        assert_same_bits(observed[graph.output.name], logits)

    def test_channel_affine_matches_eval_batchnorm(self):
        rng = np.random.default_rng(53)
        bn = BatchNorm1d(6)
        bn.weight.data[:] = rng.normal(size=6)
        bn.bias.data[:] = rng.normal(size=6)
        bn.running_mean[:] = rng.normal(size=6)
        bn.running_var[:] = rng.uniform(0.1, 3.0, size=6)
        bn.eval()
        x = rng.normal(size=(3, 6, 11))
        scale, shift = F.fold_batch_norm(bn.running_mean, bn.running_var, bn.weight, bn.bias, bn.eps)
        affine = GraphNode(
            name="bn",
            op="channel_affine",
            inputs=["input"],
            output=TensorSpec("out", (6, 11)),
            weights={"scale": scale.data, "shift": shift.data},
        )
        graph = ComputeGraph("bn", TensorSpec("input", (6, 11)), [affine])
        np.testing.assert_array_equal(FloatGraphExecutor(graph).run(x), bn(Tensor(x)).data)


# --------------------------------------------------------------------- #
# Float executor: trace fidelity
# --------------------------------------------------------------------- #
class TestFloatExecutorParity:
    def test_bioformer_parity(self, rng):
        model = small_bioformer()
        x = rng.normal(size=(5, 4, 60))
        expected = model(x).data
        actual = FloatGraphExecutor(trace_model(model)).run(x)
        np.testing.assert_array_equal(actual, expected)

    def test_bioformer_mean_pooling_parity(self, rng):
        model = small_bioformer(pooling="mean")
        x = rng.normal(size=(3, 4, 60))
        np.testing.assert_array_equal(FloatGraphExecutor(trace_model(model)).run(x), model(x).data)

    def test_bioformer_depth2_parity(self, rng):
        model = Bioformer(
            BioformerConfig(num_channels=4, window_samples=60, patch_size=10, depth=2, num_heads=2, seed=5)
        ).eval()
        x = rng.normal(size=(2, 4, 60))
        np.testing.assert_array_equal(FloatGraphExecutor(trace_model(model)).run(x), model(x).data)

    def test_temponet_parity(self, rng):
        model = small_temponet()
        x = rng.normal(size=(4, 4, 80))
        np.testing.assert_array_equal(FloatGraphExecutor(trace_model(model)).run(x), model(x).data)

    def test_single_sample_without_batch_axis(self, rng):
        model = small_bioformer()
        x = rng.normal(size=(4, 60))
        output = FloatGraphExecutor(trace_model(model)).run(x)
        assert output.shape == (1, 8)

    def test_wrong_input_shape_rejected(self, rng):
        executor = FloatGraphExecutor(trace_model(small_bioformer()))
        with pytest.raises(ValueError, match="expects input shape"):
            executor.run(rng.normal(size=(2, 3, 60)))

    def test_recording_contains_every_tensor(self, rng):
        model = small_bioformer()
        graph = trace_model(model)
        recorded = {}

        def observe(name, values):
            assert name not in recorded
            recorded[name] = values

        FloatGraphExecutor(graph).run(rng.normal(size=(2, 4, 60)), observe)
        assert set(recorded) == set(graph.tensor_specs())

    def test_predict_returns_class_indices(self, rng):
        model = small_bioformer()
        predictions = FloatGraphExecutor(trace_model(model)).predict(rng.normal(size=(6, 4, 60)))
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
        graph = trace_model(model)
        quantized = lower_to_int8(graph, rng.normal(size=(8, 4, 60)))
        assert set(quantized.activations) == set(graph.tensor_specs())
        assert all(act.scale > 0 for act in quantized.activations.values())

    def test_weight_footprint_close_to_parameter_count(self, rng):
        model = small_bioformer()
        graph = trace_model(model)
        quantized = lower_to_int8(graph, rng.normal(size=(4, 4, 60)))
        # int8 weights ~1 byte/param + int32 biases; allow the bias overhead.
        assert quantized.total_weight_bytes >= model.num_parameters()
        assert quantized.total_weight_bytes <= 1.6 * model.num_parameters()

    def test_paper_scale_bioformer_memory_footprint(self, rng):
        """Bio1 with filter 10 must land near the paper's 94.2 kB figure."""
        from repro.models import bioformer_bio1

        model = bioformer_bio1(patch_size=10).eval()
        graph = trace_model(model)
        quantized = lower_to_int8(graph, rng.normal(size=(2, 14, 300)))
        assert 85.0 <= quantized.weight_kilobytes <= 110.0

    def test_softmax_scale_pinned(self, rng):
        model = small_bioformer()
        graph = trace_model(model)
        quantized = lower_to_int8(graph, rng.normal(size=(4, 4, 60)))
        softmax_nodes = [node for node in graph if node.op == "softmax"]
        for node in softmax_nodes:
            assert quantized.activations[node.output.name].scale == pytest.approx(1.0 / 127.0)

    def test_conv_and_linear_nodes_have_requantizers(self, rng):
        model = small_temponet()
        graph = trace_model(model)
        quantized = lower_to_int8(graph, rng.normal(size=(4, 4, 80)))
        for node in graph:
            if node.op in ("conv1d", "linear"):
                lowered = quantized.nodes[node.name]
                assert "weight" in lowered.constants
                assert lowered.constants["weight"].dtype == "int8"
                assert "output" in lowered.requantizers

    def test_activation_bits_respected(self, rng):
        model = small_bioformer()
        graph = trace_model(model)
        quantized = lower_to_int8(
            graph, rng.normal(size=(4, 4, 60)), LoweringConfig(activation_bits=6)
        )
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
        graph = trace_model(model)
        calibration = rng.normal(size=(16, 4, 60))
        quantized = lower_to_int8(graph, calibration)
        executor = IntegerGraphExecutor(quantized)
        agreement = executor.agreement_with_float(rng.normal(size=(24, 4, 60)))
        assert agreement >= 0.75

    def test_temponet_int8_agreement_with_float(self, rng):
        model = small_temponet()
        graph = trace_model(model)
        calibration = rng.normal(size=(16, 4, 80))
        quantized = lower_to_int8(graph, calibration)
        executor = IntegerGraphExecutor(quantized)
        agreement = executor.agreement_with_float(rng.normal(size=(24, 4, 80)))
        assert agreement >= 0.85

    def test_integer_logits_correlate_with_float(self, rng):
        model = small_bioformer()
        graph = trace_model(model)
        inputs = rng.normal(size=(12, 4, 60))
        quantized = lower_to_int8(graph, inputs)
        float_logits = FloatGraphExecutor(graph).run(inputs)
        integer_logits = IntegerGraphExecutor(quantized).run(inputs)
        correlation = np.corrcoef(float_logits.ravel(), integer_logits.ravel())[0, 1]
        assert correlation >= 0.85

    def test_integer_outputs_are_int8_grid(self, rng):
        model = small_bioformer()
        graph = trace_model(model)
        quantized = lower_to_int8(graph, rng.normal(size=(4, 4, 60)))
        integer_logits = IntegerGraphExecutor(quantized).run_integer(rng.normal(size=(3, 4, 60)))
        assert integer_logits.dtype in (np.int32, np.int64)
        assert integer_logits.min() >= -128 and integer_logits.max() <= 127

    def test_predictions_shape(self, rng):
        model = small_temponet()
        quantized = lower_to_int8(trace_model(model), rng.normal(size=(4, 4, 80)))
        predictions = IntegerGraphExecutor(quantized).predict(rng.normal(size=(5, 4, 80)))
        assert predictions.shape == (5,)

    def test_lower_activation_bits_degrade_gracefully(self, rng):
        model = small_bioformer()
        graph = trace_model(model)
        calibration = rng.normal(size=(16, 4, 60))
        evaluation = rng.normal(size=(24, 4, 60))
        agreement_8 = IntegerGraphExecutor(lower_to_int8(graph, calibration)).agreement_with_float(
            evaluation
        )
        agreement_4 = IntegerGraphExecutor(
            lower_to_int8(graph, calibration, LoweringConfig(weight_bits=4, activation_bits=4))
        ).agreement_with_float(evaluation)
        assert agreement_8 >= agreement_4


# --------------------------------------------------------------------- #
# Input geometry: both executors reject windows of the wrong shape
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bio2_executors():
    """Float and int8 executors of a bio2 graph built for 4 x 60 windows."""
    graph = trace_model(build_model("bio2", num_channels=4, window_samples=60, seed=11).eval())
    quantized = lower_to_int8(graph, np.random.default_rng(5).normal(size=(8, 4, 60)))
    return {"float": FloatGraphExecutor(graph), "int8": IntegerGraphExecutor(quantized)}


@pytest.mark.parametrize("executor", ["float", "int8"])
@pytest.mark.parametrize(
    "shape", [(2, 4, 61), (2, 4, 59), (2, 4, 70), (2, 5, 60)], ids=lambda s: f"{s[1]}x{s[2]}"
)
def test_executors_reject_wrong_input_geometry(bio2_executors, executor, shape):
    """The int8 executor used to drop a sample for 61 samples and fail deep
    in numpy for the others; both now raise naming the graph."""
    inputs = np.random.default_rng(7).normal(size=shape)
    with pytest.raises(ValueError, match="expects input shape"):
        bio2_executors[executor].run(inputs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_int8_executor_rejects_non_finite_windows(bio2_executors, bad):
    """An int8 grid has no value for a NaN or an infinity.  The cast used to
    turn one into INT_MIN and return finite, wrong logits."""
    inputs = np.random.default_rng(7).normal(size=(3, 4, 60))
    inputs[1, 2, 30] = bad
    executor = bio2_executors["int8"]
    with pytest.raises(ValueError, match="non-finite"):
        executor.run_integer(inputs)
    with pytest.raises(ValueError, match="non-finite"):
        Int8Backend(executor.quantized).run(inputs)


# --------------------------------------------------------------------- #
# Binding: each original kernel is bound once, at construction
# --------------------------------------------------------------------- #
def counting_binds(executor_class):
    """``executor_class`` counting its ``_bind`` calls in ``binds``."""

    class Counting(executor_class):
        def __init__(self, source):
            self.binds = 0
            super().__init__(source)

        def _bind(self, node):
            self.binds += 1
            return super()._bind(node)

    return Counting


@pytest.mark.parametrize("fused", [False, True], ids=["traced", "fused"])
@pytest.mark.parametrize("name", ["bio2", "temponet"])
def test_executors_bind_each_kernel_once(name, fused):
    """Every fused-chain member is bound at construction and never again."""
    model = build_model(name, num_channels=4, window_samples=60, seed=11).eval()
    inputs = np.random.default_rng(3).normal(size=(8, 4, 60))
    quantized = lower_to_int8(trace_model(model), inputs)
    if not fused:
        quantized = replace(quantized, graph=quantized.source_graph)
    graph = quantized.graph
    kernels = sum(len(node.fusion_chain) for node in graph.nodes)
    assert (kernels > len(graph.nodes)) == fused
    executors = [
        counting_binds(FloatGraphExecutor)(graph),
        counting_binds(IntegerGraphExecutor)(quantized),
    ]
    for executor in executors:
        assert executor.binds == kernels
        for batch in (1, 8):
            executor.run(inputs[:batch])
        assert executor.binds == kernels
