"""Bitwise pins for the batched integer GEMM path.

The int8 executor runs ``conv1d`` (via im2col), ``linear`` and the
attention ``matmul`` on one shared integer GEMM primitive, with the
output requantiser pair stored at lowering time.  Integer arithmetic is
exact, so it must be *bitwise identical* to a plain reference: the
test-side :class:`ReferenceExecutor` overrides only those three ops with
the per-tap einsum conv loop and int64 ``@``, encoding the requantiser at
run time from the float scales.  These tests pin that equality
(``assert_array_equal``, never a tolerance) across every
registry-reachable architecture, percentile and absmax calibration, and
batch sizes 1/3/8/16, on the compiled (fused) schedule and on the traced
one, plus batched-vs-single invariance, the GEMM operands each MAC
node's payload carries, and the GEMM's exactness at the grid's extremes
at the largest ``K`` any registry config binds.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.deploy import IntegerGraphExecutor, LoweringConfig, lower_to_int8, trace_model
from repro.deploy.int_engine import int_gemm
from repro.deploy.lowering import apply_requant, quantize_multiplier, requantize
from repro.models import build_model
from repro.models.registry import MODEL_BUILDERS, PAPER_FILTER_DIMENSIONS
from repro.nn.functional import im2col
from repro.nn.tensor import Tensor
from repro.serve import build_float_backend

from test_deploy_engines import _int_conv1d_taploop

GEOMETRY = dict(num_channels=4, window_samples=60, seed=11)

#: Every registry-reachable (architecture, patch_size) pair; temponet has no
#: patch size knob.
CONFIGS = [
    ("bio1", 10),
    ("bio1", 20),
    ("bio2", 10),
    ("bio2", 20),
    ("temponet", None),
]

BATCH_SIZES = [1, 3, 8, 16]

#: ``calibration_percentile`` of each lowering: the default and absmax,
#: which moves nearly every activation scale and so every requantiser.
CALIBRATIONS = {"percentile": 99.9, "absmax": 100.0}

MAC_OPERATORS = ("conv1d", "linear", "matmul")


def config_id(config):
    arch, patch = config
    return arch if patch is None else f"{arch}-p{patch}"


class ReferenceExecutor(IntegerGraphExecutor):
    """The integer executor with its MAC ops in plain integer arithmetic.

    ``conv1d`` accumulates tap by tap, ``linear``/``matmul`` use int64 ``@``,
    and the output requantiser is encoded at run time from the float scales
    by :func:`requantize` instead of read from the node's stored pair.
    Every other op (and fused-chain composition) is the executor's own.
    ``mac_calls`` counts the overridden MAC kernels that ran, so a test can
    prove the override was not bypassed.
    """

    def __init__(self, quantized):
        self.mac_calls = 0
        super().__init__(quantized)

    def _bind(self, node):
        if node.op not in MAC_OPERATORS:
            return super()._bind(node)
        activations = self.quantized.activations
        lowered = self.quantized.nodes[node.name]
        in_scale = activations[node.inputs[0]].scale
        out = activations[node.output.name]

        def run(q_x, tensors):
            self.mac_calls += 1
            q_x = q_x.astype(np.int64)
            if node.op == "matmul":
                q_other = tensors[node.inputs[1]].astype(np.int64)
                if node.attrs.get("transpose_b", False):
                    q_other = np.swapaxes(q_other, -1, -2)
                accumulator = q_x @ q_other
                factor = (
                    in_scale
                    * activations[node.inputs[1]].scale
                    * float(node.attrs.get("scale", 1.0))
                )
            else:
                weight = lowered.constants["weight"]
                bias = lowered.constants.get("bias")
                q_weight = weight.values.astype(np.int64)
                if node.op == "conv1d":
                    accumulator = _int_conv1d_taploop(
                        q_x,
                        q_weight,
                        int(node.attrs["stride"]),
                        int(node.attrs["padding"]),
                        int(node.attrs["dilation"]),
                    )
                    bias_shape = (1, -1, 1)
                else:
                    accumulator = q_x @ q_weight.T
                    bias_shape = (-1,)
                if bias is not None:
                    accumulator = accumulator + bias.values.astype(np.int64).reshape(bias_shape)
                factor = in_scale * weight.scale
            return requantize(accumulator, factor / out.scale)

        return run


def reference_logits(quantized, x):
    """Integer logits of :class:`ReferenceExecutor`, asserting that its MAC
    override ran once per MAC kernel of the schedule (fused chains
    included): otherwise the pin would compare the executor with itself."""
    reference = ReferenceExecutor(quantized)
    logits = reference.run_integer(x)
    mac_kernels = sum(
        sub.op in MAC_OPERATORS
        for node in quantized.graph.nodes
        for sub in node.fusion_chain
    )
    assert mac_kernels > 0
    assert reference.mac_calls == mac_kernels
    return logits


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(23)


@pytest.fixture(scope="module", params=CONFIGS, ids=config_id)
def lowerings(request):
    """The lowering of one config under the default 99.9th percentile and
    the absmax (100th) calibration, from the same calibration batch, keyed
    by ``(calibration, fused)``: ``fused`` is the compiled schedule, the
    other its traced (unfused) schedule over the same payloads."""
    arch, patch = request.param
    kwargs = dict(GEOMETRY)
    if patch is not None:
        kwargs["patch_size"] = patch
    graph = trace_model(build_model(arch, **kwargs).eval())
    calibration = np.random.default_rng(5).normal(size=(16, 4, 60))
    lowerings = {}
    for name, percentile in CALIBRATIONS.items():
        compiled = lower_to_int8(
            graph, calibration, LoweringConfig(calibration_percentile=percentile)
        )
        lowerings[name, True] = compiled
        lowerings[name, False] = replace(compiled, graph=compiled.source_graph)
    return lowerings


@pytest.fixture(scope="module")
def quantized(lowerings):
    return lowerings["percentile", False]


@pytest.fixture(scope="module")
def windows():
    return np.random.default_rng(29).normal(size=(16, 4, 60))


# --------------------------------------------------------------------- #
# The shared GEMM primitive
# --------------------------------------------------------------------- #
class TestIntGemmPrimitive:
    def test_raw_accumulator_matches_einsum(self, rng):
        lhs = rng.integers(-128, 128, size=(7, 5)).astype(np.int8)
        rhs = rng.integers(-128, 128, size=(5, 3)).astype(np.int8)
        expected = np.einsum(
            "mk,kn->mn", lhs.astype(np.int64), rhs.astype(np.int64)
        )
        np.testing.assert_array_equal(int_gemm(lhs, rhs), expected)
        assert int_gemm(lhs, rhs).dtype == np.int64

    def test_batched_lhs_and_rhs(self, rng):
        lhs = rng.integers(-128, 128, size=(4, 6, 5)).astype(np.int8)
        rhs = rng.integers(-128, 128, size=(4, 5, 2)).astype(np.int8)
        expected = np.einsum(
            "bmk,bkn->bmn", lhs.astype(np.int64), rhs.astype(np.int64)
        )
        np.testing.assert_array_equal(int_gemm(lhs, rhs), expected)

    def test_bias_and_requant_match_requantize(self, rng):
        lhs = rng.integers(-128, 128, size=(9, 4)).astype(np.int8)
        rhs = rng.integers(-128, 128, size=(4, 6)).astype(np.int8)
        bias = rng.integers(-(2**15), 2**15, size=6).astype(np.int64)
        factor = 0.0123
        multiplier, shift = quantize_multiplier(factor)
        fused = int_gemm(lhs, rhs, bias=bias, requant=(multiplier, shift))
        accumulator = lhs.astype(np.int64) @ rhs.astype(np.int64) + bias
        np.testing.assert_array_equal(fused, requantize(accumulator, factor))

    def test_apply_requant_matches_requantize_for_encoded_factor(self, rng):
        accumulators = rng.integers(-(2**20), 2**20, size=64)
        for factor in (1.0, 0.37, 3.0e-3, 5.5):
            multiplier, shift = quantize_multiplier(factor)
            np.testing.assert_array_equal(
                apply_requant(np.asarray(accumulators), multiplier, shift),
                requantize(accumulators, factor),
            )

    @pytest.mark.parametrize(
        "stride,padding,dilation", [(1, 0, 1), (2, 1, 1), (1, 2, 2), (3, 0, 1)]
    )
    def test_im2col_gemm_matches_einsum_conv(self, rng, stride, padding, dilation):
        q_x = rng.integers(-128, 128, size=(3, 4, 30)).astype(np.int32)
        q_w = rng.integers(-128, 128, size=(6, 4, 5)).astype(np.int32)
        kernel = q_w.shape[-1]
        patches = im2col(q_x, kernel, stride, padding, dilation)
        flat_weight = q_w.reshape(6, 4 * kernel)
        via_gemm = int_gemm(patches, flat_weight.T).transpose(0, 2, 1)
        np.testing.assert_array_equal(
            via_gemm, _int_conv1d_taploop(q_x, q_w, stride, padding, dilation)
        )


def registry_max_k():
    """Largest contraction length ``K`` any registry config binds: every
    architecture at its default (paper) geometry and, for the Bioformers,
    every swept patch size, read off the traced graphs."""
    ks = []
    for arch in MODEL_BUILDERS:
        patches = [None] if arch == "temponet" else PAPER_FILTER_DIMENSIONS
        for patch in patches:
            kwargs = {} if patch is None else dict(patch_size=patch)
            graph = trace_model(build_model(arch, **kwargs).eval())
            specs = graph.tensor_specs()
            for node in graph.nodes:
                if node.op == "conv1d":
                    ks.append(int(np.prod(node.weights["weight"].shape[1:])))
                elif node.op == "linear":
                    ks.append(node.weights["weight"].shape[1])
                elif node.op == "matmul":
                    ks.append(specs[node.inputs[0]].shape[-1])
    return max(ks)


class TestExactnessAtTheWorstCase:
    """``int_gemm`` runs one float64 GEMM with no run-time operand check:
    int8-grid operands keep every product and partial sum below 2**53.
    These pin the extremes of the grid at the largest ``K`` the registry
    binds, on deterministic operands (no shared generator)."""

    @pytest.fixture(scope="class")
    def k(self):
        k = registry_max_k()
        assert k * 128 * 128 < 2**53
        return k

    @staticmethod
    def operands(k, fill, batch=()):
        """``(3, K) x (K, 4)`` int32 operands, tiled over ``batch``.  "min" is
        every element at -128, the largest product.  "extremes" crosses rows
        and columns of all -128, all 127 (the largest odd product, so the
        partial sums use every low bit) and alternating -128/127."""
        if fill == "min":
            lhs = np.full((3, k), -128)
            rhs = np.full((k, 4), -128)
        else:
            steps = np.arange(k)
            alternating = np.where(steps % 2, 127, -128)
            halves = np.where(steps < k // 2, 127, -128)
            lhs = np.stack([np.full(k, -128), np.full(k, 127), alternating])
            rhs = np.stack([np.full(k, -128), np.full(k, 127), alternating, halves], axis=1)
        tile = lambda a: np.broadcast_to(a, batch + a.shape).astype(np.int32)
        return tile(lhs), tile(rhs)

    @pytest.mark.parametrize("fill", ["min", "extremes"])
    @pytest.mark.parametrize("bound_rhs", [False, True], ids=["int_rhs", "float64_rhs"])
    def test_two_dimensional(self, k, fill, bound_rhs):
        lhs, rhs = self.operands(k, fill)
        expected = np.einsum("mk,kn->mn", lhs.astype(np.int64), rhs.astype(np.int64))
        # A bound linear/conv1d kernel passes its weight already in float64.
        got = int_gemm(lhs, rhs.astype(np.float64) if bound_rhs else rhs)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == np.int64
        if fill == "min":
            assert (expected == k * 128 * 128).all()

    @pytest.mark.parametrize("fill", ["min", "extremes"])
    def test_stacked(self, k, fill):
        lhs, rhs = self.operands(k, fill, batch=(2,))
        expected = np.einsum("bmk,bkn->bmn", lhs.astype(np.int64), rhs.astype(np.int64))
        got = int_gemm(lhs, rhs)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == np.int64


# --------------------------------------------------------------------- #
# Whole-graph bitwise equality: GEMM executor vs the reference executor
# --------------------------------------------------------------------- #
class TestExecutorParity:
    @pytest.mark.parametrize("calibration", sorted(CALIBRATIONS))
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_gemm_matches_einsum_bitwise(self, lowerings, windows, batch, calibration):
        quantized = lowerings[calibration, False]
        x = windows[:batch]
        np.testing.assert_array_equal(
            IntegerGraphExecutor(quantized).run_integer(x),
            reference_logits(quantized, x),
        )

    @pytest.mark.parametrize("calibration", sorted(CALIBRATIONS))
    @pytest.mark.parametrize("batch", [1, 8])
    def test_fused_gemm_matches_einsum_bitwise(self, lowerings, windows, batch, calibration):
        """The compiled schedule's fused chains hold MAC nodes; the
        reference replays them through its own MAC override."""
        quantized = lowerings[calibration, True]
        assert any(node.is_fused for node in quantized.graph.nodes)
        x = windows[:batch]
        np.testing.assert_array_equal(
            IntegerGraphExecutor(quantized).run_integer(x),
            reference_logits(quantized, x),
        )

    def test_batched_matches_single_sample_bitwise(self, quantized, windows):
        executor = IntegerGraphExecutor(quantized)
        batched = executor.run_integer(windows)
        singles = np.concatenate(
            [executor.run_integer(windows[i : i + 1]) for i in range(windows.shape[0])]
        )
        np.testing.assert_array_equal(batched, singles)

    def test_dequantised_logits_identical_too(self, quantized, windows):
        gemm = IntegerGraphExecutor(quantized)
        reference = ReferenceExecutor(quantized)
        np.testing.assert_array_equal(gemm.run(windows[:8]), reference.run(windows[:8]))
        assert reference.mac_calls > 0


# --------------------------------------------------------------------- #
# The GEMM operands each MAC node's payload carries
# --------------------------------------------------------------------- #
def gemm_shape(node, payload, specs):
    """``(M, K, N)`` of a MAC node, read off its int8 weight (conv1d,
    linear) or its two activation operands (matmul), batch 1."""
    if node.op == "matmul":
        lhs, rhs = (specs[name].shape for name in node.inputs)
        if node.attrs.get("transpose_b", False):
            rhs = rhs[:-2] + (rhs[-1], rhs[-2])
        assert lhs[:-2] == rhs[:-2] and lhs[-1] == rhs[-2], node.name
        return int(np.prod(lhs[:-1])), lhs[-1], rhs[-1]
    weight = payload.constants["weight"].values
    if node.op == "conv1d":
        out_channels, in_channels, kernel = weight.shape
        assert in_channels == specs[node.inputs[0]].shape[-2], node.name
        assert out_channels == node.output.shape[-2], node.name
        return node.output.shape[-1], in_channels * kernel, out_channels
    out_features, in_features = weight.shape
    assert in_features == specs[node.inputs[0]].shape[-1], node.name
    assert out_features == node.output.shape[-1], node.name
    return node.output.num_elements // out_features, in_features, out_features


class TestGemmPayloads:
    def test_every_mac_node_carries_its_gemm_operands(self, quantized):
        specs = quantized.graph.tensor_specs()
        mac_nodes = [node for node in quantized.graph.nodes if node.op in MAC_OPERATORS]
        assert mac_nodes  # every registry model has a MAC hot path
        for node in mac_nodes:
            payload = quantized.nodes[node.name]
            m, k, n = gemm_shape(node, payload, specs)
            # The cost model bills exactly the GEMM the payload describes.
            assert m * k * n == node.macs > 0, node.name
            assert set(payload.requantizers) == {"output"}, node.name
            if node.op == "matmul":
                assert payload.constants == {}, node.name
                assert all(name in quantized.activations for name in node.inputs)
                continue
            weight, bias = payload.constants["weight"], payload.constants["bias"]
            assert weight.dtype == "int8" and weight.values.dtype.kind == "i", node.name
            assert -128 <= weight.values.min() and weight.values.max() <= 127, node.name
            assert bias.dtype == "int32" and bias.values.shape == (n,), node.name

    def test_non_mac_nodes_bill_no_macs_and_hold_no_gemm_weight(self, quantized):
        for node in quantized.graph.nodes:
            if node.op in MAC_OPERATORS:
                continue
            assert node.macs == 0, node.name
            weight = quantized.nodes[node.name].constants.get("weight")
            assert weight is None or weight.dtype != "int8", node.name


# --------------------------------------------------------------------- #
# Float serving (the traced graph) stays bitwise-pinned to autograd
# --------------------------------------------------------------------- #
class TestFloatFastPathParity:
    @pytest.mark.parametrize("config", CONFIGS, ids=config_id)
    @pytest.mark.parametrize("batch", [1, 5])
    def test_inference_mode_matches_autograd_forward(self, config, batch):
        arch, patch = config
        kwargs = dict(GEOMETRY)
        if patch is not None:
            kwargs["patch_size"] = patch
        model = build_model(arch, **kwargs).eval()
        x = np.random.default_rng(31).normal(size=(batch, 4, 60))
        expected = model(Tensor(x)).data  # grad-enabled autograd Tensor path
        served = build_float_backend(model).run(x)  # FloatGraphExecutor over the trace
        np.testing.assert_array_equal(served, expected)
