"""Bitwise pins for the batched integer GEMM path.

The int8 executor runs ``conv1d`` (via im2col), ``linear`` and the
attention ``matmul`` on one shared integer GEMM primitive, with the
requantiser tile precomputed at lowering time.  Integer arithmetic is
exact, so it must be *bitwise identical* to a plain reference: the
test-side :class:`ReferenceExecutor` overrides only those three ops with
the per-tap einsum conv loop and int64 ``@``, encoding the requantiser at
run time from the float scales.  These tests pin that equality
(``assert_array_equal``, never a tolerance) across every
registry-reachable architecture, table and tableless lowering, and batch
sizes 1/3/8/16, plus batched-vs-single invariance and the tile metadata
the lowering pass precomputes.
"""

import numpy as np
import pytest

from repro.deploy import IntegerGraphExecutor, LoweringConfig, lower_to_int8, trace_model
from repro.deploy.int_engine import apply_requant, int_gemm, requantize
from repro.deploy.lowering import GemmTileInfo, quantize_multiplier
from repro.models import build_model
from repro.nn.functional import im2col
from repro.nn.tensor import Tensor
from repro.serve import FloatBackend

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

MAC_OPERATORS = ("conv1d", "linear", "matmul")


def config_id(config):
    arch, patch = config
    return arch if patch is None else f"{arch}-p{patch}"


class ReferenceExecutor(IntegerGraphExecutor):
    """The integer executor with its MAC ops in plain integer arithmetic.

    ``conv1d`` accumulates tap by tap, ``linear``/``matmul`` use int64 ``@``,
    and the output requantiser is encoded at run time from the float scales
    by :func:`requantize` instead of read from the lowering-time tile.
    Every other op (and fused-chain replay) is the executor's own.
    """

    def _run_node(self, node, tensors):
        if node.is_fused or node.op not in MAC_OPERATORS:
            return super()._run_node(node, tensors)
        activations = self.quantized.activations
        lowered = self.quantized.nodes[node.name]
        q_x = tensors[node.inputs[0]].astype(np.int64)
        in_scale = activations[node.inputs[0]].scale
        out = activations[node.output.name]
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
        return requantize(accumulator, factor / out.scale, out.qmin, out.qmax)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(23)


@pytest.fixture(scope="module", params=CONFIGS, ids=config_id)
def lowerings(request):
    """Table (``True``) and tableless (``False``) lowering of one config,
    both from the same calibration batch."""
    arch, patch = request.param
    kwargs = dict(GEOMETRY)
    if patch is not None:
        kwargs["patch_size"] = patch
    graph = trace_model(build_model(arch, **kwargs).eval())
    calibration = np.random.default_rng(5).normal(size=(16, 4, 60))
    return {
        True: lower_to_int8(graph, calibration, use_lut=True),
        False: lower_to_int8(graph, calibration, config=LoweringConfig(use_lut=False)),
    }


@pytest.fixture(scope="module")
def quantized(lowerings):
    return lowerings[True]


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
        fused = int_gemm(lhs, rhs, bias=bias, requant=(multiplier, shift, -128, 127))
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


# --------------------------------------------------------------------- #
# Whole-graph bitwise equality: GEMM executor vs the reference executor
# --------------------------------------------------------------------- #
class TestExecutorParity:
    @pytest.mark.parametrize("use_lut", [True, False], ids=["lut", "elementwise"])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_gemm_matches_einsum_bitwise(self, lowerings, windows, use_lut, batch):
        quantized = lowerings[use_lut]
        x = windows[:batch]
        np.testing.assert_array_equal(
            IntegerGraphExecutor(quantized).run_integer(x),
            ReferenceExecutor(quantized).run_integer(x),
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


# --------------------------------------------------------------------- #
# Lowering-time tile metadata
# --------------------------------------------------------------------- #
class TestGemmTileMetadata:
    def test_every_mac_node_carries_a_tile(self, quantized):
        mac_nodes = [
            node
            for node in quantized.graph.nodes
            if node.op in MAC_OPERATORS
        ]
        assert mac_nodes  # every registry model has a MAC hot path
        for node in mac_nodes:
            tile = quantized.nodes[node.name].gemm
            assert isinstance(tile, GemmTileInfo)
            assert tile.m > 0 and tile.k > 0 and tile.n > 0
            assert tile.macs == tile.m * tile.k * tile.n

    def test_tile_requantiser_equals_lowered_requantiser(self, quantized):
        """The precomputed per-tile (multiplier, shift) must be the *same
        encoding* as the node's output requantiser — the C kernels read the
        latter, the executor the former."""
        for node in quantized.graph.nodes:
            if node.op not in ("conv1d", "linear"):
                continue
            lowered = quantized.nodes[node.name]
            multiplier, shift = lowered.requantizers["output"]
            assert lowered.gemm.multiplier == multiplier
            assert lowered.gemm.shift == shift

    def test_non_mac_nodes_have_no_tile(self, quantized):
        for node in quantized.graph.nodes:
            if node.op not in MAC_OPERATORS:
                assert quantized.nodes[node.name].gemm is None


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
        served = FloatBackend(model).run(x)  # FloatGraphExecutor over the trace
        np.testing.assert_array_equal(served, expected)
