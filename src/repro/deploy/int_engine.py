"""Integer-only execution of int8-lowered graphs (the GAP8 numerics).

This is the bit-level counterpart of what the generated C code runs on the
GAP8 cluster: int8 activations and weights, int32 accumulators, fixed-point
requantisation between kernels, and I-BERT integer approximations for the
transformer non-linearities (softmax, GELU, LayerNorm).

When the lowered graph carries precomputed lookup tables
(:class:`~repro.deploy.graph.LookupTable`, emitted by ``lower_to_int8`` by
default), the GELU and softmax-``exp`` nonlinearities execute as a single
vectorised ``np.take`` instead of replaying the I-BERT polynomials per
element; a graph lowered without tables runs the elementwise kernels.  Both
are bit-identical over the full representable input domain (the tables are
built from the elementwise kernels, and the test-suite pins the equality
exhaustively).

The MAC-heavy operators (``conv1d``, ``linear``, ``matmul``) execute through
a shared batched GEMM primitive (:func:`int_gemm`): ``conv1d`` is lowered to
im2col + one integer matmul per layer across the whole micro-batch, and the
fixed-point requantisation is applied once per output tile with the
multiplier/shift pair precomputed at lowering time
(:class:`~repro.deploy.lowering.GemmTileInfo`).

The executor is an *emulator*: it exists so the quantised accuracy reported
in Table I, the generated weights and the requantisation constants can all
be validated end-to-end on the host before any code ever reaches the MCU —
which is exactly how MCU deployment flows are qualified in practice.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.functional import im2col
from ..quant import ibert
from .graph import GraphNode
from .lowering import (
    ActivationQuantization,
    QuantizedGraph,
    QuantizedNode,
    quantize_multiplier,
)

__all__ = ["IntegerGraphExecutor", "apply_requant", "int_gemm", "requantize"]

_INT8_MIN = -128
_INT8_MAX = 127

_INT64_MAX = np.iinfo(np.int64).max

#: Largest integer magnitude float64 represents exactly (2**53).  Below this
#: bound a float64 GEMM over integer operands is *exact*: every product and
#: every partial sum is an integer with an exact float64 representation, so
#: no rounding can occur at any accumulation order.
_EXACT_FLOAT_GEMM_LIMIT = float(2**53)


def _gemm_accumulate(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Integer matmul with int64 semantics, routed through BLAS when exact.

    NumPy has no vectorised integer matmul (int64 ``@`` falls back to slow
    generic loops), but a float64 GEMM over integer operands is bit-exact
    whenever ``K * max|lhs| * max|rhs|`` stays below 2**53: each product and
    each running partial sum is then an integer that float64 represents
    exactly, so BLAS reassociation cannot round.  int8-grid operands clear
    that bound by ~9 orders of magnitude; anything larger (or empty) falls
    back to the exact-by-definition int64 path.
    """
    k = lhs.shape[-1]
    lhs_peak = float(np.abs(lhs).max()) if lhs.size else 0.0
    rhs_peak = float(np.abs(rhs).max()) if rhs.size else 0.0
    if k * lhs_peak * rhs_peak < _EXACT_FLOAT_GEMM_LIMIT:
        product = lhs.astype(np.float64) @ rhs.astype(np.float64)
        return product.astype(np.int64)
    return lhs.astype(np.int64) @ rhs.astype(np.int64)


def apply_requant(
    values: np.ndarray,
    multiplier: int,
    shift: int,
    qmin: int = _INT8_MIN,
    qmax: int = _INT8_MAX,
) -> np.ndarray:
    """Apply an already-encoded fixed-point requantiser to accumulators.

    This is the per-tile half of :func:`requantize`: the caller supplies the
    ``(multiplier, shift)`` pair (precomputed at lowering time, or memoised
    by the executor), so one encoded requantiser is reused across every
    invocation of the kernel instead of re-running the encoding loops of
    :func:`~repro.deploy.lowering.quantize_multiplier` per call.
    """
    scaled = values.astype(np.int64) * multiplier
    if shift > 0:
        rounding = np.int64(1) << (shift - 1)
        scaled = (scaled + rounding) >> shift
    elif shift < 0:
        left = -shift
        # Left shifts occur only for extreme (>~2) requantisation factors.
        # A saturating value would overflow int64 and wrap sign; clipping
        # to [qmin, qmax] *before* the shift is exact, because the final
        # clip is monotone and qmin <= 0 <= qmax: any value outside the
        # grid before scaling up lands on the same bound after it.
        scaled = np.clip(scaled, qmin, qmax)
        if (int(max(abs(qmin), abs(qmax))) << left) > _INT64_MAX:
            # The shift alone exceeds int64: every non-zero value saturates.
            scaled = np.where(scaled > 0, qmax, np.where(scaled < 0, qmin, 0))
        else:
            scaled = scaled << np.int64(left)
    return np.clip(scaled, qmin, qmax).astype(np.int32)


def requantize(
    values: np.ndarray,
    factor: float,
    qmin: int = _INT8_MIN,
    qmax: int = _INT8_MAX,
) -> np.ndarray:
    """Rescale integer accumulators by ``factor`` using fixed-point arithmetic.

    ``factor`` is encoded as a 31-bit multiplier plus arithmetic shift (see
    :func:`repro.deploy.lowering.quantize_multiplier`), the result is
    rounded, clipped to ``[qmin, qmax]`` and returned as ``int32`` — the same
    sequence of operations the generated C kernels perform.

    A negative ``factor`` (the I-BERT polynomial kernels track the sign in
    the scale) is handled by negating the accumulators first.
    """
    if factor < 0:
        values = -np.asarray(values)
        factor = -factor
    multiplier, shift = quantize_multiplier(factor)
    return apply_requant(np.asarray(values), multiplier, shift, qmin, qmax)


def int_gemm(
    lhs: np.ndarray,
    rhs: np.ndarray,
    bias: Optional[np.ndarray] = None,
    requant: Optional[Tuple[int, int, int, int]] = None,
) -> np.ndarray:
    """Shared integer GEMM primitive: ``lhs @ rhs`` with int64 accumulation.

    ``lhs`` is ``(..., M, K)`` and ``rhs`` ``(K, N)`` (or ``(..., K, N)``
    for stacked batched multiplies); both are upcast to int64 so the whole
    contraction runs as a single integer matmul — this is the kernel the
    im2col'd ``conv1d``, ``linear`` and attention ``matmul`` paths all
    lower onto.  ``bias`` (int64, broadcast over the trailing axis) is
    added to the accumulator, and ``requant`` — a
    ``(multiplier, shift, qmin, qmax)`` tile — applies the fixed-point
    output requantisation once over the full output tile.  Without
    ``requant`` the raw int64 accumulator is returned.

    The contraction itself runs through BLAS whenever that is provably
    exact for the operand ranges (see :func:`_gemm_accumulate`) — int8-grid
    inputs always qualify.
    """
    accumulator = _gemm_accumulate(lhs, rhs)
    if bias is not None:
        accumulator = accumulator + bias
    if requant is None:
        return accumulator
    multiplier, shift, qmin, qmax = requant
    return apply_requant(accumulator, multiplier, shift, qmin, qmax)


class IntegerGraphExecutor:
    """Executes a :class:`QuantizedGraph` with integer-only arithmetic.

    The lowered graph alone decides how each node runs: MAC nodes through
    :func:`int_gemm` with their lowering-time requantiser tile, GELU/softmax
    through their lookup table when the node carries one and through the
    elementwise I-BERT kernels when it does not.
    """

    def __init__(self, quantized: QuantizedGraph) -> None:
        self.quantized = quantized
        self.graph = quantized.graph
        # Requantiser memo: factor -> (multiplier, shift).  The MAC nodes
        # carry their encoded requantiser from lowering (GemmTileInfo); the
        # remaining ops (avgpool, mean, the I-BERT tails) compute factors
        # at runtime, so the encoding loops of ``quantize_multiplier`` are
        # paid once per distinct factor instead of once per invocation.
        self._multiplier_cache: Dict[float, Tuple[int, int]] = {}

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _activation(self, tensor_name: str) -> ActivationQuantization:
        return self.quantized.activations[tensor_name]

    def _encode_multiplier(self, factor: float) -> Tuple[int, int]:
        """Memoised :func:`quantize_multiplier` (positive factors only)."""
        cached = self._multiplier_cache.get(factor)
        if cached is None:
            cached = quantize_multiplier(factor)
            self._multiplier_cache[factor] = cached
        return cached

    def _requant_to(self, values: np.ndarray, in_scale: float, tensor_name: str) -> np.ndarray:
        out = self._activation(tensor_name)
        factor = in_scale / out.scale
        values = np.asarray(values)
        if factor < 0:
            values, factor = -values, -factor
        multiplier, shift = self._encode_multiplier(factor)
        return apply_requant(values, multiplier, shift, out.qmin, out.qmax)

    def _gemm_requant(
        self, lowered: QuantizedNode, out_name: str
    ) -> Tuple[int, int, int, int]:
        """The ``(multiplier, shift, qmin, qmax)`` tile of a MAC node, from
        the :class:`~repro.deploy.lowering.GemmTileInfo` the lowering's
        ``PlanGemmTilesPass`` attaches to every MAC node."""
        out = self._activation(out_name)
        tile = lowered.gemm
        return (tile.multiplier, tile.shift, out.qmin, out.qmax)

    # ------------------------------------------------------------------ #
    # Single-node dispatch
    # ------------------------------------------------------------------ #
    def _run_node(self, node: GraphNode, tensors: Dict[str, np.ndarray]) -> np.ndarray:
        if node.is_fused:
            # A fused node (see repro.deploy.passes) replays its original
            # kernel chain with the per-stage requantisers intact — the
            # payloads of absorbed nodes stay in ``quantized.nodes`` — so
            # fusion is bitwise-identical by construction.  Intermediates
            # live only in the local scope (on target: registers/L1).
            local = dict(tensors)
            value = None
            for sub in node.fusion_chain:
                value = self._run_node(sub, local)
                local[sub.output.name] = value
            return value
        lowered = self.quantized.nodes[node.name]
        op = node.op
        q_x = tensors[node.inputs[0]]
        in_scale = self._activation(node.inputs[0]).scale
        out_name = node.output.name
        out_scale = self._activation(out_name).scale

        if op == "conv1d":
            weight = lowered.constants["weight"]
            bias = lowered.constants.get("bias")
            out_channels, _, kernel = weight.values.shape
            patches = im2col(
                q_x,
                kernel,
                stride=int(node.attrs["stride"]),
                padding=int(node.attrs["padding"]),
                dilation=int(node.attrs["dilation"]),
            )
            batch, out_length, patch_dim = patches.shape
            flat_weight = weight.values.reshape(out_channels, patch_dim)
            quantized = int_gemm(
                patches.reshape(batch * out_length, patch_dim),
                flat_weight.T,
                bias=bias.values if bias is not None else None,
                requant=self._gemm_requant(lowered, out_name),
            )
            return quantized.reshape(batch, out_length, out_channels).transpose(0, 2, 1)

        if op == "linear":
            weight = lowered.constants["weight"]
            bias = lowered.constants.get("bias")
            out_features, in_features = weight.values.shape
            lead = q_x.shape[:-1]
            quantized = int_gemm(
                q_x.reshape(-1, in_features),
                weight.values.T,
                bias=bias.values if bias is not None else None,
                requant=self._gemm_requant(lowered, out_name),
            )
            return quantized.reshape(lead + (out_features,))

        if op == "channel_affine":
            scale_const = lowered.constants["scale"]
            shift_const = lowered.constants["shift"]
            accumulator = q_x.astype(np.int64) * scale_const.values.reshape(1, -1, 1)
            accumulator += shift_const.values.reshape(1, -1, 1)
            return self._requant_to(accumulator, in_scale * scale_const.scale, out_name)

        if op == "matmul":
            q_other = tensors[node.inputs[1]]
            if node.attrs.get("transpose_b", False):
                q_other = np.swapaxes(q_other, -1, -2)
            # Fold the leading (batch, heads) axes into one stacked GEMM so
            # the whole micro-batch contracts in a single matmul.
            lead = q_x.shape[:-2]
            quantized = int_gemm(
                q_x.reshape((-1,) + q_x.shape[-2:]),
                q_other.reshape((-1,) + q_other.shape[-2:]),
                requant=self._gemm_requant(lowered, out_name),
            )
            return quantized.reshape(lead + quantized.shape[-2:])

        if op == "add":
            q_other = tensors[node.inputs[1]]
            other_scale = self._activation(node.inputs[1]).scale
            lhs = self._requant_to(q_x.astype(np.int64), in_scale, out_name)
            rhs = self._requant_to(q_other.astype(np.int64), other_scale, out_name)
            out = self._activation(out_name)
            return np.clip(lhs + rhs, out.qmin, out.qmax).astype(np.int32)

        if op == "append_token":
            token = lowered.constants["token"].values.reshape(1, 1, -1)
            rescaled = self._requant_to(q_x.astype(np.int64), in_scale, out_name)
            token = np.broadcast_to(token, (rescaled.shape[0], 1, rescaled.shape[2]))
            return np.concatenate([rescaled, token.astype(np.int32)], axis=1)

        if op == "add_positional":
            positions = lowered.constants["positions"].values[None, :, :]
            rescaled = self._requant_to(q_x.astype(np.int64), in_scale, out_name)
            out = self._activation(out_name)
            return np.clip(rescaled + positions, out.qmin, out.qmax).astype(np.int32)

        if op == "relu":
            return self._requant_to(np.maximum(q_x, 0).astype(np.int64), in_scale, out_name)

        if op == "gelu":
            table = lowered.luts.get("gelu")
            if table is not None:
                # The table already fuses the polynomial and the output
                # requantisation: one gather per element.
                return table.take(q_x).astype(np.int32)
            q_out, gelu_scale = ibert.integer_gelu(q_x.astype(np.int64), in_scale)
            return self._requant_to(q_out, gelu_scale, out_name)

        if op == "softmax":
            axis = int(node.attrs.get("axis", -1))
            table = lowered.luts.get("exp")
            if table is not None:
                q = q_x.astype(np.int64)
                shifted = q - q.max(axis=axis, keepdims=True)
                q_exp = table.take(shifted)
                total = np.maximum(q_exp.sum(axis=axis, keepdims=True), 1)
                factor = np.int64(1) << ibert.SOFTMAX_OUTPUT_BITS
                q_out = (q_exp * factor) // total
                return self._requant_to(q_out, 1.0 / float(factor), out_name)
            q_out, softmax_scale = ibert.integer_softmax(
                q_x.astype(np.int64), in_scale, axis=axis
            )
            return self._requant_to(q_out, softmax_scale, out_name)

        if op == "layernorm":
            weight = lowered.constants["weight"].values
            bias = lowered.constants["bias"].values
            q_out, ln_scale = ibert.integer_layernorm(q_x.astype(np.int64), in_scale, weight, bias)
            return self._requant_to(q_out, ln_scale, out_name)

        if op == "avgpool1d":
            kernel = int(node.attrs["kernel_size"])
            stride = int(node.attrs["stride"])
            # One strided gather over all taps: (B, C, out_length, kernel).
            windows = np.lib.stride_tricks.sliding_window_view(q_x, kernel, axis=-1)
            accumulator = windows[:, :, ::stride, :].astype(np.int64).sum(axis=-1)
            return self._requant_to(accumulator, in_scale / kernel, out_name)

        if op == "mean_tokens":
            accumulator = q_x.astype(np.int64).sum(axis=1)
            return self._requant_to(accumulator, in_scale / q_x.shape[1], out_name)

        if op == "flatten":
            return q_x.reshape(q_x.shape[0], -1)
        if op == "split_heads":
            heads = int(node.attrs["num_heads"])
            head_dim = int(node.attrs["head_dim"])
            batch, sequence, _ = q_x.shape
            return q_x.reshape(batch, sequence, heads, head_dim).transpose(0, 2, 1, 3)
        if op == "merge_heads":
            batch, heads, sequence, head_dim = q_x.shape
            return q_x.transpose(0, 2, 1, 3).reshape(batch, sequence, heads * head_dim)
        if op == "transpose":
            axes = tuple(node.attrs["axes"])
            return q_x.transpose((0,) + tuple(axis + 1 for axis in axes))
        if op == "select_token":
            return q_x[:, int(node.attrs["index"]), :]
        raise NotImplementedError(f"integer executor does not implement '{op}'")

    # ------------------------------------------------------------------ #
    # Whole-graph execution
    # ------------------------------------------------------------------ #
    def run_integer(self, inputs: np.ndarray) -> np.ndarray:
        """Run the graph; returns the *integer* logits (int8 grid)."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == len(self.graph.graph_input.shape):
            inputs = inputs[None, ...]
        input_quant = self.quantized.input_quantization
        tensors: Dict[str, np.ndarray] = {
            self.graph.graph_input.name: input_quant.quantize(inputs)
        }
        for node in self.graph.nodes:
            tensors[node.output.name] = self._run_node(node, tensors)
        return tensors[self.graph.output.name]

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Run the graph and return dequantised (float) logits."""
        integer_logits = self.run_integer(inputs)
        return self.quantized.output_quantization.dequantize(integer_logits)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Class predictions of the integer-only inference path."""
        return np.argmax(self.run_integer(inputs), axis=-1)

    def agreement_with_float(self, inputs: np.ndarray) -> float:
        """Fraction of inputs where int8 and float inference agree on the class."""
        from .engine import FloatGraphExecutor

        float_predictions = FloatGraphExecutor(self.graph).predict(inputs)
        integer_predictions = self.predict(inputs)
        return float(np.mean(float_predictions == integer_predictions))

