"""Integer-only execution of int8-lowered graphs (the GAP8 numerics).

This runs the integer-only numerics of the GAP8 deployment flow (Burrello
et al., COINS 2021) on the host: int8 activations and weights, int32
accumulators, fixed-point requantisation between kernels, and I-BERT
integer approximations for the transformer non-linearities (softmax, GELU,
LayerNorm).

:class:`IntegerGraphExecutor` binds every node once, at construction, to a
kernel closure over the node's constants, attributes, output grid and the
``(multiplier, shift)`` pairs :func:`~repro.deploy.passes.quantize_weights`
stored for it — the executor encodes none of its own — and runs them as
the float executor does, in one
:class:`~repro.deploy.engine.BoundSchedule`.  The MAC operators
(``conv1d`` via im2col, ``linear``, ``matmul``) run on one batched GEMM
primitive (:func:`int_gemm`) that requantises once per output tile.  GELU
and the softmax ``exp`` run as one ``np.take`` over the lookup table the
lowering built for the node; the tables are built from the elementwise
I-BERT kernels of :mod:`repro.quant.ibert`, and the test-suite pins them to
those kernels over the full input domain.

The arithmetic is decided at bind time, not per call.  Every MAC operand
is on the int8 grid of :mod:`repro.quant.quantizers`, the one quantiser
the lowering and QAT share: weights by its ``quantize`` (their scale
divides the bound by 128), activations because every producer clips
(their scales divide the bound by 127, until the ROADMAP's quantiser fix
makes weights do the same).  So :func:`int_gemm`'s float64 GEMM is exact
for any reachable ``K`` and no kernel scans its operands to choose a path;
the ``conv1d``/``linear`` binders cast their constant weight to float64
once.  Kernels pass their int32 activations to :func:`apply_requant` and
:func:`~repro.quant.ibert.integer_layernorm` as they are: each widens its
own input to int64, once.

The executor is an *emulator*: it exists so the quantised accuracy reported
in Table I, the quantised weights and the requantisation constants can all
be validated end-to-end on the host, which is how MCU deployment flows are
qualified before any code reaches the device.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..nn.functional import im2col
from ..quant import ibert
from ..quant.quantizers import QMAX, QMIN
from .engine import SHAPE_KERNELS, BoundSchedule, FloatGraphExecutor, Kernel
from .graph import OPERATORS, GraphNode
from .lowering import QuantizedGraph, apply_requant

__all__ = ["IntegerGraphExecutor", "int_gemm"]

def int_gemm(
    lhs: np.ndarray,
    rhs: np.ndarray,
    bias: Optional[np.ndarray] = None,
    requant: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """Shared integer GEMM primitive: ``lhs @ rhs`` with exact accumulation.

    ``lhs`` is ``(..., M, K)`` and ``rhs`` ``(K, N)`` (or ``(..., K, N)``
    for stacked batched multiplies) — the kernel the im2col'd ``conv1d``,
    ``linear`` and attention ``matmul`` all lower onto.  ``bias`` (integer,
    broadcast over the trailing axis) is added to the int64 accumulator,
    and a stored ``requant`` pair ``(multiplier, shift)`` requantises the
    whole output onto the int8 grid once; without it the raw int64
    accumulator is returned.

    Precondition: both operands hold int8-grid values (``[-128, 127]``);
    ``rhs`` may already be float64.  The contraction then runs as one
    float64 GEMM through BLAS, and that is exact: every product and every
    partial sum is an integer of magnitude at most ``K * 128 * 128``, below
    2**53 for any ``K < 2**39``, so no accumulation order can round.  The
    executor decides this at bind time, not per call: its weights are on
    the int8 grid of :mod:`repro.quant.quantizers` and every activation
    producer clips to it.
    """
    product = lhs.astype(np.float64, copy=False) @ rhs.astype(np.float64, copy=False)
    accumulator = product.astype(np.int64)
    if bias is not None:
        accumulator += bias
    if requant is None:
        return accumulator
    return apply_requant(accumulator, *requant)


def _conv1d(node, lowered, in_scale, requant) -> Kernel:
    weight = lowered.constants["weight"].values
    out_channels, _, kernel = weight.shape
    flat_weight = weight.reshape(out_channels, -1).T.astype(np.float64)
    bias = getattr(lowered.constants.get("bias"), "values", None)
    output = requant["output"]
    stride, padding, dilation = (int(node.attrs[key]) for key in ("stride", "padding", "dilation"))

    def run(q_x, tensors):
        patches = im2col(q_x, kernel, stride=stride, padding=padding, dilation=dilation)
        batch, out_length, patch_dim = patches.shape
        rows = patches.reshape(batch * out_length, patch_dim)
        quantized = int_gemm(rows, flat_weight, bias=bias, requant=output)
        return quantized.reshape(batch, out_length, out_channels).transpose(0, 2, 1)

    return run


def _linear(node, lowered, in_scale, requant) -> Kernel:
    weight = lowered.constants["weight"].values
    out_features, in_features = weight.shape
    weight_t = weight.T.astype(np.float64)
    bias = getattr(lowered.constants.get("bias"), "values", None)
    output = requant["output"]

    def run(q_x, tensors):
        rows = q_x.reshape(-1, in_features)
        quantized = int_gemm(rows, weight_t, bias=bias, requant=output)
        return quantized.reshape(q_x.shape[:-1] + (out_features,))

    return run


def _matmul(node, lowered, in_scale, requant) -> Kernel:
    other = node.inputs[1]
    transpose_b = bool(node.attrs.get("transpose_b", False))
    output = requant["output"]

    def run(q_x, tensors):
        q_other = tensors[other]
        if transpose_b:
            q_other = np.swapaxes(q_other, -1, -2)
        # Fold the leading (batch, heads) axes into one stacked GEMM so the
        # whole micro-batch contracts in a single matmul.
        quantized = int_gemm(
            q_x.reshape((-1,) + q_x.shape[-2:]),
            q_other.reshape((-1,) + q_other.shape[-2:]),
            requant=output,
        )
        return quantized.reshape(q_x.shape[:-2] + quantized.shape[-2:])

    return run


def _channel_affine(node, lowered, in_scale, requant) -> Kernel:
    scale = lowered.constants["scale"].values.reshape(1, -1, 1)
    shift = lowered.constants["shift"].values.reshape(1, -1, 1)
    output = requant["output"]

    def run(q_x, tensors):
        accumulator = q_x.astype(np.int64) * scale
        accumulator += shift
        return apply_requant(accumulator, *output)

    return run


def _add(node, lowered, in_scale, requant) -> Kernel:
    other = node.inputs[1]
    lhs, rhs = requant["lhs"], requant["rhs"]

    def run(q_x, tensors):
        total = apply_requant(q_x, *lhs) + apply_requant(tensors[other], *rhs)
        return np.clip(total, QMIN, QMAX).astype(np.int32)

    return run


def _append_token(node, lowered, in_scale, requant) -> Kernel:
    token = lowered.constants["token"].values.reshape(1, 1, -1).astype(np.int32, copy=False)
    rescale = requant["input"]

    def run(q_x, tensors):
        rescaled = apply_requant(q_x, *rescale)
        tokens = np.broadcast_to(token, (rescaled.shape[0], 1, rescaled.shape[2]))
        return np.concatenate([rescaled, tokens], axis=1)

    return run


def _add_positional(node, lowered, in_scale, requant) -> Kernel:
    positions = lowered.constants["positions"].values[None, :, :]
    rescale = requant["input"]

    def run(q_x, tensors):
        rescaled = apply_requant(q_x, *rescale)
        return np.clip(rescaled + positions, QMIN, QMAX).astype(np.int32)

    return run


def _relu(node, lowered, in_scale, requant) -> Kernel:
    output = requant["output"]
    return lambda q_x, tensors: apply_requant(np.maximum(q_x, 0), *output)


def _gelu(node, lowered, in_scale, requant) -> Kernel:
    # The table already fuses the polynomial and the output requantisation:
    # one gather per element.
    table = lowered.luts["gelu"]
    return lambda q_x, tensors: table.take(q_x).astype(np.int32, copy=False)


def _softmax(node, lowered, in_scale, requant) -> Kernel:
    axis = int(node.attrs.get("axis", -1))
    table = lowered.luts["exp"]
    output = requant["output"]
    one = np.int64(1) << ibert.SOFTMAX_OUTPUT_BITS

    def run(q_x, tensors):
        q = q_x.astype(np.int64)
        q_exp = table.take(q - q.max(axis=axis, keepdims=True))
        total = np.maximum(q_exp.sum(axis=axis, keepdims=True), 1)
        return apply_requant((q_exp * one) // total, *output)

    return run


def _layernorm(node, lowered, in_scale, requant) -> Kernel:
    weight = lowered.constants["weight"].values
    bias = lowered.constants["bias"].values
    output = requant["output"]
    return lambda q_x, tensors: apply_requant(
        ibert.integer_layernorm(q_x, in_scale, weight, bias)[0], *output
    )


def _avgpool1d(node, lowered, in_scale, requant) -> Kernel:
    kernel = int(node.attrs["kernel_size"])
    stride = int(node.attrs["stride"])
    output = requant["output"]

    def run(q_x, tensors):
        # One strided gather over all taps: (B, C, out_length, kernel).
        windows = np.lib.stride_tricks.sliding_window_view(q_x, kernel, axis=-1)
        accumulator = windows[:, :, ::stride, :].sum(axis=-1, dtype=np.int64)
        return apply_requant(accumulator, *output)

    return run


def _mean_tokens(node, lowered, in_scale, requant) -> Kernel:
    output = requant["output"]
    return lambda q_x, tensors: apply_requant(q_x.sum(axis=1, dtype=np.int64), *output)


#: Each non-shape operator's binder is the function named after it.  It
#: returns the node's kernel, closed over the node's attributes, its
#: ``QuantizedNode`` payload, its input scale and ``requant``: role ->
#: ``(multiplier, shift)``, the node's stored pairs onto the int8 grid.
_BINDERS: Dict[str, Callable[..., Kernel]] = {
    op: globals()[f"_{op}"] for op in OPERATORS if op not in SHAPE_KERNELS
}


class IntegerGraphExecutor:
    """Executes a :class:`QuantizedGraph` with integer-only arithmetic.

    The lowered graph alone decides how each node runs: MAC nodes through
    :func:`int_gemm`, GELU/softmax through their lookup tables, every
    requantisation with the node's stored pairs.  Each kernel (fused-chain
    members included) is bound once, here, into a :class:`BoundSchedule`.
    ``input_shape`` (per window) and ``num_classes`` are read from the graph.
    """

    name = "int8"

    def __init__(self, quantized: QuantizedGraph) -> None:
        self.quantized = quantized
        self.graph = quantized.graph
        self.input_shape = tuple(int(size) for size in self.graph.graph_input.shape)
        self.num_classes = int(self.graph.output.shape[-1])
        self.schedule = BoundSchedule(self.graph, self._bind)

    def _bind(self, node: GraphNode) -> Kernel:
        """One original node's kernel; shape operators share the float ones."""
        if node.op in SHAPE_KERNELS:
            return SHAPE_KERNELS[node.op](node)
        lowered = self.quantized.nodes[node.name]
        in_scale = self.quantized.activations[node.inputs[0]].scale
        return _BINDERS[node.op](node, lowered, in_scale, lowered.requantizers)

    def run_integer(self, inputs: np.ndarray) -> np.ndarray:
        """Run the graph; returns the *integer* logits (int8 grid).

        Raises ``ValueError`` on a NaN or an infinity, which has no int8
        value to quantise to.
        """
        batch = self.graph.batched_input(inputs)
        if not np.isfinite(batch).all():
            raise ValueError(
                f"graph '{self.graph.name}' input contains non-finite (NaN/Inf) "
                "samples; refusing to quantize it"
            )
        return self.schedule.run(self.quantized.input_quantization.quantize(batch))

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Run the graph and return dequantised (float) logits."""
        integer_logits = self.run_integer(inputs)
        return self.quantized.output_quantization.dequantize(integer_logits)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Class predictions of the integer-only inference path."""
        return np.argmax(self.run_integer(inputs), axis=-1)

    def agreement_with_float(self, inputs: np.ndarray) -> float:
        """Fraction of inputs where int8 and float inference agree on the class."""
        float_predictions = FloatGraphExecutor(self.graph).predict(inputs)
        integer_predictions = self.predict(inputs)
        return float(np.mean(float_predictions == integer_predictions))

