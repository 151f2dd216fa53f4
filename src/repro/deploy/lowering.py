"""Lowering: turn a float :class:`ComputeGraph` into an int8 deployment graph.

The paper deploys int8 models on GAP8 with the integer-only transformer
kernels of Burrello et al. (COINS 2021), which follow the usual MCU
convention:

* **weights** — per-tensor symmetric int8 (``w ≈ q_w · s_w``);
* **activations** — per-tensor symmetric int8, with scales calibrated on a
  batch of representative inputs;
* **accumulation** — int32; biases are stored as int32 at the accumulator
  scale ``s_x · s_w``;
* **requantisation** — the float factor ``s_x · s_w / s_y`` between the
  accumulator and the next activation is encoded as a fixed-point multiplier
  plus arithmetic shift, so inference needs no floating point at all.

:func:`lower_to_int8` performs that conversion.  It is a thin entry point
over the deploy compiler in :mod:`repro.deploy.passes`, whose four fixed
stages calibrate, quantise the weights, tabulate the transformer
nonlinearities and fuse the schedule; the resulting :class:`QuantizedGraph`
is consumed by the integer executor (:mod:`repro.deploy.int_engine`), the
memory and tiling planners and the deployment report.  This module keeps
the lowering *data model* (activation/constant/node/graph dataclasses, the
fixed-point requantiser encoding and its application, the LUT builders)
that both the compiler stages and the consumers share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Dict, Optional, Tuple

import numpy as np

from ..quant import ibert
from ..quant.quantizers import QMAX, QMIN, dequantize, quantize, weight_scale
from .graph import ComputeGraph, GraphNode, LookupTable

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .passes import LoweringConfig, PassRecord

_INT64_MAX = np.iinfo(np.int64).max

__all__ = [
    "QMIN",
    "QMAX",
    "ActivationQuantization",
    "CalibrationError",
    "QuantizedConstant",
    "QuantizedNode",
    "QuantizedGraph",
    "quantize_multiplier",
    "encode_requantizer",
    "apply_requant",
    "requantize",
    "build_gelu_lut",
    "build_softmax_exp_lut",
    "lower_to_int8",
]


def quantize_multiplier(value: float, bits: int = 31) -> Tuple[int, int]:
    """Encode a positive float as ``multiplier / 2**shift`` (fixed point).

    This is the canonical requantisation encoding used by integer inference
    runtimes (gemmlowp, CMSIS-NN, PULP-NN): the returned ``multiplier`` fits
    in ``bits`` bits and ``value ≈ multiplier * 2**-shift``.
    """
    if value <= 0.0:
        raise ValueError("requantisation factor must be positive")
    shift = 0
    scaled = value
    limit = float(2 ** (bits - 1))
    while scaled < limit / 2:
        scaled *= 2.0
        shift += 1
    while scaled >= limit:
        scaled /= 2.0
        shift -= 1
    return int(round(scaled)), shift


def encode_requantizer(factor: float) -> Tuple[int, int]:
    """:func:`quantize_multiplier` of ``|factor|``, the sign on the multiplier.

    :func:`apply_requant` multiplies in int64, where ``(-v) * m == v * (-m)``
    exactly, so a negative pair equals negating the accumulators first.
    """
    multiplier, shift = quantize_multiplier(abs(factor))
    return (-multiplier if factor < 0 else multiplier), shift


def apply_requant(values: np.ndarray, multiplier: int, shift: int) -> np.ndarray:
    """Apply an encoded ``(multiplier, shift)`` requantiser to accumulators.

    Consumers pass the pair the lowering stored on the node
    (:attr:`QuantizedNode.requantizers`).  ``values`` of any integer dtype
    are widened to int64 here, once, so callers pass their arrays as they
    are.  The result is rounded, clipped to the int8 grid ``[QMIN, QMAX]``
    and returned as ``int32``.
    """
    scaled = values.astype(np.int64, copy=False) * multiplier
    if shift > 0:
        scaled += np.int64(1) << (shift - 1)
        scaled >>= shift
    elif shift < 0:
        left = -shift
        # Left shifts occur only for extreme (>~2) requantisation factors.
        # A saturating value would overflow int64 and wrap sign; clipping
        # to [QMIN, QMAX] *before* the shift is exact, because the final
        # clip is monotone and QMIN <= 0 <= QMAX: any value outside the
        # grid before scaling up lands on the same bound after it.
        scaled = np.clip(scaled, QMIN, QMAX)
        if (max(-QMIN, QMAX) << left) > _INT64_MAX:
            # The shift alone exceeds int64: every non-zero value saturates.
            scaled = np.where(scaled > 0, QMAX, np.where(scaled < 0, QMIN, 0))
        else:
            scaled = scaled << np.int64(left)
    return np.clip(scaled, QMIN, QMAX).astype(np.int32)


def requantize(values: np.ndarray, factor: float) -> np.ndarray:
    """Rescale integer accumulators by a float ``factor`` in fixed point:
    :func:`encode_requantizer` followed by :func:`apply_requant`."""
    multiplier, shift = encode_requantizer(factor)
    return apply_requant(np.asarray(values), multiplier, shift)


@dataclass(frozen=True)
class ActivationQuantization:
    """Symmetric int8 quantisation parameters of one activation tensor."""

    name: str
    scale: float
    qmin: ClassVar[int] = QMIN
    qmax: ClassVar[int] = QMAX

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantise a float array to this tensor's integer grid."""
        return quantize(values, self.scale)

    def dequantize(self, values: np.ndarray) -> np.ndarray:
        """Reconstruct float values from the integer grid."""
        return dequantize(values, self.scale)


@dataclass
class QuantizedConstant:
    """An int8/int32 constant plus the scale it was quantised with."""

    values: np.ndarray
    scale: float
    dtype: str

    @property
    def nbytes(self) -> int:
        """Storage footprint of the constant on the target."""
        per_element = {"int8": 1, "int32": 4}[self.dtype]
        return int(self.values.size * per_element)


@dataclass
class QuantizedNode:
    """A graph node plus its integer constants and requantisation factors."""

    node: GraphNode
    constants: Dict[str, QuantizedConstant] = field(default_factory=dict)
    #: Every ``(multiplier, shift)`` pair the node's integer kernel applies,
    #: by role: ``"output"``, ``"lhs"``/``"rhs"`` (add) or ``"input"``
    #: (append_token, add_positional).  The executor and the GELU table
    #: builder read them; a negative multiplier carries a negative factor.
    requantizers: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Precomputed lookup tables keyed by role (``"gelu"``, ``"exp"``);
    #: populated for every :data:`~repro.deploy.graph.LUT_OPERATORS` node.
    luts: Dict[str, LookupTable] = field(default_factory=dict)

    @property
    def weight_bytes(self) -> int:
        """Total constant bytes of this node (excluding lookup tables)."""
        return sum(constant.nbytes for constant in self.constants.values())

    @property
    def lut_bytes(self) -> int:
        """Total lookup-table bytes of this node on the target."""
        return sum(table.nbytes for table in self.luts.values())


@dataclass
class QuantizedGraph:
    """An int8-lowered inference graph ready for execution.

    ``graph`` is the executable graph: ``source_graph`` with the fusion
    stage applied, so usually structurally smaller (fused) and
    bitwise-equal in its logits.  ``nodes`` keeps one payload per
    *original* node, including nodes absorbed by fusion, so every consumer
    keeps addressing constants, requantisers and tables by name.
    """

    graph: ComputeGraph
    activations: Dict[str, ActivationQuantization]
    nodes: Dict[str, QuantizedNode]
    #: Per-stage execution records of the compiler that produced the graph
    #: (:class:`~repro.deploy.passes.PassRecord` entries), shown by the
    #: deployment report.  Empty for hand-built graphs.
    manifest: Tuple["PassRecord", ...] = ()
    #: The traced graph the compiler started from (before any fusion).
    source_graph: Optional[ComputeGraph] = None
    #: The :class:`~repro.deploy.passes.LoweringConfig` it was lowered with.
    config: Optional["LoweringConfig"] = None

    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def input_quantization(self) -> ActivationQuantization:
        """Quantisation of the graph input tensor."""
        return self.activations[self.graph.graph_input.name]

    @property
    def output_quantization(self) -> ActivationQuantization:
        """Quantisation of the graph output tensor (the logits)."""
        return self.activations[self.graph.output.name]

    @property
    def total_weight_bytes(self) -> int:
        """Total constant storage of the lowered graph."""
        return sum(node.weight_bytes for node in self.nodes.values())

    @property
    def total_lut_bytes(self) -> int:
        """Total lookup-table storage of the lowered graph."""
        return sum(node.lut_bytes for node in self.nodes.values())

    @property
    def weight_kilobytes(self) -> float:
        """Stored bytes incl. int32 biases, KiB."""
        return self.total_weight_bytes / 1024.0


class CalibrationError(ValueError):
    """The calibration batch is empty, or an activation holds a NaN or an
    infinity."""


#: Stride of the sample :func:`_tail_percentile` draws its threshold from.
_TAIL_SAMPLE_STRIDE = 16


def _tail_percentile(magnitudes: np.ndarray, percentile: float) -> float:
    """``np.percentile(magnitudes, percentile)``, bitwise, by tail selection.

    ``magnitudes`` is a finite, non-empty 1-D float64 array.  Numpy's
    ``linear`` method reads the order statistics ``lo = floor(vi)`` and
    ``lo + 1`` at the virtual index ``vi = (n - 1) * q``, so only the top
    ``need = n - lo`` elements matter.  A threshold taken from a strided
    sample keeps a superset of them.  If it keeps too few, the sample
    keeps four times as many and tries again, and once that would be the
    whole sample the whole array is used, so the selection is exact either
    way.  The interpolation is numpy's ``_lerp`` rule, so the float result
    is the same bit for bit.
    """
    n = magnitudes.size
    virtual = (n - 1) * (percentile / 100.0)
    if virtual >= n - 1:
        return float(magnitudes.max())
    lo = int(virtual)
    gamma = virtual - lo
    need = n - lo
    tail = magnitudes
    sample = magnitudes[::_TAIL_SAMPLE_STRIDE]
    # The sample holds about ``need / stride`` tail elements; keeping twice
    # that plus a margin is usually enough.  A row repeated across the
    # batch (the class token) puts every copy of one value in the sample,
    # so keep grows until the threshold falls below enough elements.
    keep = 2 * (need // _TAIL_SAMPLE_STRIDE) + 8
    while keep < sample.size:
        threshold = np.partition(sample, sample.size - keep)[sample.size - keep]
        candidates = magnitudes[magnitudes >= threshold]
        if candidates.size >= need:
            tail = candidates
            break
        keep *= 4
    # Everything outside ``tail`` is below it, so global rank ``lo`` is
    # rank ``tail.size - need`` inside it.
    rank = tail.size - need
    a, b = np.partition(tail, (rank, rank + 1))[rank : rank + 2]
    if gamma >= 0.5:
        return float(b - (b - a) * (1 - gamma))
    return float(a + (b - a) * gamma)


def _symmetric_scale(
    values: np.ndarray, percentile: float = 100.0, name: str = "activation"
) -> float:
    """Symmetric per-tensor scale covering the given percentile of |values|.

    Raises :class:`CalibrationError` naming the tensor if ``values`` holds a
    NaN or an infinity.
    """
    magnitudes = np.abs(np.asarray(values, dtype=np.float64)).reshape(-1)
    peak = magnitudes.max()
    if not np.isfinite(peak):
        raise CalibrationError(
            f"calibration activation '{name}' is not finite (max |x| = {peak})"
        )
    bound = max(_tail_percentile(magnitudes, percentile), 1e-8)
    return bound / float(QMAX)


def _quantize_weight(values: np.ndarray) -> QuantizedConstant:
    scale = weight_scale(values)
    return QuantizedConstant(values=quantize(values, scale), scale=scale, dtype="int8")


# --------------------------------------------------------------------- #
# Lookup-table construction (I-BERT nonlinearities over bounded domains)
# --------------------------------------------------------------------- #
def build_gelu_lut(
    in_act: ActivationQuantization,
    out_act: ActivationQuantization,
    requantizer: Tuple[int, int],
) -> LookupTable:
    """Tabulate the fused integer GELU + requantisation kernel.

    GELU consumes the requantised int8 grid directly, so the whole node —
    I-BERT's sign-decomposed polynomial followed by the node's stored
    ``requantizer`` pair — is a pure function of one int8 value.  The table
    is built by evaluating exactly that elementwise chain over every
    representable input, which makes LUT execution bit-identical over the
    full domain by construction.
    """
    domain = np.arange(in_act.qmin, in_act.qmax + 1, dtype=np.int64)
    q_out, _ = ibert.integer_gelu(domain, in_act.scale)
    values = apply_requant(q_out, *requantizer)
    return LookupTable(
        op="gelu",
        domain_min=in_act.qmin,
        domain_max=in_act.qmax,
        values=values.astype(np.int32),
        dtype="int8",
        config=(float(in_act.scale), float(out_act.scale), 0),
    )


def build_softmax_exp_lut(in_act: ActivationQuantization) -> LookupTable:
    """Tabulate the integer ``exp`` of the softmax numerator.

    The I-BERT softmax first subtracts the row maximum, so the polynomial
    ``exp`` only ever sees values in ``[qmin - qmax, 0]`` — one table entry
    per representable shifted input.  The row-wise sum, the fixed-point
    normalisation to ``2**-SOFTMAX_OUTPUT_BITS`` and the output
    requantisation stay exact integer arithmetic in the executor.
    """
    domain = np.arange(in_act.qmin - in_act.qmax, 1, dtype=np.int64)
    values, _ = ibert.integer_exp(domain, in_act.scale)
    return LookupTable(
        op="exp",
        domain_min=int(domain[0]),
        domain_max=0,
        values=values.astype(np.int64),
        dtype="int32",
        config=(float(in_act.scale), 0, ibert.SOFTMAX_OUTPUT_BITS),
    )


def lower_to_int8(
    graph: ComputeGraph,
    calibration_inputs: np.ndarray,
    config: Optional["LoweringConfig"] = None,
    *,
    use_lut: bool = True,
) -> QuantizedGraph:
    """Quantise a traced graph to int8 using a calibration batch.

    This is the stable entry point of the deploy compiler: it runs the
    four stages of :func:`repro.deploy.passes.compile_graph`
    (calibrate-activations → quantize-weights → lut-substitution → fuse).

    Parameters
    ----------
    graph:
        The float graph produced by :func:`~repro.deploy.tracers.trace_model`.
    calibration_inputs:
        ``(batch, channels, samples)`` array of representative inputs used to
        pick the activation scales; an empty batch raises
        :class:`CalibrationError`.
    config:
        A :class:`~repro.deploy.passes.LoweringConfig` selecting the
        calibration percentile; ``LoweringConfig()`` when omitted.
    use_lut:
        Accepted for callers that still spell out the table op set.  The
        tables are the only op set, so ``False`` raises ``ValueError``.

    Returns
    -------
    A :class:`QuantizedGraph` bundling the executable graph, the per-tensor
    activation scales, the integer constants, the requantisation factors,
    the nonlinearity lookup tables, and the stage manifest.
    """
    from .passes import compile_graph

    if not use_lut:
        raise ValueError(
            "use_lut=False is not supported: GELU and softmax always run "
            "through their lookup tables"
        )
    return compile_graph(graph, calibration_inputs, config)
