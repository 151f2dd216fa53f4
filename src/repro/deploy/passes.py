"""The deploy compiler: capture → six fixed stages → consumers.

A tracer (:mod:`repro.deploy.tracers`) captures a
:class:`~repro.deploy.graph.ComputeGraph`, and :func:`compile_graph` lowers
it by running six stage functions in one fixed order:

1. ``calibrate-activations`` (:func:`calibrate_activations`);
2. ``quantize-weights`` (:func:`quantize_weights`);
3. ``lut-substitution`` (:func:`substitute_luts`);
4. ``fold-requant`` (:func:`fold_requant`);
5. ``fuse-conv-pool`` (:func:`fuse_conv_pool`);
6. ``dead-node-elimination`` (:func:`eliminate_dead_nodes`).

The resulting :class:`~repro.deploy.lowering.QuantizedGraph` feeds every
consumer — the integer executor, the memory and tiling planners and the
deployment report.

Contract
--------
* Every stage is **bitwise-safe**: the lowered graph produces the logits of
  the traced schedule bit for bit.  Stages 4–6 only restructure the
  *schedule* — a fused node carries its constituent kernels in
  ``attrs["fused_chain"]``, and each executor binds every member once and
  composes the chain into one kernel with the exact original per-stage
  arithmetic (chaining two fixed-point requantisers into one multiplier
  would double-round and is **not** bitwise-exact, so fusion deliberately
  keeps the per-stage pairs).
* No stage mutates the traced graph; the fusion stages build new graphs,
  and :attr:`QuantizedGraph.source_graph` keeps the trace.
* Building a :class:`~repro.deploy.graph.ComputeGraph` validates it, so a
  stage that builds a malformed graph fails at once.
* :func:`compile_graph` times each stage into a :class:`PassRecord` (node
  counts and wall time).
  The manifest ships on the :class:`QuantizedGraph` and is shown by the
  deployment report.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..quant import ibert
from .engine import FloatGraphExecutor
from .graph import LUT_OPERATORS, MAC_OPERATORS, ComputeGraph, GraphNode
from .lowering import (
    QMAX,
    ActivationQuantization,
    CalibrationError,
    QuantizedConstant,
    QuantizedGraph,
    QuantizedNode,
    _quantize_weight,
    _symmetric_scale,
    build_gelu_lut,
    build_softmax_exp_lut,
    encode_requantizer,
)

__all__ = [
    "LoweringConfig",
    "PassRecord",
    "FOLDABLE_OPERATORS",
    "calibrate_activations",
    "quantize_weights",
    "substitute_luts",
    "fold_requant",
    "fuse_conv_pool",
    "eliminate_dead_nodes",
    "compile_graph",
]

#: Elementwise tails :func:`fold_requant` may absorb into a preceding MAC
#: node.  Each is a single-input kernel whose integer lowering consumes the
#: producer's requantised int8 output directly, so running it inside the
#: fused node is the identical arithmetic.
FOLDABLE_OPERATORS: Tuple[str, ...] = ("channel_affine", "relu", "gelu")

#: Payloads by original node name, as the stages build and thread them.
Payloads = Dict[str, QuantizedNode]


@dataclass(frozen=True)
class LoweringConfig:
    """Configuration of the deploy compiler.

    The only way to configure :func:`~repro.deploy.lowering.lower_to_int8`,
    :func:`~repro.deploy.report.deploy_graph`, ``build_int8_backend`` and
    ``InferenceServer(lowering=...)``.  Frozen and hashable, so the serving
    tier keys its backend cache on the config itself.  The integer grid is
    not a setting: it is always int8 (:data:`~repro.deploy.lowering.QMIN`).
    """

    #: Percentile of ``|activation|`` covered by the activation scale.
    calibration_percentile: float = 99.9


@dataclass(frozen=True)
class PassRecord:
    """Execution record of one compiler stage (the manifest entry)."""

    name: str
    nodes_before: int
    nodes_after: int
    wall_ms: float


# --------------------------------------------------------------------- #
# Lowering stages (annotate the traced graph's nodes)
# --------------------------------------------------------------------- #
def calibrate_activations(
    graph: ComputeGraph, calibration: np.ndarray, config: LoweringConfig
) -> Dict[str, ActivationQuantization]:
    """Run the float executor on the calibration batch and pick scales.

    Each free scale is taken as its tensor is produced, so the run keeps
    no more tensors alive than inference does.  Only tensors whose scale
    is free get a percentile:

    * softmax outputs are probabilities in [0, 1]; their scale is pinned to
      ``1 / QMAX`` so the attention weighting keeps maximum resolution;
    * shape-only outputs share their input's scale, because the integer
      executor moves their int8 data without requantising it.

    Raises :class:`CalibrationError` on an empty batch, which has no
    magnitudes to take a percentile of.
    """
    if calibration.size == 0:
        raise CalibrationError(
            f"calibration batch of graph '{graph.name}' is empty "
            f"(shape {calibration.shape})"
        )
    free = {graph.graph_input.name} | {
        node.output.name
        for node in graph.nodes
        if node.op != "softmax" and not node.is_shape_only
    }
    scales: Dict[str, float] = {}

    def observe(name: str, values: np.ndarray) -> None:
        if name in free:
            scales[name] = _symmetric_scale(
                values, percentile=config.calibration_percentile, name=name
            )

    FloatGraphExecutor(graph).run(calibration, observe)
    for node in graph.nodes:
        if node.op == "softmax":
            scales[node.output.name] = 1.0 / float(QMAX)
        elif node.is_shape_only:
            scales[node.output.name] = scales[node.inputs[0]]
    return {
        tensor.name: ActivationQuantization(name=tensor.name, scale=scales[tensor.name])
        for tensor in [graph.graph_input] + [node.output for node in graph.nodes]
    }


#: An empty integer input: the I-BERT kernels run on it only to report their
#: output scale, so the formulas stay defined in :mod:`repro.quant.ibert`.
_NO_VALUES = np.zeros((0, 1), dtype=np.int64)


def quantize_weights(
    graph: ComputeGraph, activations: Dict[str, ActivationQuantization]
) -> Payloads:
    """Quantise every node's constants and encode every requantiser its
    integer kernel applies (``docs/compiler.md``, the requantiser contract)."""
    quantized_nodes: Payloads = {}
    for node in graph.nodes:
        lowered = QuantizedNode(node=node)
        input_scale = activations[node.inputs[0]].scale
        output_scale = activations[node.output.name].scale
        # Scale of the integers the kernel requantises to the output grid.
        accumulator_scale = None

        if node.op in ("conv1d", "linear"):
            weight = _quantize_weight(node.weights["weight"])
            lowered.constants["weight"] = weight
            if "bias" in node.weights:
                bias_scale = input_scale * weight.scale
                bias = np.round(node.weights["bias"] / bias_scale).astype(np.int64)
                lowered.constants["bias"] = QuantizedConstant(
                    values=bias, scale=bias_scale, dtype="int32"
                )
            accumulator_scale = input_scale * weight.scale
        elif node.op == "matmul":
            other_scale = activations[node.inputs[1]].scale
            accumulator_scale = (
                input_scale * other_scale * float(node.attrs.get("scale", 1.0))
            )
        elif node.op == "channel_affine":
            scale_q = _quantize_weight(node.weights["scale"])
            lowered.constants["scale"] = scale_q
            accumulator_scale = input_scale * scale_q.scale
            shift = np.round(node.weights["shift"] / accumulator_scale).astype(np.int64)
            lowered.constants["shift"] = QuantizedConstant(shift, accumulator_scale, "int32")
        elif node.op in ("append_token", "add_positional"):
            key = "token" if node.op == "append_token" else "positions"
            constant = node.weights[key]
            lowered.constants[key] = QuantizedConstant(
                values=np.round(constant / output_scale).astype(np.int32),
                scale=output_scale,
                dtype="int8",
            )
            lowered.requantizers["input"] = encode_requantizer(input_scale / output_scale)
        elif node.op == "add":
            other_scale = activations[node.inputs[1]].scale
            lowered.requantizers["lhs"] = encode_requantizer(input_scale / output_scale)
            lowered.requantizers["rhs"] = encode_requantizer(other_scale / output_scale)
        elif node.op == "relu":
            accumulator_scale = input_scale
        elif node.op == "gelu":
            accumulator_scale = ibert.integer_gelu(_NO_VALUES, input_scale)[1]
        elif node.op == "softmax":
            accumulator_scale = ibert.integer_softmax(_NO_VALUES, input_scale)[1]
        elif node.op == "layernorm":
            # LayerNorm keeps its affine parameters in float; they are a
            # negligible 2*C values folded into the requantisation step.
            weight, bias = node.weights["weight"].copy(), node.weights["bias"].copy()
            lowered.constants["weight"] = QuantizedConstant(weight, 1.0, "int32")
            lowered.constants["bias"] = QuantizedConstant(bias, 1.0, "int32")
            accumulator_scale = ibert.integer_layernorm(
                _NO_VALUES, input_scale, weight, bias
            )[1]
        elif node.op == "avgpool1d":
            accumulator_scale = input_scale / int(node.attrs["kernel_size"])
        elif node.op == "mean_tokens":
            tokens = graph.tensor_specs()[node.inputs[0]].shape[0]
            accumulator_scale = input_scale / tokens
        if accumulator_scale is not None:
            lowered.requantizers["output"] = encode_requantizer(
                accumulator_scale / output_scale
            )
        quantized_nodes[node.name] = lowered
    return quantized_nodes


def substitute_luts(
    graph: ComputeGraph,
    activations: Dict[str, ActivationQuantization],
    nodes: Payloads,
) -> None:
    """Tabulate the GELU / softmax-``exp`` nonlinearities into the payloads.

    The tables are the only int8 op set for these nonlinearities.  They are
    built by evaluating the elementwise :mod:`repro.quant.ibert` kernels
    over the full input domain, the GELU table with the node's stored
    output requantiser, so they are bit-identical to those kernels by
    construction.
    """
    for node in graph.nodes:
        if node.op not in LUT_OPERATORS:
            continue
        in_act = activations[node.inputs[0]]
        lowered = nodes[node.name]
        if node.op == "gelu":
            lowered.luts["gelu"] = build_gelu_lut(
                in_act, activations[node.output.name], lowered.requantizers["output"]
            )
        else:
            lowered.luts["exp"] = build_softmax_exp_lut(in_act)


# --------------------------------------------------------------------- #
# Schedule stages (restructure the graph; bitwise-identical)
# --------------------------------------------------------------------- #
def _fuse_nodes(base: GraphNode, tail: GraphNode) -> GraphNode:
    """Fuse ``tail`` into ``base``, preserving the original kernels.

    The fused node keeps the base name/op/inputs, takes the tail's output
    spec, and records the full original kernel chain in
    ``attrs["fused_chain"]`` — the executors compose that chain into one
    kernel with the per-stage requantisers intact (collapsing two
    fixed-point stages into one multiplier would double-round, which is
    not bitwise-safe).  Tail
    constants are merged under ``"<tail-name>::<role>"`` keys so the graph's
    weight accounting still sees every constant exactly once.
    """
    chain = base.fusion_chain + (tail,)
    attrs = dict(chain[0].attrs)
    attrs["fused_chain"] = chain
    weights = dict(chain[0].weights)
    for sub in chain[1:]:
        for role, values in sub.weights.items():
            weights[f"{sub.name}::{role}"] = values
    return GraphNode(
        name=chain[0].name,
        op=chain[0].op,
        inputs=list(chain[0].inputs),
        output=tail.output,
        attrs=attrs,
        weights=weights,
    )


def _forward_fuse(
    graph: ComputeGraph,
    base_test: Callable[[GraphNode], bool],
    tail_test: Callable[[GraphNode], bool],
) -> ComputeGraph:
    """Shared forward-scan fusion: absorb qualifying immediate successors.

    A tail qualifies only when it is the node *immediately following* the
    growing fused region in schedule order, consumes exactly the region's
    output, and that output has no other consumer and is not the graph
    output — so reusing the base's position keeps SSA order valid trivially.
    Payloads stay keyed by original node name, so fusion leaves them as
    they are.
    """
    consumer_count = Counter(
        tensor for node in graph.nodes for tensor in node.inputs
    )
    new_nodes: List[GraphNode] = []
    fused_any = False
    index = 0
    while index < len(graph.nodes):
        node = graph.nodes[index]
        cursor = index + 1
        if base_test(node):
            fused = node
            while cursor < len(graph.nodes):
                tail = graph.nodes[cursor]
                produced = fused.output.name
                if (
                    tail.inputs != [produced]
                    or consumer_count[produced] != 1
                    or not tail_test(tail)
                ):
                    break
                fused = _fuse_nodes(fused, tail)
                cursor += 1
            fused_any = fused_any or cursor > index + 1
            new_nodes.append(fused)
        else:
            new_nodes.append(node)
        index = cursor
    if not fused_any:
        return graph
    return ComputeGraph(graph.name, graph.graph_input, new_nodes)


def fold_requant(graph: ComputeGraph) -> ComputeGraph:
    """Fold sole-consumer elementwise tails into the preceding MAC node.

    ``conv1d → channel_affine → relu`` (TEMPONet's conv/BN/ReLU stages) and
    ``linear → gelu`` (Bioformer's FFN expand) become one fused node each:
    one kernel launch, no intermediate tensor in the arena, per-stage
    requantisation arithmetic unchanged.
    """
    return _forward_fuse(
        graph,
        base_test=lambda node: node.op in MAC_OPERATORS,
        tail_test=lambda tail: tail.op in FOLDABLE_OPERATORS,
    )


def fuse_conv_pool(graph: ComputeGraph) -> ComputeGraph:
    """Fuse a sole-consumer ``avgpool1d`` into the preceding conv node.

    Runs after :func:`fold_requant`, so the base is typically an already
    fused ``conv1d(+affine+relu)`` region — the pool then accumulates
    directly from the fused kernel's output registers.
    """
    return _forward_fuse(
        graph,
        base_test=lambda node: node.op == "conv1d",
        tail_test=lambda tail: tail.op == "avgpool1d",
    )


def eliminate_dead_nodes(
    graph: ComputeGraph, nodes: Payloads
) -> Tuple[ComputeGraph, Payloads]:
    """Drop nodes whose outputs reach neither the graph output nor any use.

    A reverse liveness sweep from the graph output; the tracer emits no dead
    nodes today, but hand-built graphs can, and the compiler should leave
    no unreachable kernels in the schedule or the weight binary.  Payloads
    of removed nodes are dropped too, so the byte accounting shrinks with
    the graph.
    """
    live = {graph.output.name}
    kept_reversed: List[GraphNode] = []
    for node in reversed(graph.nodes):
        if node.output.name in live:
            kept_reversed.append(node)
            live.update(node.inputs)
    if len(kept_reversed) == len(graph.nodes):
        return graph, nodes
    kept = list(reversed(kept_reversed))
    removed = {node.name for node in graph.nodes} - {node.name for node in kept}
    payloads = {name: payload for name, payload in nodes.items() if name not in removed}
    return ComputeGraph(graph.name, graph.graph_input, kept), payloads


# --------------------------------------------------------------------- #
# The pipeline
# --------------------------------------------------------------------- #
def compile_graph(
    graph: ComputeGraph,
    calibration_inputs: np.ndarray,
    config: Optional[LoweringConfig] = None,
) -> QuantizedGraph:
    """Run the deploy compiler: traced graph in, lowered graph out.

    The six stages run in the fixed order of the module docstring, each
    timed into the manifest under its name.
    """
    config = config if config is not None else LoweringConfig()
    calibration = np.asarray(calibration_inputs, dtype=np.float64)
    manifest: List[PassRecord] = []
    start = time.perf_counter()

    def lap(name: str, before: ComputeGraph, after: ComputeGraph) -> None:
        nonlocal start
        now = time.perf_counter()
        manifest.append(PassRecord(name, len(before), len(after), (now - start) * 1e3))
        start = now

    activations = calibrate_activations(graph, calibration, config)
    lap("calibrate-activations", graph, graph)
    nodes = quantize_weights(graph, activations)
    lap("quantize-weights", graph, graph)
    substitute_luts(graph, activations, nodes)
    lap("lut-substitution", graph, graph)
    folded = fold_requant(graph)
    lap("fold-requant", graph, folded)
    pooled = fuse_conv_pool(folded)
    lap("fuse-conv-pool", folded, pooled)
    executable, nodes = eliminate_dead_nodes(pooled, nodes)
    lap("dead-node-elimination", pooled, executable)
    # Every graph a stage builds was validated by its constructor; this
    # re-checks a result that is the caller's own graph passed through
    # unchanged, whose mutable ``nodes`` list may have been edited since
    # that graph was constructed.
    executable.validate()
    return QuantizedGraph(
        graph=executable,
        activations=activations,
        nodes=nodes,
        manifest=tuple(manifest),
        source_graph=graph,
        config=config,
    )
