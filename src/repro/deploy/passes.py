"""The deploy compiler: capture → passes → codegen.

``lower_to_int8`` runs as a pass pipeline over the deploy graph IR, in the
style of torch.fx-like tracer/transform stacks: a tracer
(:mod:`repro.deploy.tracers`) captures a
:class:`~repro.deploy.graph.ComputeGraph`, an ordered list of
:class:`GraphPass` objects transforms/annotates it under a
:class:`PassManager`, and the resulting
:class:`~repro.deploy.lowering.QuantizedGraph` feeds every consumer — the
integer executor, the C code generator and the deployment report.

Pipeline contract
-----------------
* Every pass is **pure**: it receives a :class:`LoweringState` and returns a
  new one, never mutating its input graph (the manager snapshots and checks).
* The manager re-runs :meth:`ComputeGraph.validate` after every pass, so a
  buggy pass fails at its own boundary instead of corrupting consumers.
* Every pass is **bitwise-safe**: the lowered graph must produce logits
  bit-identical to the unoptimized path.  The optimization passes
  (requant folding, conv→pool fusion, dead-node elimination) only
  restructure the *schedule* — a fused node carries its constituent
  kernels in ``attrs["fused_chain"]``, and each executor binds every member
  once and composes the chain into one kernel with the exact original
  per-stage arithmetic (chaining two fixed-point requantisers into one
  multiplier would double-round and is **not** bitwise-exact, so fusion
  deliberately keeps the per-stage pairs).
* The manager records a :class:`PassRecord` per pass (node counts and wall
  time); the manifest ships on the :class:`QuantizedGraph` and is shown by
  the deployment report.

The default configuration runs only the base lowering passes, which always
tabulate GELU and the softmax ``exp`` (:class:`LutSubstitutionPass`);
``LoweringConfig(optimize=True)`` adds the fusion passes.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..quant import ibert
from ..quant.quantizers import QuantizationSpec
from .engine import FloatGraphExecutor
from .graph import LUT_OPERATORS, MAC_OPERATORS, ComputeGraph, GraphNode
from .lowering import (
    ActivationQuantization,
    CalibrationError,
    GemmTileInfo,
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
    "LoweringState",
    "GraphPass",
    "PassRecord",
    "PassPipelineError",
    "PassManager",
    "CalibrateActivationsPass",
    "QuantizeWeightsPass",
    "PlanGemmTilesPass",
    "LutSubstitutionPass",
    "FoldRequantPass",
    "FuseConvPoolPass",
    "DeadNodeEliminationPass",
    "FOLDABLE_OPERATORS",
    "build_pass_pipeline",
    "compile_graph",
]

#: Elementwise tails the requant-folding pass may absorb into a preceding
#: MAC node.  Each is a single-input kernel whose integer lowering consumes
#: the producer's requantised int8 output directly, so running it inside
#: the fused node is the identical arithmetic.
FOLDABLE_OPERATORS: Tuple[str, ...] = ("channel_affine", "relu", "gelu")


# --------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LoweringConfig:
    """Configuration of the deploy compiler.

    The only way to configure :func:`~repro.deploy.lowering.lower_to_int8`,
    :func:`~repro.deploy.report.deploy_graph`, ``build_int8_backend`` and
    ``InferenceServer(lowering=...)``.  Frozen and hashable, so the serving
    tier keys its backend cache on the config itself.
    """

    #: Integer precision (8/8 in the paper; other widths for ablations).
    weight_bits: int = 8
    activation_bits: int = 8
    #: Percentile of ``|activation|`` covered by the activation scale.
    calibration_percentile: float = 99.9
    #: Run the schedule-only optimization passes: fold sole-consumer
    #: elementwise tails into the preceding MAC node
    #: (:class:`FoldRequantPass`), fuse a sole-consumer ``avgpool1d`` into
    #: its conv (:class:`FuseConvPoolPass`) and drop unconsumed nodes
    #: (:class:`DeadNodeEliminationPass`).  Logits stay bitwise equal.
    optimize: bool = False


@dataclass
class LoweringState:
    """Everything a pass may read or (functionally) rewrite.

    The state threads the graph plus the lowering annotations through the
    pipeline; a pass returns ``dataclasses.replace(state, ...)`` with the
    fields it changed.  ``source_graph`` always names the traced input graph
    so consumers can diff the optimized schedule against the capture.
    """

    graph: ComputeGraph
    config: LoweringConfig
    calibration: np.ndarray
    source_graph: ComputeGraph
    activations: Dict[str, ActivationQuantization] = field(default_factory=dict)
    nodes: Dict[str, QuantizedNode] = field(default_factory=dict)
    weight_spec: Optional[QuantizationSpec] = None


# --------------------------------------------------------------------- #
# Pass protocol and manager
# --------------------------------------------------------------------- #
class GraphPass:
    """One transformation/annotation step of the deploy compiler.

    Subclasses set :attr:`name` and implement :meth:`run`.  A pass must be
    pure — build new containers, never mutate ``state.graph`` or the dicts
    it shares — and must keep execution bitwise-identical (see the module
    docstring for why requant chains cannot be collapsed numerically).
    """

    name: str = "graph-pass"

    def run(self, state: LoweringState) -> LoweringState:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name='{self.name}')"


@dataclass(frozen=True)
class PassRecord:
    """Execution record of one pass (the manifest entry)."""

    name: str
    nodes_before: int
    nodes_after: int
    wall_ms: float

    @property
    def removed_nodes(self) -> int:
        return self.nodes_before - self.nodes_after


class PassPipelineError(RuntimeError):
    """A pass produced an invalid graph or violated the purity contract."""


class PassManager:
    """Runs an ordered pass list, validating the graph after every pass.

    The manager enforces the pipeline contract mechanically: the input
    graph's node list is snapshotted before each pass and compared after
    (purity), the returned graph is re-validated (SSA/uniqueness), and a
    :class:`PassRecord` is appended to :attr:`manifest` per pass.  Failures
    are wrapped in :class:`PassPipelineError` naming the offending pass.
    """

    def __init__(self, passes: Sequence[GraphPass]) -> None:
        self.passes: List[GraphPass] = list(passes)
        self.manifest: List[PassRecord] = []

    def run(self, state: LoweringState) -> LoweringState:
        self.manifest = []
        for graph_pass in self.passes:
            nodes_before = len(state.graph)
            snapshot = [(node.name, node.output.name) for node in state.graph.nodes]
            start = time.perf_counter()
            try:
                new_state = graph_pass.run(state)
            except (PassPipelineError, CalibrationError):
                raise
            except Exception as error:
                raise PassPipelineError(
                    f"pass '{graph_pass.name}' failed: {error}"
                ) from error
            wall_ms = (time.perf_counter() - start) * 1e3
            if new_state is None or not isinstance(new_state, LoweringState):
                raise PassPipelineError(
                    f"pass '{graph_pass.name}' returned {type(new_state).__name__}, "
                    "expected a LoweringState"
                )
            after = [(node.name, node.output.name) for node in state.graph.nodes]
            if after != snapshot:
                raise PassPipelineError(
                    f"pass '{graph_pass.name}' mutated its input graph in "
                    "place; passes must return a new graph"
                )
            try:
                new_state.graph.validate()
            except ValueError as error:
                raise PassPipelineError(
                    f"pass '{graph_pass.name}' produced an invalid graph: {error}"
                ) from error
            self.manifest.append(
                PassRecord(
                    name=graph_pass.name,
                    nodes_before=nodes_before,
                    nodes_after=len(new_state.graph),
                    wall_ms=wall_ms,
                )
            )
            state = new_state
        return state


# --------------------------------------------------------------------- #
# Base lowering passes (bitwise-pinned against the pre-pipeline lowering)
# --------------------------------------------------------------------- #
class CalibrateActivationsPass(GraphPass):
    """Run the float executor on the calibration batch and pick scales.

    Only tensors whose scale is free get a percentile:

    * softmax outputs are probabilities in [0, 1]; their scale is pinned to
      ``1 / qmax`` so the attention weighting keeps maximum resolution;
    * shape-only outputs share their input's scale, because the integer
      executor and the generated C kernels move their int8 data without
      requantising it.
    """

    name = "calibrate-activations"

    def run(self, state: LoweringState) -> LoweringState:
        config = state.config
        bits = config.activation_bits
        recorded = FloatGraphExecutor(state.graph).run_recording(state.calibration)

        def calibrated(tensor_name: str) -> float:
            return _symmetric_scale(
                recorded[tensor_name],
                bits=bits,
                percentile=config.calibration_percentile,
                name=tensor_name,
            )

        input_name = state.graph.graph_input.name
        scales = {input_name: calibrated(input_name)}
        for node in state.graph.nodes:
            if node.op == "softmax":
                scale = 1.0 / float(2 ** (bits - 1) - 1)
            elif node.is_shape_only:
                scale = scales[node.inputs[0]]
            else:
                scale = calibrated(node.output.name)
            scales[node.output.name] = scale
        activations = {
            name: ActivationQuantization(name=name, scale=scale, bits=bits)
            for name, scale in scales.items()
        }
        return replace(state, activations=activations)


#: An empty integer input: the I-BERT kernels run on it only to report their
#: output scale, so the formulas stay defined in :mod:`repro.quant.ibert`.
_NO_VALUES = np.zeros((0, 1), dtype=np.int64)


class QuantizeWeightsPass(GraphPass):
    """Quantise every node's constants and encode every requantiser its
    integer kernel applies (``docs/compiler.md``, the requantiser contract)."""

    name = "quantize-weights"

    def run(self, state: LoweringState) -> LoweringState:
        config = state.config
        activations = state.activations
        weight_spec = QuantizationSpec(
            bits=config.weight_bits, symmetric=True, signed=True
        )
        quantized_nodes: Dict[str, QuantizedNode] = {}
        for node in state.graph.nodes:
            lowered = QuantizedNode(node=node)
            input_scale = activations[node.inputs[0]].scale
            output_scale = activations[node.output.name].scale
            # Scale of the integers the kernel requantises to the output grid.
            accumulator_scale = None

            if node.op in ("conv1d", "linear"):
                weight = _quantize_weight(node.weights["weight"], weight_spec)
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
                scale_q = _quantize_weight(node.weights["scale"], weight_spec)
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
                tokens = state.graph.tensor_specs()[node.inputs[0]].shape[0]
                accumulator_scale = input_scale / tokens
            if accumulator_scale is not None:
                lowered.requantizers["output"] = encode_requantizer(
                    accumulator_scale / output_scale
                )
            quantized_nodes[node.name] = lowered
        return replace(state, nodes=quantized_nodes, weight_spec=weight_spec)


class PlanGemmTilesPass(GraphPass):
    """Attach the :class:`GemmTileInfo` tile shape to every MAC node."""

    name = "plan-gemm-tiles"

    def run(self, state: LoweringState) -> LoweringState:
        nodes = dict(state.nodes)
        for node in state.graph.nodes:
            if node.op == "conv1d":
                out_channels, in_channels, kernel = node.weights["weight"].shape
                tile = GemmTileInfo(
                    m=int(node.output.shape[-1]),
                    k=int(in_channels * kernel),
                    n=int(out_channels),
                )
            elif node.op == "linear":
                out_features, in_features = node.weights["weight"].shape
                tile = GemmTileInfo(
                    m=int(node.output.num_elements // out_features),
                    k=int(in_features),
                    n=int(out_features),
                )
            elif node.op == "matmul":
                tile = GemmTileInfo(
                    m=int(node.output.shape[-2]),
                    k=int(node.attrs["inner_dim"]),
                    n=int(node.output.shape[-1]),
                )
            else:
                continue
            nodes[node.name] = replace(nodes[node.name], gemm=tile)
        return replace(state, nodes=nodes)


class LutSubstitutionPass(GraphPass):
    """Tabulate the GELU / softmax-``exp`` nonlinearities into lookup tables.

    The tables are the only int8 op set for these nonlinearities.  They are
    built by evaluating the elementwise :mod:`repro.quant.ibert` kernels
    over the full input domain, the GELU table with the node's stored
    output requantiser, so they are bit-identical to those kernels by
    construction.
    """

    name = "lut-substitution"

    def run(self, state: LoweringState) -> LoweringState:
        nodes = dict(state.nodes)
        for node in state.graph.nodes:
            if node.op not in LUT_OPERATORS:
                continue
            in_act = state.activations[node.inputs[0]]
            out_act = state.activations[node.output.name]
            lowered = nodes[node.name]
            luts = dict(lowered.luts)
            if node.op == "gelu":
                luts["gelu"] = build_gelu_lut(
                    in_act, out_act, lowered.requantizers["output"]
                )
            else:
                luts["exp"] = build_softmax_exp_lut(in_act)
            nodes[node.name] = replace(lowered, luts=luts)
        return replace(state, nodes=nodes)


# --------------------------------------------------------------------- #
# Optimization passes (``optimize=True``; schedule-only, bitwise-identical)
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
    state: LoweringState,
    base_test,
    tail_test,
) -> LoweringState:
    """Shared forward-scan fusion: absorb qualifying immediate successors.

    A tail qualifies only when it is the node *immediately following* the
    growing fused region in schedule order, consumes exactly the region's
    output, and that output has no other consumer and is not the graph
    output — so reusing the base's position keeps SSA order valid trivially.
    """
    graph = state.graph
    consumer_count = Counter(
        tensor for node in graph.nodes for tensor in node.inputs
    )
    new_nodes: List[GraphNode] = []
    payloads = dict(state.nodes)
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
            if cursor > index + 1:
                fused_any = True
                base_payload = payloads.get(fused.name)
                if base_payload is not None:
                    payloads[fused.name] = replace(
                        base_payload,
                        fused=tuple(sub.name for sub in fused.fusion_chain[1:]),
                    )
            new_nodes.append(fused)
        else:
            new_nodes.append(node)
        index = cursor
    if not fused_any:
        return state
    new_graph = ComputeGraph(graph.name, graph.graph_input, new_nodes)
    return replace(state, graph=new_graph, nodes=payloads)


class FoldRequantPass(GraphPass):
    """Fold sole-consumer elementwise tails into the preceding MAC node.

    ``conv1d → channel_affine → relu`` (TEMPONet's conv/BN/ReLU stages) and
    ``linear → gelu`` (Bioformer's FFN expand) become one fused node each:
    one kernel launch, no intermediate tensor in the arena, per-stage
    requantisation arithmetic unchanged.
    """

    name = "fold-requant"

    def run(self, state: LoweringState) -> LoweringState:
        return _forward_fuse(
            state,
            base_test=lambda node: node.op in MAC_OPERATORS,
            tail_test=lambda tail: tail.op in FOLDABLE_OPERATORS,
        )


class FuseConvPoolPass(GraphPass):
    """Fuse a sole-consumer ``avgpool1d`` into the preceding conv node.

    Runs after :class:`FoldRequantPass`, so the base is typically an already
    fused ``conv1d(+affine+relu)`` region — the pool then accumulates
    directly from the fused kernel's output registers.
    """

    name = "fuse-conv-pool"

    def run(self, state: LoweringState) -> LoweringState:
        return _forward_fuse(
            state,
            base_test=lambda node: node.op == "conv1d",
            tail_test=lambda tail: tail.op == "avgpool1d",
        )


class DeadNodeEliminationPass(GraphPass):
    """Drop nodes whose outputs reach neither the graph output nor any use.

    A reverse liveness sweep from the graph output; the tracer emits no dead
    nodes today, but passes (or hand-built graphs) can, and the pipeline
    should leave no unreachable kernels in the schedule or the weight
    binary.  Payloads of removed nodes are dropped too, so the generated
    ``weights.h`` and the byte accounting shrink with the graph.
    """

    name = "dead-node-elimination"

    def run(self, state: LoweringState) -> LoweringState:
        graph = state.graph
        live = {graph.output.name}
        kept_reversed: List[GraphNode] = []
        for node in reversed(graph.nodes):
            if node.output.name in live:
                kept_reversed.append(node)
                live.update(node.inputs)
        if len(kept_reversed) == len(graph.nodes):
            return state
        kept = list(reversed(kept_reversed))
        removed = {node.name for node in graph.nodes} - {node.name for node in kept}
        payloads = {
            name: payload
            for name, payload in state.nodes.items()
            if name not in removed
        }
        new_graph = ComputeGraph(graph.name, graph.graph_input, kept)
        return replace(state, graph=new_graph, nodes=payloads)


# --------------------------------------------------------------------- #
# Pipeline assembly
# --------------------------------------------------------------------- #
def build_pass_pipeline(config: LoweringConfig) -> List[GraphPass]:
    """The pass list for a config: base lowering plus, with
    ``config.optimize``, the optimization passes."""
    passes: List[GraphPass] = [
        CalibrateActivationsPass(),
        QuantizeWeightsPass(),
        PlanGemmTilesPass(),
        LutSubstitutionPass(),
    ]
    if config.optimize:
        passes += [FoldRequantPass(), FuseConvPoolPass(), DeadNodeEliminationPass()]
    return passes


def compile_graph(
    graph: ComputeGraph,
    calibration_inputs: np.ndarray,
    config: Optional[LoweringConfig] = None,
    extra_passes: Optional[Sequence[GraphPass]] = None,
) -> QuantizedGraph:
    """Run the deploy compiler: traced graph in, lowered graph out.

    ``extra_passes`` appends custom :class:`GraphPass` objects after the
    config-selected pipeline (they run under the same manager, so they are
    validated and recorded in the manifest like the built-in passes).
    """
    config = config if config is not None else LoweringConfig()
    calibration = np.asarray(calibration_inputs, dtype=np.float64)
    state = LoweringState(
        graph=graph,
        config=config,
        calibration=calibration,
        source_graph=graph,
    )
    manager = PassManager(build_pass_pipeline(config) + list(extra_passes or []))
    state = manager.run(state)
    assert state.weight_spec is not None  # set by QuantizeWeightsPass
    return QuantizedGraph(
        graph=state.graph,
        activations=state.activations,
        nodes=state.nodes,
        weight_spec=state.weight_spec,
        manifest=tuple(manager.manifest),
        source_graph=state.source_graph,
        config=config,
    )
