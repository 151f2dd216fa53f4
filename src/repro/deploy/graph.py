"""Inference graph intermediate representation (IR) for deployment.

Deployment toolchains for MCU targets (DORY, the transformer kernels of
Burrello et al. used by the paper, TVM micro, ...) do not work on the
training framework's module tree: they work on a flat, explicit *graph* of
primitive kernels with static shapes, because every downstream stage —
quantisation, memory allocation, L1 tiling, code generation, latency
estimation — needs to reason about one kernel at a time.

This module defines that IR:

* :class:`TensorSpec` — name, static shape (without the batch axis) and
  element type of an activation tensor;
* :class:`GraphNode` — one primitive kernel (operator name, input/output
  tensors, attributes and constant weights);
* :class:`ComputeGraph` — an ordered single-input/single-output sequence of
  nodes with validation, traversal and size-accounting helpers.

The graphs are produced by the tracer in :mod:`repro.deploy.tracers` and
consumed by every other module of :mod:`repro.deploy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "OPERATORS",
    "LUT_OPERATORS",
    "LookupTable",
    "TensorSpec",
    "GraphNode",
    "ComputeGraph",
]


#: Primitive operators understood by the executors, the tiler and the code
#: generator.  Shape-only operators (transpose / reshape / head splitting)
#: carry no arithmetic and are free on the target (they are folded into the
#: addressing of the surrounding kernels).
OPERATORS: Tuple[str, ...] = (
    "conv1d",
    "linear",
    "channel_affine",
    "layernorm",
    "relu",
    "gelu",
    "softmax",
    "matmul",
    "add",
    "append_token",
    "add_positional",
    "avgpool1d",
    "flatten",
    "split_heads",
    "merge_heads",
    "transpose",
    "select_token",
    "mean_tokens",
)

#: Operators that perform multiply-accumulate work (everything else is either
#: elementwise or a pure data-movement/shape operator).
MAC_OPERATORS: Tuple[str, ...] = ("conv1d", "linear", "matmul")

#: Operators that only rearrange data and cost nothing on the target.
SHAPE_OPERATORS: Tuple[str, ...] = (
    "flatten",
    "split_heads",
    "merge_heads",
    "transpose",
    "select_token",
)

#: Non-linearities the int8 lowering always runs as a precomputed lookup table.
#: GELU is purely elementwise over the bounded int8 input grid, and the
#: expensive part of the I-BERT softmax (the integer ``exp`` polynomial) is
#: elementwise over the max-shifted grid — so for a fixed requantisation
#: configuration each can be tabulated once at lowering time and executed as
#: a single gather on the target.
LUT_OPERATORS: Tuple[str, ...] = ("gelu", "softmax")


@dataclass(frozen=True, eq=False)
class LookupTable:
    """A precomputed integer kernel over a bounded integer input domain.

    The table maps every representable input value ``q`` in
    ``[domain_min, domain_max]`` to ``values[q - domain_min]``.  Tables are
    built at lowering time (:func:`repro.deploy.lowering.lower_to_int8`) by
    evaluating the elementwise :mod:`repro.quant.ibert` kernel over the full
    domain, so executing a table is bit-identical to that kernel *by
    construction* — the exhaustive-domain tests pin this independently.

    Attributes
    ----------
    op:
        The elementwise computation the table implements (``"gelu"`` for the
        fused GELU + requantisation, ``"exp"`` for the softmax numerator).
    domain_min, domain_max:
        Inclusive bounds of the representable input grid.
    values:
        Integer output for every domain value, ``domain_max - domain_min + 1``
        entries.
    dtype:
        Storage class of the entries on the target (``"int8"`` / ``"int32"``).
    config:
        Diagnostic identity of the requantisation configuration the table
        was built for (``(scale, zero_point, ...)``-style tuples) — shown
        when inspecting a lowered graph, so two tables can be told apart by
        the configuration that produced them.
    """

    op: str
    domain_min: int
    domain_max: int
    values: np.ndarray
    dtype: str = "int32"
    config: Tuple = ()

    def __post_init__(self) -> None:
        expected = self.domain_max - self.domain_min + 1
        if self.values.shape != (expected,):
            raise ValueError(
                f"LUT for '{self.op}' needs {expected} entries for domain "
                f"[{self.domain_min}, {self.domain_max}], got {self.values.shape}"
            )

    @property
    def size(self) -> int:
        """Number of table entries."""
        return int(self.values.size)

    @property
    def nbytes(self) -> int:
        """Storage footprint of the table on the target."""
        per_element = {"int8": 1, "int32": 4}[self.dtype]
        return self.size * per_element

    def take(self, q: np.ndarray) -> np.ndarray:
        """Gather table outputs for integer inputs ``q`` (one vectorised take).

        Inputs outside the domain raise instead of silently gathering from
        the wrong end of the table (``np.take`` would accept a negative
        index Python-style): every in-graph producer clips to the
        activation grid, so an out-of-domain value is a lowering bug, not
        a value to guess at.
        """
        indices = np.asarray(q) - self.domain_min
        if indices.size and (indices.min() < 0 or indices.max() >= self.size):
            raise ValueError(
                f"input outside the [{self.domain_min}, {self.domain_max}] "
                f"domain of the '{self.op}' lookup table"
            )
        return np.take(self.values, indices)

    def __repr__(self) -> str:
        return (
            f"LookupTable(op='{self.op}', domain=[{self.domain_min}, "
            f"{self.domain_max}], entries={self.size}, dtype='{self.dtype}')"
        )


@dataclass(frozen=True)
class TensorSpec:
    """Static description of one activation tensor.

    The shape excludes the batch axis: deployment on GAP8 always runs with
    batch 1, and the executors broadcast over whatever batch the caller
    provides.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str = "float32"

    @property
    def num_elements(self) -> int:
        """Number of scalar elements (per batch item)."""
        return int(math.prod(self.shape))

    def nbytes(self, bytes_per_element: int = 1) -> int:
        """Storage size for a given element width (1 byte for int8)."""
        return self.num_elements * bytes_per_element

    def __str__(self) -> str:
        return f"{self.name}{list(self.shape)}"


@dataclass
class GraphNode:
    """One primitive kernel of the inference graph.

    Attributes
    ----------
    name:
        Unique node name (e.g. ``"blocks.0.attention.query_projection"``).
    op:
        Operator name; must be one of :data:`OPERATORS`.
    inputs:
        Names of the activation tensors consumed by the node.
    output:
        Spec of the single tensor produced by the node.
    attrs:
        Static operator attributes (stride, padding, axis, ...).
    weights:
        Constant arrays owned by the node (weight, bias, batch-norm scale,
        class token, ...), keyed by role name.
    """

    name: str
    op: str
    inputs: List[str]
    output: TensorSpec
    attrs: Dict[str, object] = field(default_factory=dict)
    weights: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise ValueError(f"unknown operator '{self.op}' in node '{self.name}'")
        if not self.inputs:
            raise ValueError(f"node '{self.name}' has no inputs")

    # ------------------------------------------------------------------ #
    # Fusion
    # ------------------------------------------------------------------ #
    @property
    def is_fused(self) -> bool:
        """Whether this node is a fusion of several original kernels."""
        return bool(self.attrs.get("fused_chain"))

    @property
    def fusion_chain(self) -> Tuple["GraphNode", ...]:
        """The original kernels this node executes, in order.

        A fused node (produced by the fusion stages of
        :mod:`repro.deploy.passes`) carries its constituent kernels in
        ``attrs["fused_chain"]``; an ordinary node is its own chain of one.
        The executors bind each member once and compose the chain into one
        kernel (:class:`~repro.deploy.engine.BoundSchedule`), each member
        with its own arithmetic, which is what makes fusion bitwise-exact
        by construction.
        """
        chain = self.attrs.get("fused_chain")
        return tuple(chain) if chain else (self,)

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    @property
    def weight_elements(self) -> int:
        """Total number of constant scalars owned by the node."""
        return int(sum(array.size for array in self.weights.values()))

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations performed by the node (batch 1)."""
        if self.is_fused:
            # Each constituent kernel keeps its original output spec, so the
            # chain sum is exactly the unfused accounting.
            return sum(sub.macs for sub in self.fusion_chain)
        if self.op == "conv1d":
            out_channels, in_channels, kernel = self.weights["weight"].shape
            out_length = self.output.shape[-1]
            return out_length * out_channels * in_channels * kernel
        if self.op == "linear":
            out_features, in_features = self.weights["weight"].shape
            rows = self.output.num_elements // out_features
            return rows * in_features * out_features
        if self.op == "matmul":
            # (heads, S, K) x (heads, K, T) -> (heads, S, T)
            heads, rows, cols = self.output.shape
            inner = int(self.attrs["inner_dim"])
            return heads * rows * cols * inner
        return 0

    @property
    def elementwise_ops(self) -> int:
        """Non-MAC elementwise operations performed by the node (batch 1)."""
        if self.is_fused:
            return sum(sub.elementwise_ops for sub in self.fusion_chain)
        size = self.output.num_elements
        if self.op in ("relu", "add", "append_token", "add_positional", "channel_affine"):
            return size
        if self.op in ("gelu", "softmax"):
            return 4 * size
        if self.op == "layernorm":
            return 4 * size
        if self.op in ("avgpool1d", "mean_tokens"):
            return 2 * size
        return 0

    @property
    def is_shape_only(self) -> bool:
        """Whether the node only rearranges data (free on the target)."""
        return self.op in SHAPE_OPERATORS

    def __repr__(self) -> str:
        return f"GraphNode({self.name}: {self.op} {self.inputs} -> {self.output})"


class ComputeGraph:
    """Ordered inference graph with a single input and a single output.

    The node order is execution order; every node may consume the graph
    input or the output of any *earlier* node (single static assignment).
    """

    def __init__(self, name: str, graph_input: TensorSpec, nodes: Sequence[GraphNode]) -> None:
        self.name = name
        self.graph_input = graph_input
        self.nodes: List[GraphNode] = list(nodes)
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation / lookup
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check SSA form: unique names, inputs defined before use.

        Enforced invariants (building a graph validates it, so a compiler
        stage that builds a malformed graph fails here, loudly, instead of
        corrupting downstream consumers):

        * at least one node;
        * node names are unique (payload dicts key on them);
        * every consumed tensor is the graph input or the output of an
          *earlier* node — no dangling inputs, no forward references;
        * every output tensor name is defined exactly once.
        """
        if not self.nodes:
            raise ValueError("a ComputeGraph needs at least one node")
        defined = {self.graph_input.name}
        node_names = set()
        for node in self.nodes:
            if node.name in node_names:
                raise ValueError(f"node name '{node.name}' is used twice")
            node_names.add(node.name)
            for tensor_name in node.inputs:
                if tensor_name not in defined:
                    raise ValueError(
                        f"node '{node.name}' consumes undefined tensor '{tensor_name}'"
                    )
            if node.output.name in defined:
                raise ValueError(f"tensor '{node.output.name}' is defined twice")
            defined.add(node.output.name)

    @property
    def output(self) -> TensorSpec:
        """Spec of the graph output (the last node's output)."""
        return self.nodes[-1].output

    def tensor_specs(self) -> Dict[str, TensorSpec]:
        """All activation tensors of the graph, keyed by name."""
        specs = {self.graph_input.name: self.graph_input}
        for node in self.nodes:
            specs[node.output.name] = node.output
        return specs

    def batched_input(self, inputs: np.ndarray) -> np.ndarray:
        """``inputs`` as a float64 batch (a single sample gains the batch
        axis); any other geometry raises ``ValueError`` naming the graph."""
        inputs = np.asarray(inputs, dtype=np.float64)
        expected = tuple(self.graph_input.shape)
        if inputs.ndim == len(expected):
            inputs = inputs[None, ...]
        if tuple(inputs.shape[1:]) != expected:
            raise ValueError(
                f"graph '{self.name}' expects input shape {expected}, "
                f"got {tuple(inputs.shape[1:])}"
            )
        return inputs

    def node(self, name: str) -> GraphNode:
        """Return the node called ``name``."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named '{name}' in graph '{self.name}'")

    def consumers(self, tensor_name: str) -> List[GraphNode]:
        """Nodes that read ``tensor_name``."""
        return [node for node in self.nodes if tensor_name in node.inputs]

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------ #
    # Aggregate accounting
    # ------------------------------------------------------------------ #
    @property
    def total_macs(self) -> int:
        """Total multiply-accumulate operations per inference (batch 1)."""
        return sum(node.macs for node in self.nodes)

    @property
    def total_weight_elements(self) -> int:
        """Total constant scalars stored by the graph."""
        return sum(node.weight_elements for node in self.nodes)

    def weight_bytes(self, bits_per_weight: int = 8) -> int:
        """Constant storage for a given weight bit-width."""
        return int(self.total_weight_elements * bits_per_weight / 8)

    def largest_activation(self) -> TensorSpec:
        """The largest activation tensor (sizing the working buffers)."""
        return max(self.tensor_specs().values(), key=lambda spec: spec.num_elements)

    def summary(self) -> str:
        """Human-readable per-node table (op, output shape, MACs, weights)."""
        lines = [
            f"ComputeGraph '{self.name}'  input={self.graph_input}",
            f"{'node':<34}{'op':<16}{'output':<22}{'MACs':>12}{'weights':>10}",
        ]
        for node in self.nodes:
            lines.append(
                f"{node.name:<34}{node.op:<16}{str(list(node.output.shape)):<22}"
                f"{node.macs:>12}{node.weight_elements:>10}"
            )
        lines.append(
            f"{'total':<72}{self.total_macs:>12}{self.total_weight_elements:>10}"
        )
        return "\n".join(lines)
