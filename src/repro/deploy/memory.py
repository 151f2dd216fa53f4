"""Activation memory planning (L2 buffer allocation).

On GAP8 the 512 kB L2 memory holds the weights *and* every live activation
buffer; whether a network fits is decided by the peak of the activation
working set, not by its sum.  Deployment flows therefore run a liveness
analysis over the kernel schedule and pack activation buffers into a shared
arena so that tensors with disjoint lifetimes reuse the same bytes.

This module implements that pass for :class:`ComputeGraph` schedules:

* :func:`live_ranges` — first/last use of every activation tensor, and
  :func:`last_uses`, the last use alone (what the executors free by);
* :func:`plan_activation_memory` — greedy best-fit packing (largest tensors
  first) producing per-buffer offsets and the arena peak;
* :class:`MemoryPlan` — the result, with helpers used by the deployment
  report and the code generator (which emits the arena offsets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .graph import ComputeGraph

__all__ = [
    "LiveRange", "BufferAssignment", "MemoryPlan", "last_uses", "live_ranges",
    "plan_activation_memory",
]


@dataclass(frozen=True)
class LiveRange:
    """Lifetime of one activation tensor over the node schedule.

    ``start`` is the index of the producing node (-1 for the graph input)
    and ``end`` the index of the last consuming node; the tensor's buffer
    must exist for every schedule step in ``[start, end]``.
    """

    name: str
    size_bytes: int
    start: int
    end: int

    def overlaps(self, other: "LiveRange") -> bool:
        """Whether two tensors are ever live at the same time."""
        return self.start <= other.end and other.start <= self.end


@dataclass(frozen=True)
class BufferAssignment:
    """Placement of one activation buffer inside the arena."""

    name: str
    offset: int
    size_bytes: int

    @property
    def end_offset(self) -> int:
        return self.offset + self.size_bytes


@dataclass
class MemoryPlan:
    """Result of the activation-memory planning pass."""

    graph_name: str
    assignments: List[BufferAssignment] = field(default_factory=list)
    ranges: Dict[str, LiveRange] = field(default_factory=dict)

    @property
    def peak_bytes(self) -> int:
        """Arena size required to hold every live activation."""
        return max((assignment.end_offset for assignment in self.assignments), default=0)

    @property
    def naive_bytes(self) -> int:
        """Total bytes if every activation got its own buffer (no reuse)."""
        return sum(assignment.size_bytes for assignment in self.assignments)

    @property
    def reuse_factor(self) -> float:
        """How much memory the packing saves versus naive allocation."""
        return self.naive_bytes / self.peak_bytes if self.peak_bytes else 1.0

    def offset_of(self, tensor_name: str) -> int:
        """Arena offset of a named tensor's buffer."""
        for assignment in self.assignments:
            if assignment.name == tensor_name:
                return assignment.offset
        raise KeyError(f"no buffer planned for tensor '{tensor_name}'")

    def fits(self, budget_bytes: int, weight_bytes: int = 0) -> bool:
        """Whether activations plus (optionally) weights fit a memory budget."""
        return self.peak_bytes + weight_bytes <= budget_bytes

    def summary(self) -> str:
        """Human-readable allocation table."""
        lines = [
            f"Activation memory plan for '{self.graph_name}'",
            f"{'tensor':<30}{'offset':>10}{'size':>10}{'live':>14}",
        ]
        for assignment in sorted(self.assignments, key=lambda item: item.offset):
            live = self.ranges[assignment.name]
            lines.append(
                f"{assignment.name:<30}{assignment.offset:>10}{assignment.size_bytes:>10}"
                f"{f'[{live.start},{live.end}]':>14}"
            )
        lines.append(
            f"peak = {self.peak_bytes} B, naive = {self.naive_bytes} B, "
            f"reuse = {self.reuse_factor:.2f}x"
        )
        return "\n".join(lines)


def last_uses(graph: ComputeGraph) -> Dict[str, int]:
    """Index of the last node consuming each activation tensor.

    A tensor nothing consumes ends at its producer; the graph output must
    survive the whole schedule (it is returned).
    """
    last_use = {graph.graph_input.name: 0}
    for index, node in enumerate(graph.nodes):
        last_use.setdefault(node.output.name, index)
        for tensor_name in node.inputs:
            last_use[tensor_name] = index
    last_use[graph.output.name] = len(graph.nodes) - 1
    return last_use


def live_ranges(graph: ComputeGraph, bytes_per_element: int = 1) -> Dict[str, LiveRange]:
    """Compute the live range of every activation tensor in ``graph``.

    Shape-only nodes (transpose, head splitting, ...) are aliases on the
    target, but they are kept as separate buffers here, which makes the plan
    slightly conservative — a safe over-estimate of the real working set.
    """
    produced = {graph.graph_input.name: -1}
    for index, node in enumerate(graph.nodes):
        produced[node.output.name] = index
    last_use = last_uses(graph)
    ranges = {}
    for name, spec in graph.tensor_specs().items():
        ranges[name] = LiveRange(
            name=name,
            size_bytes=spec.nbytes(bytes_per_element),
            start=produced[name],
            end=last_use[name],
        )
    return ranges


def plan_activation_memory(graph: ComputeGraph, bytes_per_element: int = 1) -> MemoryPlan:
    """Pack activation buffers into a shared arena (greedy best-fit).

    Tensors are placed in decreasing size order; each is assigned the lowest
    arena offset at which it does not overlap (in address space) with any
    already-placed tensor whose lifetime intersects its own.  This is the
    standard offset-allocation heuristic used by TFLite-Micro and DORY and
    is within a few percent of optimal for feed-forward schedules.
    """
    ranges = live_ranges(graph, bytes_per_element)
    order = sorted(ranges.values(), key=lambda item: item.size_bytes, reverse=True)
    assignments: List[BufferAssignment] = []
    placed: Dict[str, BufferAssignment] = {}

    for candidate in order:
        conflicting = [
            placed[other.name]
            for other in order
            if other.name in placed and candidate.overlaps(ranges[other.name])
        ]
        conflicting.sort(key=lambda assignment: assignment.offset)
        offset = 0
        for assignment in conflicting:
            if offset + candidate.size_bytes <= assignment.offset:
                break
            offset = max(offset, assignment.end_offset)
        chosen = BufferAssignment(candidate.name, offset, candidate.size_bytes)
        placed[candidate.name] = chosen
        assignments.append(chosen)

    return MemoryPlan(graph_name=graph.name, assignments=assignments, ranges=ranges)
