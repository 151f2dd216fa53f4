"""Complexity profiles: per-layer MACs, parameters and elementwise work.

The Pareto plots (Fig. 5) and the deployment table (Table I) of the paper
are driven by two complexity numbers per architecture — multiply-accumulate
operations (MACs) per inference and parameter count — plus a per-layer
breakdown that the GAP8 latency model needs (different kernels achieve
different core utilisation on the 8-core cluster).

A profile is built from a traced model by
:func:`repro.deploy.report.graph_to_profile`, so the numbers are those of
the kernels the deploy compiler runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["LayerProfile", "ModelProfile"]


@dataclass
class LayerProfile:
    """Complexity of one layer (or fused kernel) of a network.

    Attributes
    ----------
    name:
        Qualified layer name (e.g. ``"blocks.0.attention.query_projection"``).
    kind:
        Kernel category used by the GAP8 cost model: ``"conv"``,
        ``"linear"``, ``"attention_matmul"``, ``"softmax"``, ``"norm"``,
        ``"activation"`` or ``"pool"``.
    macs:
        Multiply-accumulate operations per inference.
    params:
        Parameter count (weights + biases) of the layer.
    elementwise_ops:
        Non-MAC elementwise operations (softmax exponentials, normalisation
        divisions, activations) per inference.
    parallel_units:
        Degree of independent parallelism the GAP8 kernel can exploit across
        cluster cores (the number of attention heads for the attention
        matmuls and the q/k/v projections); ``0`` means "enough to saturate
        the cluster".
    """

    name: str
    kind: str
    macs: int = 0
    params: int = 0
    elementwise_ops: int = 0
    parallel_units: int = 0


@dataclass
class ModelProfile:
    """Aggregated complexity of a full architecture."""

    name: str
    input_shape: tuple
    layers: List[LayerProfile] = field(default_factory=list)

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulate operations per inference."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_params(self) -> int:
        """Total parameter count."""
        return sum(layer.params for layer in self.layers)

    @property
    def mmacs(self) -> float:
        """MACs in millions (the paper's "MMAC" column)."""
        return self.total_macs / 1e6

    def memory_bytes(self) -> int:
        """Weight memory footprint: one int8 byte per parameter."""
        return self.total_params

    def memory_kilobytes(self) -> float:
        """Weight memory footprint in kB (the paper's "Memory" column)."""
        return self.memory_bytes() / 1e3

    def by_kind(self) -> dict:
        """MACs grouped by kernel kind (for the ablation reports)."""
        grouped: dict = {}
        for layer in self.layers:
            grouped[layer.kind] = grouped.get(layer.kind, 0) + layer.macs
        return grouped
