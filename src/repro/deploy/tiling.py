"""L1 tiling planner for the GAP8 cluster scratchpad.

GAP8 kernels cannot read L2 directly at full speed: the 8-core cluster works
out of a 64 kB L1 scratchpad, and a DMA engine moves tiles of the input,
weight and output tensors between L2 and L1 while the cores compute on the
previous tile (double buffering).  Choosing tile shapes that (i) fit the
scratchpad and (ii) keep the DMA traffic low is the job of the deployment
flow — this module reproduces that pass, in the spirit of DORY (Burrello et
al., IEEE TC 2021), for the kernels used by Bioformer and TEMPONet.

For every MAC kernel of a :class:`ComputeGraph` the planner searches the
tile-shape space, keeps the largest tile that fits the double-buffered L1
budget, and reports the resulting tile count, per-tile occupancy, total DMA
traffic and whether the kernel is compute- or DMA-bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .graph import ComputeGraph, GraphNode

__all__ = ["TilingConfig", "LayerTiling", "TilingPlan", "plan_tiling"]


@dataclass(frozen=True)
class TilingConfig:
    """Memory/DMA parameters of the target used by the tiling search."""

    #: Usable L1 scratchpad in bytes (GAP8: 64 kB minus the kernel stacks).
    l1_bytes: int = 56 * 1024
    #: Tiles are double-buffered, so each logical tile may only use half L1.
    double_buffering: bool = True
    #: Sustained DMA bandwidth between L2 and L1, in bytes per cluster cycle.
    dma_bytes_per_cycle: float = 4.0
    #: Peak int8 MAC throughput of the cluster, in MACs per cycle (used only
    #: to classify kernels as compute- or DMA-bound).
    peak_macs_per_cycle: float = 16.0

    @property
    def tile_budget(self) -> int:
        """L1 bytes available to one tile."""
        return self.l1_bytes // 2 if self.double_buffering else self.l1_bytes


@dataclass
class LayerTiling:
    """Tiling decision for one kernel."""

    name: str
    op: str
    macs: int
    tile: Dict[str, int]
    num_tiles: int
    tile_bytes: int
    dma_bytes: int
    single_tile: bool

    def compute_cycles(self, config: TilingConfig) -> float:
        """Ideal compute time of the kernel (cycles)."""
        return self.macs / config.peak_macs_per_cycle

    def dma_cycles(self, config: TilingConfig) -> float:
        """Ideal DMA transfer time of the kernel (cycles)."""
        return self.dma_bytes / config.dma_bytes_per_cycle

    def bottleneck(self, config: TilingConfig) -> str:
        """``"compute"`` or ``"dma"`` depending on which phase dominates."""
        return "compute" if self.compute_cycles(config) >= self.dma_cycles(config) else "dma"


@dataclass
class TilingPlan:
    """Tiling decisions for every MAC kernel of a graph."""

    graph_name: str
    config: TilingConfig
    layers: List[LayerTiling] = field(default_factory=list)

    @property
    def total_dma_bytes(self) -> int:
        """Total L2<->L1 traffic per inference."""
        return sum(layer.dma_bytes for layer in self.layers)

    @property
    def total_tiles(self) -> int:
        """Total number of tile executions per inference."""
        return sum(layer.num_tiles for layer in self.layers)

    @property
    def all_fit_single_tile(self) -> bool:
        """Whether every kernel fits L1 without tiling (typical for Bioformers)."""
        return all(layer.single_tile for layer in self.layers)

    def summary(self) -> str:
        """Human-readable tiling table."""
        lines = [
            f"L1 tiling plan for '{self.graph_name}' "
            f"(budget {self.config.tile_budget} B per tile)",
            f"{'kernel':<34}{'op':<10}{'tiles':>7}{'tile B':>9}{'DMA B':>11}{'bound':>9}",
        ]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<34}{layer.op:<10}{layer.num_tiles:>7}{layer.tile_bytes:>9}"
                f"{layer.dma_bytes:>11}{layer.bottleneck(self.config):>9}"
            )
        lines.append(
            f"total: {self.total_tiles} tiles, {self.total_dma_bytes} B of DMA traffic"
        )
        return "\n".join(lines)


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // max(denominator, 1))


def _candidate_sizes(full: int) -> List[int]:
    """Descending candidate tile sizes for one dimension."""
    sizes = {full}
    value = full
    while value > 1:
        value = _ceil_div(value, 2)
        sizes.add(value)
    sizes.update({1, 2, 4, 8, 16, 32})
    return sorted((size for size in sizes if 1 <= size <= full), reverse=True)


def _tile_linear(node: GraphNode, budget: int) -> Tuple[Dict[str, int], int, int]:
    """Tile a linear kernel over (rows, output features)."""
    out_features, in_features = node.weights["weight"].shape
    rows = max(node.output.num_elements // out_features, 1)
    has_bias = "bias" in node.weights

    def tile_bytes(tile_rows: int, tile_out: int) -> int:
        inputs = tile_rows * in_features
        weights = tile_out * in_features + (4 * tile_out if has_bias else 0)
        outputs = tile_rows * tile_out
        return inputs + weights + outputs

    best: Optional[Tuple[int, int]] = None
    for tile_out in _candidate_sizes(out_features):
        for tile_rows in _candidate_sizes(rows):
            if tile_bytes(tile_rows, tile_out) <= budget:
                if best is None or tile_rows * tile_out > best[0] * best[1]:
                    best = (tile_rows, tile_out)
                break
    if best is None:
        best = (1, 1)
    tile_rows, tile_out = best
    num_tiles = _ceil_div(rows, tile_rows) * _ceil_div(out_features, tile_out)
    tile = {"rows": tile_rows, "out_features": tile_out}
    return tile, num_tiles, tile_bytes(tile_rows, tile_out)


def _tile_conv1d(node: GraphNode, budget: int) -> Tuple[Dict[str, int], int, int]:
    """Tile a 1-D convolution over (output channels, output length)."""
    out_channels, in_channels, kernel = node.weights["weight"].shape
    out_length = node.output.shape[-1]
    stride = int(node.attrs["stride"])
    dilation = int(node.attrs["dilation"])
    has_bias = "bias" in node.weights
    receptive = dilation * (kernel - 1) + 1

    def tile_bytes(tile_channels: int, tile_length: int) -> int:
        input_span = (tile_length - 1) * stride + receptive
        inputs = in_channels * input_span
        weights = tile_channels * in_channels * kernel + (4 * tile_channels if has_bias else 0)
        outputs = tile_channels * tile_length
        return inputs + weights + outputs

    best: Optional[Tuple[int, int]] = None
    for tile_channels in _candidate_sizes(out_channels):
        for tile_length in _candidate_sizes(out_length):
            if tile_bytes(tile_channels, tile_length) <= budget:
                if best is None or tile_channels * tile_length > best[0] * best[1]:
                    best = (tile_channels, tile_length)
                break
    if best is None:
        best = (1, 1)
    tile_channels, tile_length = best
    num_tiles = _ceil_div(out_channels, tile_channels) * _ceil_div(out_length, tile_length)
    tile = {"out_channels": tile_channels, "out_length": tile_length}
    return tile, num_tiles, tile_bytes(tile_channels, tile_length)


def _tile_matmul(node: GraphNode, budget: int) -> Tuple[Dict[str, int], int, int]:
    """Tile an attention matmul over (heads, rows)."""
    heads, rows, cols = node.output.shape
    inner = int(node.attrs["inner_dim"])

    def tile_bytes(tile_heads: int, tile_rows: int) -> int:
        lhs = tile_heads * tile_rows * inner
        rhs = tile_heads * inner * cols
        outputs = tile_heads * tile_rows * cols
        return lhs + rhs + outputs

    best: Optional[Tuple[int, int]] = None
    for tile_heads in _candidate_sizes(heads):
        for tile_rows in _candidate_sizes(rows):
            if tile_bytes(tile_heads, tile_rows) <= budget:
                if best is None or tile_heads * tile_rows > best[0] * best[1]:
                    best = (tile_heads, tile_rows)
                break
    if best is None:
        best = (1, 1)
    tile_heads, tile_rows = best
    num_tiles = _ceil_div(heads, tile_heads) * _ceil_div(rows, tile_rows)
    tile = {"heads": tile_heads, "rows": tile_rows}
    return tile, num_tiles, tile_bytes(tile_heads, tile_rows)


def _dma_bytes(node: GraphNode, num_tiles: int, single_weight_load: bool) -> int:
    """Approximate L2<->L1 traffic of one kernel.

    Activations move exactly once in and once out; weights move once if a
    single weight tile covers the kernel, otherwise once per tile (the
    pessimistic DORY assumption).
    """
    output_bytes = node.output.num_elements
    # Approximate the input read volume with the output volume per consumed
    # tensor (inputs ~ outputs for the dominant GEMM-shaped kernels); exact
    # per-tensor sizes are tracked separately by the memory planner.
    input_bytes = node.output.num_elements * max(len(node.inputs), 1)
    weight_bytes = node.weight_elements
    if single_weight_load:
        return input_bytes + weight_bytes + output_bytes
    return input_bytes + weight_bytes * num_tiles + output_bytes


def plan_tiling(graph: ComputeGraph, config: Optional[TilingConfig] = None) -> TilingPlan:
    """Plan L1 tiling for every MAC kernel of ``graph``."""
    config = config if config is not None else TilingConfig()
    plan = TilingPlan(graph_name=graph.name, config=config)
    budget = config.tile_budget
    for node in graph.nodes:
        if node.op == "linear":
            tile, num_tiles, tile_bytes = _tile_linear(node, budget)
        elif node.op == "conv1d":
            tile, num_tiles, tile_bytes = _tile_conv1d(node, budget)
        elif node.op == "matmul":
            tile, num_tiles, tile_bytes = _tile_matmul(node, budget)
        else:
            continue
        single_tile = num_tiles == 1
        plan.layers.append(
            LayerTiling(
                name=node.name,
                op=node.op,
                macs=node.macs,
                tile=tile,
                num_tiles=num_tiles,
                tile_bytes=tile_bytes,
                dma_bytes=_dma_bytes(node, num_tiles, single_tile),
                single_tile=single_tile,
            )
        )
    return plan
