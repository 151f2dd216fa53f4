"""L1 tiling planner for the GAP8 cluster scratchpad.

GAP8 kernels cannot read L2 directly at full speed: the 8-core cluster works
out of a 64 kB L1 scratchpad, and a DMA engine moves tiles of the input,
weight and output tensors between L2 and L1 while the cores compute on the
previous tile (double buffering).  Choosing tile shapes that (i) fit the
scratchpad and (ii) keep the DMA traffic low is the job of the deployment
flow — this module reproduces that pass, in the spirit of DORY (Burrello et
al., IEEE TC 2021), for the kernels used by Bioformer and TEMPONet.

The target is the :class:`~repro.hw.gap8.GAP8Config` the cost model reads:
L1 less the cores' stacks (:data:`~repro.hw.gap8.L1_STACK_BYTES`) holds two
tiles, and its MAC rate and the DMA rate
(:data:`~repro.hw.gap8.DMA_BYTES_PER_CYCLE`) classify each kernel as
compute- or DMA-bound.  For every MAC kernel of a :class:`ComputeGraph`
the planner searches the kernel's 2-D tile space, keeps the largest tile
that fits the budget, and reports the resulting tile count, per-tile
occupancy and total DMA traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..hw.gap8 import DMA_BYTES_PER_CYCLE, L1_STACK_BYTES, GAP8Config
from .graph import ComputeGraph, GraphNode

__all__ = ["LayerTiling", "TilingPlan", "plan_tiling"]


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

    def compute_cycles(self, gap8: GAP8Config) -> float:
        """Ideal compute time of the kernel (cycles)."""
        return self.macs / gap8.peak_macs_per_cycle

    def dma_cycles(self) -> float:
        """Ideal DMA transfer time of the kernel (cycles)."""
        return self.dma_bytes / DMA_BYTES_PER_CYCLE

    def bottleneck(self, gap8: GAP8Config) -> str:
        """``"compute"`` or ``"dma"`` depending on which phase dominates."""
        return "compute" if self.compute_cycles(gap8) >= self.dma_cycles() else "dma"


@dataclass
class TilingPlan:
    """Tiling decisions for every MAC kernel of a graph."""

    graph_name: str
    gap8: GAP8Config
    layers: List[LayerTiling] = field(default_factory=list)

    @property
    def tile_budget(self) -> int:
        """L1 bytes available to one tile: half of L1 less the core stacks."""
        return (self.gap8.l1_bytes - L1_STACK_BYTES) // 2

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
            f"(budget {self.tile_budget} B per tile)",
            f"{'kernel':<34}{'op':<10}{'tiles':>7}{'tile B':>9}{'DMA B':>11}{'bound':>9}",
        ]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<34}{layer.op:<10}{layer.num_tiles:>7}{layer.tile_bytes:>9}"
                f"{layer.dma_bytes:>11}{layer.bottleneck(self.gap8):>9}"
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


def _largest_tile(
    outer_full: int, inner_full: int, tile_bytes: Callable[[int, int], int], budget: int
) -> Tuple[int, int, int, int]:
    """The largest tile (in elements) of a 2-D tile space that fits ``budget``.

    For each size of the outer dimension, largest first, the search takes
    the largest fitting size of the inner one; the first tile with the most
    elements wins, and a 1x1 tile when nothing fits.  Returns the tile's
    (outer, inner) sizes, the number of tiles covering the space and the
    tile's L1 bytes.
    """
    best, best_elements = (1, 1), 0
    for outer in _candidate_sizes(outer_full):
        for inner in _candidate_sizes(inner_full):
            if tile_bytes(outer, inner) <= budget:
                if outer * inner > best_elements:
                    best, best_elements = (outer, inner), outer * inner
                break
    outer, inner = best
    num_tiles = _ceil_div(outer_full, outer) * _ceil_div(inner_full, inner)
    return outer, inner, num_tiles, tile_bytes(outer, inner)


#: A kernel's tiling: the tile (by dimension name), tile count and tile bytes.
_Tiling = Tuple[Dict[str, int], int, int]


def _tile_linear(node: GraphNode, budget: int) -> _Tiling:
    """A linear kernel tiles over (output features, rows)."""
    out_features, in_features = node.weights["weight"].shape
    rows = max(node.output.num_elements // out_features, 1)
    bias_bytes = 4 if "bias" in node.weights else 0

    def tile_bytes(tile_out: int, tile_rows: int) -> int:
        inputs = tile_rows * in_features
        weights = tile_out * (in_features + bias_bytes)
        return inputs + weights + tile_rows * tile_out

    tile_out, tile_rows, num_tiles, size = _largest_tile(out_features, rows, tile_bytes, budget)
    return {"rows": tile_rows, "out_features": tile_out}, num_tiles, size


def _tile_conv1d(node: GraphNode, budget: int) -> _Tiling:
    """A 1-D convolution tiles over (output channels, output length)."""
    out_channels, in_channels, kernel = node.weights["weight"].shape
    stride = int(node.attrs["stride"])
    receptive = int(node.attrs["dilation"]) * (kernel - 1) + 1
    bias_bytes = 4 if "bias" in node.weights else 0

    def tile_bytes(tile_channels: int, tile_length: int) -> int:
        inputs = in_channels * ((tile_length - 1) * stride + receptive)
        weights = tile_channels * (in_channels * kernel + bias_bytes)
        return inputs + weights + tile_channels * tile_length

    tile_channels, tile_length, num_tiles, size = _largest_tile(
        out_channels, node.output.shape[-1], tile_bytes, budget
    )
    return {"out_channels": tile_channels, "out_length": tile_length}, num_tiles, size


def _tile_matmul(node: GraphNode, budget: int) -> _Tiling:
    """An attention matmul tiles over (heads, rows)."""
    heads, rows, cols = node.output.shape
    inner = int(node.attrs["inner_dim"])

    def tile_bytes(tile_heads: int, tile_rows: int) -> int:
        return tile_heads * (tile_rows * inner + inner * cols + tile_rows * cols)

    tile_heads, tile_rows, num_tiles, size = _largest_tile(heads, rows, tile_bytes, budget)
    return {"heads": tile_heads, "rows": tile_rows}, num_tiles, size


_TILERS: Dict[str, Callable[[GraphNode, int], _Tiling]] = {
    "linear": _tile_linear,
    "conv1d": _tile_conv1d,
    "matmul": _tile_matmul,
}


def _dma_bytes(node: GraphNode, num_tiles: int, single_weight_load: bool) -> int:
    """Approximate L2<->L1 traffic of one kernel.

    Activations move exactly once in and once out; weights move once if a
    single weight tile covers the kernel, otherwise once per tile (the
    pessimistic DORY assumption).  Only the write-back of a fused node is
    its (possibly pooled) output; everything else is its MAC kernel's.
    """
    output_bytes = node.output.num_elements
    # Approximate the input read volume with the MAC kernel's output volume
    # per consumed tensor.  This is a known mis-estimate: it over-charges
    # kernels whose output exceeds their input (the q/k/v projections) and
    # under-charges reducing ones (TEMPONet's classifier.1); see the FOUND
    # line on ``_dma_bytes`` in CHANGES.md.
    input_bytes = node.fusion_chain[0].output.num_elements * max(len(node.inputs), 1)
    weight_bytes = node.weight_elements
    if single_weight_load:
        return input_bytes + weight_bytes + output_bytes
    return input_bytes + weight_bytes * num_tiles + output_bytes


def plan_tiling(graph: ComputeGraph, gap8: Optional[GAP8Config] = None) -> TilingPlan:
    """Plan L1 tiling for every MAC kernel of ``graph`` on ``gap8``.

    ``gap8`` defaults to ``GAP8Config()`` and is validated first.  A fused
    node is tiled over the output of its chain's MAC kernel, so a fused
    ``conv1d -> ... -> avgpool1d`` tiles the convolution's output positions.
    """
    gap8 = gap8 if gap8 is not None else GAP8Config()
    gap8.validate()
    plan = TilingPlan(graph_name=graph.name, gap8=gap8)
    for node in graph.nodes:
        if node.op not in _TILERS:
            continue
        tile, num_tiles, tile_bytes = _TILERS[node.op](node.fusion_chain[0], plan.tile_budget)
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
