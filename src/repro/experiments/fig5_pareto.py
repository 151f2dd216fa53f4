"""Fig. 5 — accuracy vs complexity Pareto spaces.

Fig. 5 of the paper places every swept Bioformer (both variants, all
front-end filter dimensions) and TEMPONet in two planes: accuracy vs MAC
operations (Fig. 5a) and accuracy vs parameter count (Fig. 5b).  The key
findings:

* apart from the pre-trained TEMPONet at the very top, every Pareto point
  is a Bioformer;
* the most accurate Bioformer (h=8, d=1, filter 10) needs ~4.9x fewer
  operations than TEMPONet;
* the lightest Pareto Bioformer (h=2, d=2, filter 10) is a further ~3.3x
  smaller (~16x vs TEMPONet) at a modest accuracy cost;
* the filter dimension barely moves the parameter count (it only affects
  the first layer), so the points collapse horizontally in Fig. 5b.

Complexity (MACs / parameters) is always counted on the traced model at the
paper's input geometry (14 channels x 300 samples); accuracy comes either
from a supplied measurement dictionary (e.g. the Fig. 4 sweep) or from the
paper's reported values, so the complexity relationships can be examined
without re-training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.pareto import ParetoPoint, pareto_frontier
from ..deploy.tracers import trace_model
from ..models import Bioformer, BioformerConfig, TEMPONet, TEMPONetConfig
from ..utils.tables import format_table

__all__ = [
    "PAPER_REFERENCE_ACCURACY",
    "ComplexityPoint",
    "Figure5Result",
    "run_figure5",
    "render_figure5",
]

#: Reference accuracies reported by the paper (used when no measured
#: accuracies are supplied): overall NinaPro DB6 accuracy of the filter-10
#: models with/without pre-training, and rough read-offs of Fig. 4 for the
#: other filter dimensions.
PAPER_REFERENCE_ACCURACY: Dict[Tuple[str, int, bool], float] = {
    ("bio1", 1, True): 0.647,
    ("bio1", 5, True): 0.650,
    ("bio1", 10, True): 0.6573,
    ("bio1", 20, True): 0.640,
    ("bio1", 30, True): 0.629,
    ("bio1", 10, False): 0.6234,
    ("bio2", 1, True): 0.628,
    ("bio2", 5, True): 0.634,
    ("bio2", 10, True): 0.6126,
    ("bio2", 20, True): 0.615,
    ("bio2", 30, True): 0.608,
    ("temponet", 0, False): 0.65,
    ("temponet", 0, True): 0.668,
}


@dataclass
class ComplexityPoint:
    """One architecture with its traced complexity and accuracy."""

    variant: str
    filter_dimension: int
    pretrained: bool
    macs: int
    params: int
    accuracy: float

    @property
    def label(self) -> str:
        """Human-readable tag."""
        tag = f"{self.variant}"
        if self.filter_dimension:
            tag += f" f={self.filter_dimension}"
        if self.pretrained:
            tag += " (pre-trained)"
        return tag


@dataclass
class Figure5Result:
    """All points of the two Pareto planes."""

    points: List[ComplexityPoint] = field(default_factory=list)

    def pareto_by_macs(self) -> List[ParetoPoint]:
        """Non-dominated points in the accuracy-vs-MACs plane."""
        return pareto_frontier(
            [ParetoPoint(p.label, float(p.macs), p.accuracy) for p in self.points]
        )

    def pareto_by_params(self) -> List[ParetoPoint]:
        """Non-dominated points in the accuracy-vs-parameters plane."""
        return pareto_frontier(
            [ParetoPoint(p.label, float(p.params), p.accuracy) for p in self.points]
        )

    def find(self, variant: str, filter_dimension: int, pretrained: bool) -> ComplexityPoint:
        """Look up a specific point."""
        for point in self.points:
            if (
                point.variant == variant
                and point.filter_dimension == filter_dimension
                and point.pretrained == pretrained
            ):
                return point
        raise KeyError((variant, filter_dimension, pretrained))

    def mac_reduction_vs_temponet(self, variant: str, filter_dimension: int) -> float:
        """MAC reduction factor of one Bioformer w.r.t. TEMPONet (paper: 4.9x)."""
        temponet_macs = next(p.macs for p in self.points if p.variant == "temponet")
        bioformer_macs = self.find(variant, filter_dimension, True).macs
        return temponet_macs / bioformer_macs


def run_figure5(
    accuracies: Optional[Dict[Tuple[str, int, bool], float]] = None,
    filter_dimensions: Iterable[int] = (1, 5, 10, 20, 30),
    window_samples: int = 300,
    num_channels: int = 14,
    num_classes: int = 8,
) -> Figure5Result:
    """Build the Fig. 5 point clouds.

    Parameters
    ----------
    accuracies:
        ``{(variant, filter_dim, pretrained): accuracy}``; missing entries
        fall back to :data:`PAPER_REFERENCE_ACCURACY` and are skipped if
        absent there too.
    filter_dimensions, window_samples, num_channels, num_classes:
        Geometry of the complexity evaluation (defaults: the paper's).
    """
    accuracy_lookup = dict(PAPER_REFERENCE_ACCURACY)
    if accuracies:
        accuracy_lookup.update(accuracies)

    result = Figure5Result()
    variant_settings = {"bio1": (1, 8), "bio2": (2, 2)}
    for variant, (depth, heads) in variant_settings.items():
        for filter_dimension in filter_dimensions:
            graph = trace_model(
                Bioformer(
                    BioformerConfig(
                        num_channels=num_channels,
                        window_samples=window_samples,
                        num_classes=num_classes,
                        patch_size=filter_dimension,
                        depth=depth,
                        num_heads=heads,
                    )
                )
            )
            for pretrained in (False, True):
                key = (variant, filter_dimension, pretrained)
                if key not in accuracy_lookup:
                    continue
                result.points.append(
                    ComplexityPoint(
                        variant=variant,
                        filter_dimension=filter_dimension,
                        pretrained=pretrained,
                        macs=graph.total_macs,
                        params=graph.total_weight_elements,
                        accuracy=accuracy_lookup[key],
                    )
                )
    temponet_graph = trace_model(
        TEMPONet(
            TEMPONetConfig(
                num_channels=num_channels,
                window_samples=window_samples,
                num_classes=num_classes,
            )
        )
    )
    for pretrained in (False, True):
        key = ("temponet", 0, pretrained)
        if key in accuracy_lookup:
            result.points.append(
                ComplexityPoint(
                    variant="temponet",
                    filter_dimension=0,
                    pretrained=pretrained,
                    macs=temponet_graph.total_macs,
                    params=temponet_graph.total_weight_elements,
                    accuracy=accuracy_lookup[key],
                )
            )
    return result


def render_figure5(result: Figure5Result) -> str:
    """Render both Pareto planes as text tables."""
    headers = ["model", "MMAC", "params (k)", "accuracy", "Pareto (MACs)", "Pareto (params)"]
    mac_front = {p.label for p in result.pareto_by_macs()}
    param_front = {p.label for p in result.pareto_by_params()}
    rows = []
    for point in sorted(result.points, key=lambda p: p.macs):
        rows.append(
            [
                point.label,
                f"{point.macs / 1e6:.2f}",
                f"{point.params / 1e3:.1f}",
                f"{100 * point.accuracy:.2f}%",
                "*" if point.label in mac_front else "",
                "*" if point.label in param_front else "",
            ]
        )
    return format_table(headers, rows, title="Fig. 5 — accuracy vs complexity Pareto spaces")
