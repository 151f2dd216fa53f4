"""Sec. III-A — depth x heads architecture grid search.

The paper selects its two reference Bioformers (h=8, d=1 and h=2, d=2)
from a grid search over depth in {1, 2, 3, 4} and heads in {1, 2, 4, 8},
picking "the architectures with the best trade-off of accuracy vs.
parameters".  This driver reproduces that search: it trains every grid
point with the standard protocol, counts its complexity on the traced model
at the paper's geometry, and reports the accuracy-vs-parameters Pareto
frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..analysis.pareto import ParetoPoint, pareto_frontier
from ..data.splits import subject_split
from ..deploy.tracers import trace_model
from ..models import BioformerConfig
from ..models.bioformer import Bioformer
from ..training import train_subject_specific
from ..utils.tables import format_table
from .common import ExperimentContext, Scale, make_context

__all__ = ["GridSearchResult", "run_grid_search", "render_grid_search"]


@dataclass
class GridSearchResult:
    """Accuracy and complexity of every (depth, heads) grid point."""

    scale: Scale
    patch_size: int
    #: ``accuracy[(depth, heads)] = mean accuracy`` on the evaluation subjects.
    accuracy: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: ``params[(depth, heads)]`` and ``macs[(depth, heads)]`` at paper geometry.
    params: Dict[Tuple[int, int], int] = field(default_factory=dict)
    macs: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def pareto(self) -> List[ParetoPoint]:
        """Accuracy-vs-parameters Pareto frontier of the grid."""
        points = [
            ParetoPoint(f"d={d},h={h}", float(self.params[(d, h)]), self.accuracy[(d, h)])
            for (d, h) in self.accuracy
        ]
        return pareto_frontier(points)

    def best(self) -> Tuple[int, int]:
        """Grid point with the highest accuracy."""
        return max(self.accuracy, key=self.accuracy.get)


def run_grid_search(
    context: Optional[ExperimentContext] = None,
    depths: Iterable[int] = (1, 2, 3, 4),
    heads: Iterable[int] = (1, 2, 4, 8),
    subjects: Optional[Iterable[int]] = None,
    patch_size: int = 10,
) -> GridSearchResult:
    """Train every (depth, heads) Bioformer and collect the grid results."""
    context = context if context is not None else make_context(Scale.SMALL)
    subject_list = list(subjects) if subjects is not None else [context.subjects[0]]
    result = GridSearchResult(scale=context.scale, patch_size=patch_size)
    window = context.window_samples
    patch = min(patch_size, max(window // 2, 1))

    for depth in depths:
        for num_heads in heads:
            accuracies = []
            for subject in subject_list:
                split = subject_split(context.dataset, subject, include_pretrain=False)
                config = BioformerConfig(
                    num_channels=context.num_channels,
                    window_samples=window,
                    num_classes=context.num_classes,
                    patch_size=patch,
                    depth=depth,
                    num_heads=num_heads,
                    seed=subject,
                )
                model = Bioformer(config)
                outcome = train_subject_specific(
                    model, split, context.protocol, num_classes=context.num_classes
                )
                accuracies.append(outcome.test_accuracy)
            result.accuracy[(depth, num_heads)] = float(np.mean(accuracies))
            paper_graph = trace_model(
                Bioformer(BioformerConfig(depth=depth, num_heads=num_heads, patch_size=patch_size))
            )
            result.params[(depth, num_heads)] = paper_graph.total_weight_elements
            result.macs[(depth, num_heads)] = paper_graph.total_macs
    return result


def render_grid_search(result: GridSearchResult) -> str:
    """Render the grid as a text table sorted by accuracy."""
    headers = ["depth", "heads", "accuracy", "params (k)", "MMAC", "Pareto"]
    frontier = {point.label for point in result.pareto()}
    rows = []
    for (depth, num_heads), accuracy in sorted(
        result.accuracy.items(), key=lambda item: -item[1]
    ):
        label = f"d={depth},h={num_heads}"
        rows.append(
            [
                depth,
                num_heads,
                f"{100 * accuracy:.2f}%",
                f"{result.params[(depth, num_heads)] / 1e3:.1f}",
                f"{result.macs[(depth, num_heads)] / 1e6:.2f}",
                "*" if label in frontier else "",
            ]
        )
    return format_table(headers, rows, title="Sec. III-A — depth x heads grid search")
