"""Table I — quantised Pareto architectures deployed on GAP8.

The paper's Table I reports, for five Bioformer configurations and
TEMPONet, the int8 memory footprint, MAC count, latency and energy on the
GAP8 MCU (100 MHz @ 1 V, 51 mW) and the accuracy after quantisation-aware
fine-tuning.  Headline numbers: Bioformer (h=8, d=1, filter 10) fits in
94.2 kB and costs 0.139 mJ / 2.72 ms per inference — 8x less energy than
TEMPONet — and the fastest configuration sustains ~257 h on a 1000 mAh
battery versus ~54 h for TEMPONet.

This driver reproduces every column: the complexity/latency/energy columns
come from :func:`repro.deploy.estimate_deployment` over the traced model at
the paper's input geometry, and the quantised-accuracy column from actually
training and QAT-fine-tuning each architecture on the synthetic surrogate at
the requested scale, then scoring it on the int8 executor through
:func:`repro.deploy.deploy_graph` (set ``measure_accuracy=False`` to
regenerate only the deployment columns, which takes milliseconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..data.splits import subject_split
from ..deploy import deploy_graph, estimate_deployment, trace_model
from ..hw import BatteryConfig, GAP8Config
from ..models import build_model
from ..quant import QATConfig, quantization_aware_finetune
from ..training import run_two_step_protocol
from ..utils.tables import format_table
from .common import ExperimentContext, Scale, build_architecture, make_context

__all__ = [
    "TABLE1_CONFIGURATIONS",
    "CALIBRATION_WINDOWS",
    "Table1Row",
    "Table1Result",
    "run_table1",
    "render_table1",
]

#: The rows of Table I: (label, variant, filter dimension).  TEMPONet has no
#: front-end filter (0 placeholder).
TABLE1_CONFIGURATIONS: Tuple[Tuple[str, str, int], ...] = (
    ("Bio1, wind=30", "bio1", 30),
    ("Bio1, wind=20", "bio1", 20),
    ("Bio1, wind=10", "bio1", 10),
    ("Bio2, wind=30", "bio2", 30),
    ("Bio2, wind=10", "bio2", 10),
    ("TEMPONet", "temponet", 0),
)

#: Number of leading training windows that calibrate the int8 activation
#: scales before the Q. Acc. column is scored.
CALIBRATION_WINDOWS = 256


@dataclass
class Table1Row:
    """One row of the reproduced Table I."""

    label: str
    memory_kb: float
    mmacs: float
    latency_ms: float
    energy_mj: float
    quantized_accuracy: Optional[float]
    float_accuracy: Optional[float]
    battery_life_hours: float
    real_time: bool


@dataclass
class Table1Result:
    """All rows plus the derived headline ratios."""

    scale: Scale
    rows: List[Table1Row] = field(default_factory=list)

    def row(self, label: str) -> Table1Row:
        """Look a row up by its label."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def energy_ratio(self, reference: str = "TEMPONet", target: str = "Bio1, wind=10") -> float:
        """Energy reduction factor of ``target`` vs ``reference`` (paper: 8.0x)."""
        return self.row(reference).energy_mj / self.row(target).energy_mj

    def memory_ratio(self, reference: str = "TEMPONet", target: str = "Bio1, wind=10") -> float:
        """Memory reduction factor of ``target`` vs ``reference`` (paper: 4.9x)."""
        return self.row(reference).memory_kb / self.row(target).memory_kb


def run_table1(
    context: Optional[ExperimentContext] = None,
    configurations: Iterable[Tuple[str, str, int]] = TABLE1_CONFIGURATIONS,
    measure_accuracy: bool = True,
    subject: int = 1,
    gap8: Optional[GAP8Config] = None,
    battery: Optional[BatteryConfig] = None,
    inference_period_s: float = 15e-3,
) -> Table1Result:
    """Reproduce Table I.

    Parameters
    ----------
    context:
        Experiment context used for the accuracy column (ignored when
        ``measure_accuracy`` is False).
    configurations:
        The (label, variant, filter) rows to include.
    measure_accuracy:
        Whether to train + QAT each architecture on the synthetic surrogate
        and score it on the int8 executor (slow) or leave the accuracy
        column empty.
    subject:
        Which subject the accuracy column is measured on.
    gap8, battery, inference_period_s:
        Deployment-target parameters (defaults are the paper's).
    """
    result = Table1Result(scale=context.scale if context is not None else Scale.PAPER)

    split = None
    qat_config = None
    if measure_accuracy:
        context = context if context is not None else make_context(Scale.SMALL)
        split = subject_split(context.dataset, subject)
        qat_config = (
            QATConfig.tiny() if context.scale is Scale.TINY else QATConfig.small()
        )

    for label, variant, filter_dimension in configurations:
        quantized_accuracy = None
        float_accuracy = None
        if measure_accuracy and split is not None:
            patch = filter_dimension if filter_dimension else 10
            model = build_architecture(variant, context, patch_size=patch, seed=subject)
            outcome = run_two_step_protocol(
                model, split, context.protocol, num_classes=context.num_classes
            )
            float_accuracy = outcome.test_accuracy
            quantization_aware_finetune(model, split.train, qat_config)
            quantized_accuracy = deploy_graph(
                model,
                split.train.windows[:CALIBRATION_WINDOWS],
                split.test.windows,
                split.test.labels,
            ).int8_accuracy

        # The deployment columns are those of the untrained model at the
        # paper's input geometry.
        paper_model = build_model(
            variant, **({"patch_size": filter_dimension} if filter_dimension else {})
        )
        estimate = estimate_deployment(
            trace_model(paper_model),
            gap8=gap8,
            battery=battery,
            inference_period_s=inference_period_s,
        )
        result.rows.append(
            Table1Row(
                label=label,
                memory_kb=estimate.memory_kilobytes,
                mmacs=estimate.mmacs,
                latency_ms=estimate.latency_ms,
                energy_mj=estimate.energy_mj,
                quantized_accuracy=quantized_accuracy,
                float_accuracy=float_accuracy,
                battery_life_hours=estimate.duty_cycle.battery_life_hours,
                real_time=estimate.duty_cycle.real_time,
            )
        )
    return result


def render_table1(result: Table1Result) -> str:
    """Render the reproduced Table I as a text table."""
    headers = ["Network", "Memory", "MMAC", "Lat. [ms]", "E. [mJ]", "Q. Acc.", "Battery [h]"]
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.label,
                f"{row.memory_kb:.1f} kB",
                f"{row.mmacs:.1f}",
                f"{row.latency_ms:.2f}",
                f"{row.energy_mj:.3f}",
                f"{100 * row.quantized_accuracy:.2f}%" if row.quantized_accuracy is not None else "-",
                f"{row.battery_life_hours:.0f}" + ("" if row.real_time else " (not RT)"),
            ]
        )
    return format_table(
        headers, rows, title="Table I — quantised Pareto architectures on GAP8 (100 MHz @ 1 V)"
    )
