"""End-to-end graph-level deployment pipeline and report.

This module glues the whole :mod:`repro.deploy` flow together, the way a
user would drive it before flashing a device:

1. trace the trained model into a :class:`ComputeGraph`;
2. lower it to int8 with a calibration batch;
3. plan the activation arena (L2) and the L1 tiling;
4. estimate latency / energy / battery life on the GAP8 cost model;
5. optionally measure the integer-only accuracy on a held-out set;
6. generate the C deployment bundle.

Step 4 is :func:`estimate_deployment`, which also gives the deployment
columns of the paper's Table I for an untrained model at the paper's input
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from ..hw.battery import BatteryConfig, DutyCycleReport, battery_life_hours
from ..hw.gap8 import GAP8Config, GAP8Model, LatencyBreakdown
from ..hw.profiler import LayerProfile, ModelProfile
from ..models.bioformer import Bioformer
from ..models.temponet import TEMPONet
from ..utils.tables import format_table
from .codegen import CodeGenerator, GeneratedSource
from .graph import ComputeGraph
from .int_engine import IntegerGraphExecutor
from .lowering import QuantizedGraph, lower_to_int8
from .memory import MemoryPlan, plan_activation_memory
from .passes import LoweringConfig
from .tiling import TilingConfig, TilingPlan, plan_tiling
from .tracers import trace_model

__all__ = [
    "graph_to_profile",
    "DeploymentEstimate",
    "estimate_deployment",
    "GraphDeploymentReport",
    "deploy_graph",
]

#: Mapping from graph operators to the kernel categories of the GAP8 model.
_KIND_FOR_OP = {
    "conv1d": "conv",
    "linear": "linear",
    "matmul": "attention_matmul",
    "softmax": "softmax",
    "layernorm": "norm",
    "channel_affine": "norm",
    "relu": "activation",
    "gelu": "activation",
    "avgpool1d": "pool",
    "mean_tokens": "pool",
    "add": "activation",
    "append_token": "activation",
    "add_positional": "activation",
}


def graph_to_profile(graph: ComputeGraph) -> ModelProfile:
    """Convert a traced graph into a :class:`ModelProfile` for the GAP8 model.

    Shape-only nodes are free on the target and are skipped.  Attention
    kernels are spread over the heads: a ``matmul`` and a projection whose
    only consumer is ``split_heads`` get ``parallel_units = num_heads``.
    """
    profile = ModelProfile(name=graph.name, input_shape=graph.graph_input.shape)
    for node in graph.nodes:
        if node.is_shape_only:
            continue
        kind = _KIND_FOR_OP.get(node.op, "activation")
        parallel_units = 0
        if node.op == "matmul":
            parallel_units = int(node.output.shape[0])
        elif node.op == "linear":
            consumers = graph.consumers(node.output.name)
            if len(consumers) == 1 and consumers[0].op == "split_heads":
                parallel_units = int(consumers[0].output.shape[0])
        profile.layers.append(
            LayerProfile(
                name=node.name,
                kind=kind,
                macs=node.macs,
                params=node.weight_elements,
                elementwise_ops=node.elementwise_ops,
                parallel_units=parallel_units,
            )
        )
    return profile


@dataclass
class DeploymentEstimate:
    """GAP8 cost of one graph: the deployment columns of a Table I row."""

    profile: ModelProfile
    latency: LatencyBreakdown
    duty_cycle: Optional[DutyCycleReport] = None

    @property
    def mmacs(self) -> float:
        """Million MACs per inference."""
        return self.profile.mmacs

    @property
    def memory_kilobytes(self) -> float:
        """Int8 weight memory in kB (Table I's "Memory" column)."""
        return self.profile.memory_kilobytes()

    @property
    def latency_ms(self) -> float:
        return self.latency.latency_ms

    @property
    def energy_mj(self) -> float:
        return self.latency.energy_mj


def estimate_deployment(
    graph: ComputeGraph,
    gap8: Optional[GAP8Config] = None,
    battery: Optional[BatteryConfig] = None,
    inference_period_s: Optional[float] = 15e-3,
) -> DeploymentEstimate:
    """Estimate latency, energy and battery life of ``graph`` on GAP8.

    ``graph`` is a traced model (``trace_model(model)``) or a compiled one.
    ``inference_period_s`` is the period of the always-on loop for the
    battery projection (15 ms in the paper); ``None`` skips the projection.
    """
    gap8 = gap8 if gap8 is not None else GAP8Config()
    profile = graph_to_profile(graph)
    latency = GAP8Model(gap8).latency(profile)
    duty_cycle = None
    if inference_period_s is not None:
        duty_cycle = battery_life_hours(
            latency.latency_s,
            inference_period_s,
            gap8,
            battery if battery is not None else BatteryConfig(),
        )
    return DeploymentEstimate(profile, latency, duty_cycle)


@dataclass
class GraphDeploymentReport:
    """Everything produced by the graph-level deployment pipeline."""

    graph: ComputeGraph
    quantized: QuantizedGraph
    memory_plan: MemoryPlan
    tiling_plan: TilingPlan
    latency: LatencyBreakdown
    gap8: GAP8Config
    sources: Dict[str, GeneratedSource] = field(default_factory=dict)
    int8_accuracy: Optional[float] = None
    float_agreement: Optional[float] = None
    duty_cycle: Optional[DutyCycleReport] = None

    # ------------------------------------------------------------------ #
    # Headline numbers (the paper's Table I columns)
    # ------------------------------------------------------------------ #
    @property
    def model_name(self) -> str:
        return self.graph.name

    @property
    def weight_kilobytes(self) -> float:
        """Int8 constant storage in kB."""
        return self.quantized.weight_kilobytes

    @property
    def lut_kilobytes(self) -> float:
        """Nonlinearity lookup-table storage in kB (0 for TEMPONet)."""
        return self.quantized.total_lut_bytes / 1024.0

    @property
    def activation_kilobytes(self) -> float:
        """Peak activation arena in kB."""
        return self.memory_plan.peak_bytes / 1024.0

    @property
    def total_l2_kilobytes(self) -> float:
        """Weights + LUTs + peak activations (what must fit the 512 kB L2).

        The lookup tables ship in ``weights.h`` alongside the constants, so
        they count against L2 exactly like weights do.
        """
        return self.weight_kilobytes + self.lut_kilobytes + self.activation_kilobytes

    @property
    def fits_l2(self) -> bool:
        """Whether the deployment fits GAP8's L2 memory."""
        return self.total_l2_kilobytes * 1024.0 <= self.gap8.l2_bytes

    @property
    def mmacs(self) -> float:
        """Million MACs per inference (from the traced graph)."""
        return self.graph.total_macs / 1e6

    @property
    def latency_ms(self) -> float:
        return self.latency.latency_ms

    @property
    def energy_mj(self) -> float:
        return self.latency.energy_mj

    def render(self) -> str:
        """Human-readable deployment report."""
        rows = []
        if self.quantized.manifest:
            rows.append(
                (
                    "compiler passes",
                    " -> ".join(record.name for record in self.quantized.manifest),
                )
            )
        source = self.quantized.source_graph
        if source is not None and len(self.graph) != len(source):
            rows.append(
                (
                    "graph nodes",
                    f"{len(self.graph)} (fused from {len(source)})",
                )
            )
        else:
            rows.append(("graph nodes", f"{len(self.graph)}"))
        rows += [
            ("weights (int8)", f"{self.weight_kilobytes:.1f} kB"),
            ("nonlinearity LUTs", f"{self.lut_kilobytes:.1f} kB"),
            ("peak activations", f"{self.activation_kilobytes:.1f} kB"),
            ("total L2", f"{self.total_l2_kilobytes:.1f} kB"),
            ("fits 512 kB L2", "yes" if self.fits_l2 else "NO"),
            ("MMAC / inference", f"{self.mmacs:.2f}"),
            ("latency", f"{self.latency_ms:.2f} ms"),
            ("energy", f"{self.energy_mj:.3f} mJ"),
            ("L1 tiling", "single tile" if self.tiling_plan.all_fit_single_tile else
             f"{self.tiling_plan.total_tiles} tiles"),
            ("DMA traffic", f"{self.tiling_plan.total_dma_bytes / 1024.0:.1f} kB"),
        ]
        if self.int8_accuracy is not None:
            rows.append(("int8 accuracy", f"{100.0 * self.int8_accuracy:.2f}%"))
        if self.float_agreement is not None:
            rows.append(("int8/fp32 agreement", f"{100.0 * self.float_agreement:.2f}%"))
        if self.duty_cycle is not None:
            rows.append(("battery life", f"{self.duty_cycle.battery_life_hours:.0f} h"))
        if self.sources:
            total_lines = sum(source.lines for source in self.sources.values())
            rows.append(("generated C", f"{len(self.sources)} files, {total_lines} lines"))
        return format_table(
            ("quantity", "value"), rows, title=f"Deployment report: {self.model_name}"
        )


def deploy_graph(
    model: Union[Bioformer, TEMPONet],
    calibration_inputs: np.ndarray,
    evaluation_inputs: Optional[np.ndarray] = None,
    evaluation_labels: Optional[np.ndarray] = None,
    gap8: Optional[GAP8Config] = None,
    tiling: Optional[TilingConfig] = None,
    battery: Optional[BatteryConfig] = None,
    inference_period_s: Optional[float] = 15e-3,
    generate_code: bool = True,
    config: Optional[LoweringConfig] = None,
) -> GraphDeploymentReport:
    """Run the full graph-level deployment pipeline for a trained model.

    Parameters
    ----------
    model:
        Trained Bioformer or TEMPONet (evaluation-mode weights are traced).
    calibration_inputs:
        ``(batch, channels, samples)`` batch used to calibrate activation
        scales (a few hundred windows of the training sessions in practice).
    evaluation_inputs, evaluation_labels:
        Optional held-out windows/labels; when given, the integer-only
        accuracy and the int8-vs-fp32 prediction agreement are measured.
    gap8, tiling, battery:
        Target descriptions (paper defaults when omitted).
    inference_period_s:
        Period of the always-on loop for the battery projection (15 ms in
        the paper); ``None`` skips the projection.
    generate_code:
        Whether to run the C code generator and attach the sources.
    config:
        The :class:`~repro.deploy.passes.LoweringConfig` forwarded to
        :func:`~repro.deploy.lowering.lower_to_int8`.  The default is the
        paper's 8/8 lowering with LUT nonlinearities.

    The GAP8 latency and energy are estimated on the trace, so they equal
    ``estimate_deployment(trace_model(model))`` exactly; memory and tiling
    are planned on the executable (fused) graph the C code runs.
    """
    model.eval()
    gap8 = gap8 if gap8 is not None else GAP8Config()
    graph = trace_model(model)
    quantized = lower_to_int8(graph, calibration_inputs, config)
    compiled = quantized.graph
    memory_plan = plan_activation_memory(compiled)
    tiling_plan = plan_tiling(compiled, tiling)
    estimate = estimate_deployment(graph, gap8, battery, inference_period_s)

    int8_accuracy = None
    float_agreement = None
    if evaluation_inputs is not None:
        executor = IntegerGraphExecutor(quantized)
        predictions = executor.predict(evaluation_inputs)
        float_agreement = executor.agreement_with_float(evaluation_inputs)
        if evaluation_labels is not None:
            int8_accuracy = float(np.mean(predictions == np.asarray(evaluation_labels)))

    sources: Dict[str, GeneratedSource] = {}
    if generate_code:
        sources = CodeGenerator(quantized, memory_plan).generate()

    return GraphDeploymentReport(
        graph=compiled,
        quantized=quantized,
        memory_plan=memory_plan,
        tiling_plan=tiling_plan,
        latency=estimate.latency,
        gap8=gap8,
        sources=sources,
        int8_accuracy=int8_accuracy,
        float_agreement=float_agreement,
        duty_cycle=estimate.duty_cycle,
    )
