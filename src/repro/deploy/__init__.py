"""``repro.deploy`` — the GAP8 deployment toolchain.

The paper's Table I is produced by an MCU deployment flow: the trained model
is quantised to int8, lowered onto the integer transformer kernels of
Burrello et al. (COINS 2021), tiled through GAP8's 64 kB L1 scratchpad and
compiled into C.  This package reproduces that flow on the host:

* :mod:`repro.deploy.graph` / :mod:`repro.deploy.tracers` — a flat inference
  graph IR and the tracer that records a model's own forward into it;
* :mod:`repro.deploy.engine` — the bound node schedule both executors run,
  and the float reference executor (trace validation and calibration);
* :mod:`repro.deploy.lowering` — the int8 lowering data model (activation /
  constant / node / graph dataclasses, fixed-point requantisation encoding)
  and the stable :func:`~repro.deploy.lowering.lower_to_int8` entry point;
* :mod:`repro.deploy.passes` — the deploy compiler, configured by one
  :class:`~repro.deploy.passes.LoweringConfig`:
  :func:`~repro.deploy.passes.compile_graph` runs seven fixed,
  bitwise-pinned stages (calibration, weight quantisation, GEMM tile
  planning, LUT substitution, requant folding, conv→pool fusion and
  dead-node elimination) and records each in the manifest;
* :mod:`repro.deploy.int_engine` — integer-only inference (int8/int32 with
  I-BERT non-linearities, GELU and the softmax ``exp`` as lookup tables),
  i.e. the on-target numerics emulated bit-level;
* :mod:`repro.deploy.memory` — activation arena planning (L2);
* :mod:`repro.deploy.tiling` — L1 tile-size selection and DMA accounting;
* :mod:`repro.deploy.codegen` — C source generation (weights, kernel
  schedule, inference API);
* :mod:`repro.deploy.report` — the GAP8 estimate of a traced graph (the
  deployment columns of the paper's Table I) and the end-to-end pipeline
  producing a deployment report with the int8 accuracy.
"""

from .codegen import CodeGenerator, GeneratedSource, generate_c_sources
from .engine import FloatGraphExecutor
from .graph import LUT_OPERATORS, ComputeGraph, GraphNode, LookupTable, TensorSpec
from .int_engine import IntegerGraphExecutor
from .lowering import (
    ActivationQuantization,
    CalibrationError,
    QuantizedConstant,
    QuantizedGraph,
    QuantizedNode,
    build_gelu_lut,
    build_softmax_exp_lut,
    lower_to_int8,
    quantize_multiplier,
    requantize,
)
from .memory import BufferAssignment, LiveRange, MemoryPlan, live_ranges, plan_activation_memory
from .passes import LoweringConfig, PassRecord, compile_graph
from .report import (
    DeploymentEstimate,
    GraphDeploymentReport,
    deploy_graph,
    estimate_deployment,
    graph_to_profile,
)
from .tiling import LayerTiling, TilingConfig, TilingPlan, plan_tiling
from .tracers import trace_model

__all__ = [
    "TensorSpec",
    "GraphNode",
    "ComputeGraph",
    "LookupTable",
    "LUT_OPERATORS",
    "build_gelu_lut",
    "build_softmax_exp_lut",
    "trace_model",
    "FloatGraphExecutor",
    "IntegerGraphExecutor",
    "requantize",
    "ActivationQuantization",
    "CalibrationError",
    "QuantizedConstant",
    "QuantizedNode",
    "QuantizedGraph",
    "quantize_multiplier",
    "lower_to_int8",
    "LoweringConfig",
    "PassRecord",
    "compile_graph",
    "LiveRange",
    "BufferAssignment",
    "MemoryPlan",
    "live_ranges",
    "plan_activation_memory",
    "TilingConfig",
    "LayerTiling",
    "TilingPlan",
    "plan_tiling",
    "CodeGenerator",
    "GeneratedSource",
    "generate_c_sources",
    "graph_to_profile",
    "DeploymentEstimate",
    "estimate_deployment",
    "GraphDeploymentReport",
    "deploy_graph",
]
