"""C code generation for the GAP8 target.

The final stage of the deployment flow emits self-contained C sources in the
style of the PULP-NN / transformer kernels used by the paper ("A
Microcontroller is All You Need", Burrello et al., COINS 2021):

* ``weights.h`` — every quantised constant as a ``const int8_t`` /
  ``const int32_t`` array in L2, plus the per-kernel requantisation
  multipliers and shifts;
* ``network.h`` — the inference entry point and buffer-size macros;
* ``network.c`` — one kernel invocation per graph node, reading and writing
  offsets of a single activation arena sized by the memory planner;
* ``kernels.h`` — prototypes of the kernels the schedule calls.

No cross-compiler is available in this environment, so the generated code
is not built here; the test-suite instead checks its structural properties
(every node emitted, every constant array matching its quantised size,
arena size consistent with the memory plan), which is the same contract an
on-target build would rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .graph import GraphNode
from .lowering import QuantizedGraph
from .memory import MemoryPlan, plan_activation_memory

__all__ = ["GeneratedSource", "CodeGenerator", "generate_c_sources"]

#: The MAC kernels run the GEMM schedule described by each node's
#: :class:`~repro.deploy.lowering.GemmTileInfo`: conv1d as im2col plus one
#: integer matmul, linear/matmul as a single (M, K) x (K, N) GEMM with the
#: requantisation applied once per output tile.  The GELU kernel is one
#: table gather per element; the softmax kernel gathers the tabulated exp
#: and keeps the integer sum/normalise/requantise tail.
_KERNEL_FOR_OP = {
    "conv1d": "net_conv1d_im2col_i8",
    "linear": "net_linear_gemm_i8",
    "channel_affine": "net_channel_affine_i8",
    "layernorm": "net_layernorm_i8",
    "relu": "net_relu_i8",
    "gelu": "net_gelu_lut_i8",
    "softmax": "net_softmax_lut_i8",
    "matmul": "net_matmul_gemm_i8",
    "add": "net_add_i8",
    "append_token": "net_append_token_i8",
    "add_positional": "net_add_positional_i8",
    "avgpool1d": "net_avgpool1d_i8",
    "flatten": "net_copy_i8",
    "split_heads": "net_copy_i8",
    "merge_heads": "net_copy_i8",
    "transpose": "net_transpose_i8",
    "select_token": "net_copy_i8",
    "mean_tokens": "net_mean_tokens_i8",
}

#: Name fragment appended per absorbed kernel when the compiler's fusion
#: passes (:mod:`repro.deploy.passes`) folded elementwise tails / pooling
#: into a MAC node: ``net_conv1d_im2col_affine_relu_pool_i8`` runs the conv
#: GEMM and applies BN-affine, ReLU and the average pool on the output tile
#: before it leaves L1.  The fused kernels consume the same per-stage
#: multiplier/shift macros as their standalone peers (fusion never collapses
#: requantisation stages — that would double-round), so numerics are pinned.
_FUSED_TAG_FOR_OP = {
    "channel_affine": "affine",
    "relu": "relu",
    "gelu": "gelu_lut",
    "avgpool1d": "pool",
}


@dataclass
class GeneratedSource:
    """One generated source file."""

    filename: str
    content: str

    @property
    def lines(self) -> int:
        return self.content.count("\n") + 1


def _sanitize(name: str) -> str:
    """Turn a graph tensor/node name into a valid C identifier."""
    return name.replace(".", "_").replace("-", "_")


def _format_array(values: np.ndarray, per_line: int = 16) -> str:
    """Render a flat integer array as a C initialiser list."""
    flat = values.reshape(-1).tolist()
    chunks = []
    for start in range(0, len(flat), per_line):
        chunk = ", ".join(str(int(value)) for value in flat[start : start + per_line])
        chunks.append("    " + chunk)
    return ",\n".join(chunks)


class CodeGenerator:
    """Generates the C deployment bundle for an int8-lowered graph.

    Every GELU/softmax node calls its table-driven kernel and ships its
    :class:`~repro.deploy.graph.LookupTable` in ``weights.h``.

    Parameters
    ----------
    quantized:
        The int8-lowered graph.
    memory_plan:
        Activation arena plan; computed from the graph when omitted.
    """

    def __init__(
        self,
        quantized: QuantizedGraph,
        memory_plan: Optional[MemoryPlan] = None,
    ) -> None:
        self.quantized = quantized
        self.graph = quantized.graph
        self.memory_plan = (
            memory_plan if memory_plan is not None else plan_activation_memory(self.graph)
        )

    def _kernel_for(self, node: GraphNode) -> str:
        """The kernel implementing ``node``.

        A fused node names a fused kernel: the base kernel's stem plus one
        tag per absorbed kernel (``_affine`` / ``_relu`` / ``_gelu_lut`` /
        ``_pool``), in chain order.
        """
        base = _KERNEL_FOR_OP[node.op]
        if not node.is_fused:
            return base
        tags = [_FUSED_TAG_FOR_OP[sub.op] for sub in node.fusion_chain[1:]]
        return base[: -len("_i8")] + "_" + "_".join(tags) + "_i8"

    # ------------------------------------------------------------------ #
    # Individual files
    # ------------------------------------------------------------------ #
    def weights_header(self) -> GeneratedSource:
        """``weights.h`` — quantised constants and requantisation factors."""
        lines: List[str] = [
            "/* Auto-generated by repro.deploy.codegen - quantised constants. */",
            "#ifndef NETWORK_WEIGHTS_H",
            "#define NETWORK_WEIGHTS_H",
            "",
            "#include <stdint.h>",
            "",
        ]
        for node_name, lowered in self.quantized.nodes.items():
            identifier = _sanitize(node_name)
            for role, constant in lowered.constants.items():
                ctype = "int8_t" if constant.dtype == "int8" else "int32_t"
                array_name = f"{identifier}_{role}"
                values = np.round(constant.values).astype(np.int64)
                lines.append(
                    f"static const {ctype} {array_name}[{values.size}] = {{"
                )
                lines.append(_format_array(values))
                lines.append("};")
                lines.append(
                    f"#define {array_name.upper()}_SCALE {constant.scale:.10e}f"
                )
                lines.append("")
            for role, table in lowered.luts.items():
                ctype = "int8_t" if table.dtype == "int8" else "int32_t"
                array_name = f"{identifier}_lut_{role}"
                lines.append(
                    f"static const {ctype} {array_name}[{table.size}] = {{"
                )
                lines.append(_format_array(np.asarray(table.values, dtype=np.int64)))
                lines.append("};")
                lines.append(
                    f"#define {array_name.upper()}_DOMAIN_MIN {table.domain_min}"
                )
                lines.append("")
            for role, (multiplier, shift) in lowered.requantizers.items():
                prefix = f"{identifier}_{role}".upper()
                lines.append(f"#define {prefix}_MULTIPLIER {multiplier}")
                lines.append(f"#define {prefix}_SHIFT {shift}")
            if lowered.gemm is not None:
                prefix = identifier.upper()
                lines.append(f"#define {prefix}_GEMM_M {lowered.gemm.m}")
                lines.append(f"#define {prefix}_GEMM_K {lowered.gemm.k}")
                lines.append(f"#define {prefix}_GEMM_N {lowered.gemm.n}")
            lines.append("")
        lines.append("#endif /* NETWORK_WEIGHTS_H */")
        return GeneratedSource("weights.h", "\n".join(lines) + "\n")

    def kernels_header(self) -> GeneratedSource:
        """``kernels.h`` — prototypes of exactly the kernels the schedule calls."""
        lines = [
            "/* Auto-generated by repro.deploy.codegen - kernel library API. */",
            "#ifndef NETWORK_KERNELS_H",
            "#define NETWORK_KERNELS_H",
            "",
            "#include <stdint.h>",
            "",
            "/* Every kernel reads int8 activations, accumulates in int32 and",
            " * requantises with a fixed-point multiplier/shift pair, matching",
            " * the integer executor in repro.deploy.int_engine.  The _lut_",
            " * variants gather a precomputed table (see weights.h) instead of",
            " * evaluating the I-BERT polynomials per element.  The _gemm_ /",
            " * _im2col_ MAC kernels run one (M, K) x (K, N) integer matmul per",
            " * node, requantising once per output tile (see the _GEMM_M/_K/_N",
            " * macros).  Fused variants (tags _affine/_relu/_gelu[_lut]/_pool",
            " * appended by the compiler's fusion passes) apply the absorbed",
            " * kernels on the output tile in L1 using the same per-stage",
            " * macros. */",
        ]
        declared = {self._kernel_for(node) for node in self.graph.nodes}
        for kernel in sorted(declared):
            lines.append(
                f"void {kernel}(const int8_t *input, int8_t *output, const void *params);"
            )
        lines += ["", "#endif /* NETWORK_KERNELS_H */"]
        return GeneratedSource("kernels.h", "\n".join(lines) + "\n")

    def network_header(self) -> GeneratedSource:
        """``network.h`` — public inference API and buffer sizes."""
        arena = self.memory_plan.peak_bytes
        input_spec = self.graph.graph_input
        output_spec = self.graph.output
        lines = [
            "/* Auto-generated by repro.deploy.codegen - inference entry point. */",
            "#ifndef NETWORK_H",
            "#define NETWORK_H",
            "",
            "#include <stdint.h>",
            "",
            f"#define NETWORK_NAME \"{self.graph.name}\"",
            f"#define NETWORK_INPUT_SIZE {input_spec.num_elements}",
            f"#define NETWORK_OUTPUT_SIZE {output_spec.num_elements}",
            f"#define NETWORK_ARENA_BYTES {arena}",
            f"#define NETWORK_WEIGHT_BYTES {self.quantized.total_weight_bytes}",
            f"#define NETWORK_LUT_BYTES {self.quantized.total_lut_bytes}",
            f"#define NETWORK_INPUT_SCALE {self.quantized.input_quantization.scale:.10e}f",
            f"#define NETWORK_OUTPUT_SCALE {self.quantized.output_quantization.scale:.10e}f",
            "",
            "/* Runs one inference: `input` holds NETWORK_INPUT_SIZE int8 values",
            " * quantised with NETWORK_INPUT_SCALE, `arena` is a scratch buffer of",
            " * NETWORK_ARENA_BYTES, and the int8 logits are written to `output`. */",
            "void network_run(const int8_t *input, int8_t *output, int8_t *arena);",
            "",
            "#endif /* NETWORK_H */",
        ]
        return GeneratedSource("network.h", "\n".join(lines) + "\n")

    def network_source(self) -> GeneratedSource:
        """``network.c`` — the kernel schedule over the activation arena."""
        lines = [
            "/* Auto-generated by repro.deploy.codegen - kernel schedule. */",
            "#include \"network.h\"",
            "#include \"kernels.h\"",
            "#include \"weights.h\"",
            "",
            "void network_run(const int8_t *input, int8_t *output, int8_t *arena)",
            "{",
        ]
        input_name = self.graph.graph_input.name
        for node in self.graph.nodes:
            kernel = self._kernel_for(node)
            source = node.inputs[0]
            source_expr = (
                "input"
                if source == input_name
                else f"arena + {self.memory_plan.offset_of(source)}"
            )
            if node.output.name == self.graph.output.name:
                destination_expr = "output"
            else:
                destination_expr = f"arena + {self.memory_plan.offset_of(node.output.name)}"
            described_op = (
                "+".join(sub.op for sub in node.fusion_chain)
                if node.is_fused
                else node.op
            )
            comment = f"/* {node.name}: {described_op} -> {list(node.output.shape)} */"
            lines.append(f"    {comment}")
            lines.append(
                f"    {kernel}((const int8_t *)({source_expr}), "
                f"(int8_t *)({destination_expr}), 0);"
            )
        lines += ["}", ""]
        return GeneratedSource("network.c", "\n".join(lines))

    # ------------------------------------------------------------------ #
    # Bundle
    # ------------------------------------------------------------------ #
    def generate(self) -> Dict[str, GeneratedSource]:
        """Generate the full bundle, keyed by filename."""
        sources = [
            self.weights_header(),
            self.kernels_header(),
            self.network_header(),
            self.network_source(),
        ]
        return {source.filename: source for source in sources}

    def write(self, directory: str) -> List[str]:
        """Write the bundle to ``directory`` and return the written paths."""
        import os

        os.makedirs(directory, exist_ok=True)
        written = []
        for source in self.generate().values():
            path = os.path.join(directory, source.filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source.content)
            written.append(path)
        return written


def generate_c_sources(
    quantized: QuantizedGraph,
    memory_plan: Optional[MemoryPlan] = None,
) -> Dict[str, GeneratedSource]:
    """One-call code generation for an int8-lowered graph."""
    return CodeGenerator(quantized, memory_plan).generate()
