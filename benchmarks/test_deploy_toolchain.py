"""Benchmark of the graph-level GAP8 deployment toolchain (Table I, traced).

The `table1` benchmarks regenerate the paper's deployment columns from the
GAP8 estimate of the traced models; this module runs the whole toolchain on
the same rows — tracing real model instances, quantising their weights to
int8, planning the L2 activation arena and the L1 tiling, and generating the
C bundle — which is the flow a user runs before flashing a device.  The weight-memory column must land on the paper's numbers because
it is a property of the architecture, not of training.
"""

import numpy as np
import pytest

from conftest import report
from repro.deploy import deploy_graph, plan_tiling, trace_model
from repro.models import bioformer_bio1, bioformer_bio2, temponet
from repro.utils.tables import format_table

#: (label, builder) for the Table I rows, at the paper's input geometry.
ROWS = (
    ("Bio1, wind=10", lambda: bioformer_bio1(patch_size=10)),
    ("Bio1, wind=20", lambda: bioformer_bio1(patch_size=20)),
    ("Bio1, wind=30", lambda: bioformer_bio1(patch_size=30)),
    ("Bio2, wind=10", lambda: bioformer_bio2(patch_size=10)),
    ("Bio2, wind=30", lambda: bioformer_bio2(patch_size=30)),
    ("TEMPONet", lambda: temponet()),
)

#: Paper Table I memory column, for the shape check.
PAPER_MEMORY_KB = {
    "Bio1, wind=10": 94.2,
    "Bio1, wind=20": 102.1,
    "Bio1, wind=30": 110.8,
    "Bio2, wind=10": 78.3,
    "Bio2, wind=30": 92.2,
    "TEMPONet": 461.0,
}


def run_toolchain_rows():
    rng = np.random.default_rng(0)
    calibration = rng.normal(size=(4, 14, 300))
    reports = {}
    for label, build in ROWS:
        model = build().eval()
        reports[label] = deploy_graph(model, calibration, generate_code=True)
    return reports


@pytest.mark.benchmark(group="deploy")
def test_deploy_toolchain_table(benchmark):
    """Trace -> int8 -> memory plan -> tiling -> codegen for every Table I row."""
    reports = benchmark.pedantic(run_toolchain_rows, rounds=1, iterations=1)

    rows = []
    for label, deployment in reports.items():
        rows.append(
            (
                label,
                f"{deployment.weight_kilobytes:.1f}",
                f"{deployment.activation_kilobytes:.1f}",
                f"{deployment.mmacs:.1f}",
                f"{deployment.latency_ms:.2f}",
                f"{deployment.energy_mj:.3f}",
                "yes" if deployment.tiling_plan.all_fit_single_tile else "no",
                f"{PAPER_MEMORY_KB[label]:.1f}",
            )
        )
    report(
        "Graph-level GAP8 deployment (traced models, paper geometry)",
        format_table(
            ("model", "weights kB", "act. kB", "MMAC", "lat. ms", "E mJ", "1-tile", "paper kB"),
            rows,
        ),
    )

    bio1 = reports["Bio1, wind=10"]
    tcn = reports["TEMPONet"]
    # Weight memory is architecture-determined: must match the paper closely.
    assert bio1.weight_kilobytes == pytest.approx(94.2, rel=0.08)
    assert tcn.weight_kilobytes == pytest.approx(461.0, rel=0.05)
    # Every row fits GAP8's 512 kB L2 including the activation arena.
    for deployment in reports.values():
        assert deployment.fits_l2
    # The paper's headline complexity ratio (~4.9x fewer MACs, ~8x energy).
    assert 4.0 < tcn.mmacs / bio1.mmacs < 6.5
    assert tcn.energy_mj / bio1.energy_mj > 5.0
    # Bioformer kernels fit L1 without tiling; TEMPONet needs tiles.
    assert bio1.tiling_plan.all_fit_single_tile or bio1.tiling_plan.total_tiles <= len(
        bio1.tiling_plan.layers
    ) + 2
    assert not tcn.tiling_plan.all_fit_single_tile
    # The generated C bundle is complete for every row.
    for deployment in reports.values():
        assert set(deployment.sources) == {"weights.h", "kernels.h", "network.h", "network.c"}


@pytest.mark.benchmark(group="deploy")
def test_int8_engine_matches_float_predictions(benchmark):
    """Integer-only inference agrees with float inference on the same graph
    (the qualification step before trusting the generated kernels)."""
    rng = np.random.default_rng(1)

    def run():
        model = bioformer_bio1(patch_size=10).eval()
        graph = trace_model(model)
        from repro.deploy import IntegerGraphExecutor, lower_to_int8

        quantized = lower_to_int8(graph, rng.normal(size=(8, 14, 300)))
        executor = IntegerGraphExecutor(quantized)
        return executor.agreement_with_float(rng.normal(size=(16, 14, 300)))

    agreement = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "int8 vs fp32 prediction agreement (Bio1, filter 10, paper geometry)",
        f"agreement on 16 random windows: {100 * agreement:.1f}%",
    )
    assert agreement >= 0.75


@pytest.mark.benchmark(group="deploy")
def test_l1_tiling_pressure(benchmark):
    """Ablation: shrinking L1 forces tiling and increases DMA traffic."""
    from repro.deploy import TilingConfig

    graph = trace_model(temponet().eval())

    def run():
        return {
            "full": plan_tiling(graph, TilingConfig(l1_bytes=56 * 1024)),
            "quarter": plan_tiling(graph, TilingConfig(l1_bytes=14 * 1024)),
            "tiny": plan_tiling(graph, TilingConfig(l1_bytes=4 * 1024)),
        }

    plans = benchmark(run)
    rows = [
        (name, plan.total_tiles, f"{plan.total_dma_bytes / 1024:.1f} kB")
        for name, plan in plans.items()
    ]
    report(
        "L1 tiling ablation (TEMPONet, paper geometry)",
        format_table(("L1 budget", "tiles", "DMA traffic"), rows),
    )
    assert plans["tiny"].total_tiles >= plans["quarter"].total_tiles >= plans["full"].total_tiles
    assert plans["tiny"].total_dma_bytes >= plans["full"].total_dma_bytes
