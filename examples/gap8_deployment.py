"""GAP8 deployment exploration — memory, latency, energy and battery life.

The deployment half of the paper: given a trained (or merely configured)
architecture, estimate what it costs to run on the GreenWaves GAP8
microcontroller at 100 MHz / 1 V, and how long an always-on gesture
recognition loop (one 150 ms window classified every 15 ms) lasts on a
small 1000 mAh battery.

This example regenerates the deployment columns of the paper's Table I,
prints the per-layer cycle breakdown of the most accurate Bioformer, and
sweeps the inference period to show how duty-cycling drives battery life.

Run with::

    python examples/gap8_deployment.py
"""

from repro.deploy import estimate_deployment, trace_model
from repro.experiments import render_table1, run_table1
from repro.hw import BatteryConfig, GAP8Config, battery_life_hours
from repro.models import bioformer_bio1


def main() -> None:
    # 1. The full Table I deployment columns (traced models, no training).
    result = run_table1(measure_accuracy=False)
    print(render_table1(result))
    print(
        f"\nheadline ratios vs TEMPONet: {result.energy_ratio():.1f}x energy, "
        f"{result.memory_ratio():.1f}x memory (paper: 8.0x and 4.9x)\n"
    )

    # 2. Where do the cycles go inside Bio1 (filter 10)?
    breakdown = estimate_deployment(trace_model(bioformer_bio1(patch_size=10))).latency
    print(f"per-layer breakdown of {breakdown.model_name} ({breakdown.latency_ms:.2f} ms total):")
    for cost in breakdown.dominant_layers(6):
        share = 100 * cost.cycles / breakdown.total_cycles
        print(f"  {cost.name:36s} {cost.kind:18s} {share:5.1f}% of cycles")
    print()

    # 3. Battery life vs how often a window is classified.
    print("battery life vs classification period (Bio1 filter 30, 1000 mAh):")
    latency_s = result.row("Bio1, wind=30").latency_ms * 1e-3
    for period_ms in (15, 50, 150, 500):
        report = battery_life_hours(latency_s, period_ms * 1e-3, GAP8Config(), BatteryConfig())
        print(
            f"  every {period_ms:4d} ms: average power {1e3 * report.average_power_w:6.2f} mW, "
            f"life {report.battery_life_hours:7.0f} h"
        )


if __name__ == "__main__":
    main()
