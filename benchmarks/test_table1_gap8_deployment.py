"""Benchmark regenerating Table I — quantised architectures deployed on GAP8.

Paper rows (memory / MMAC / latency / energy / int8 accuracy):

    Bio1, wind=30   110.8 kB  1.2   1.03 ms  0.052 mJ  61.09%
    Bio1, wind=20   102.1 kB  1.7   1.37 ms  0.070 mJ  63.14%
    Bio1, wind=10    94.2 kB  3.3   2.72 ms  0.139 mJ  64.69%
    Bio2, wind=30    92.2 kB  1.0   1.55 ms  0.079 mJ  60.19%
    Bio2, wind=10    78.3 kB  2.5   4.82 ms  0.246 mJ  62.43%
    TEMPONet        461   kB 16.0  21.82 ms  1.11  mJ  61.00%

plus the battery-life projection (~257 h for the fastest Bioformer vs ~54 h
for TEMPONet on a 1000 mAh battery).
"""

import pytest

from conftest import report
from repro.experiments import render_table1, run_table1


@pytest.mark.benchmark(group="table1")
def test_table1_deployment_columns(benchmark):
    """Memory / MMAC / latency / energy / battery columns for all six rows
    (GAP8 estimate of the traced models at paper geometry — milliseconds to
    compute)."""
    result = benchmark(run_table1, measure_accuracy=False)
    report("Table I — GAP8 deployment columns (paper geometry)", render_table1(result))
    print(
        f"energy ratio TEMPONet / Bio1(f=10): {result.energy_ratio():.1f}x (paper: 8.0x); "
        f"memory ratio: {result.memory_ratio():.1f}x (paper: 4.9x)"
    )

    bio1 = result.row("Bio1, wind=10")
    temponet = result.row("TEMPONet")
    assert bio1.memory_kb == pytest.approx(94.2, rel=0.05)
    assert bio1.latency_ms == pytest.approx(2.72, rel=0.15)
    assert bio1.energy_mj == pytest.approx(0.139, rel=0.15)
    assert temponet.memory_kb == pytest.approx(461, rel=0.05)
    assert not temponet.real_time
    assert result.energy_ratio() > 6.0
    assert 4.0 < result.memory_ratio() < 6.0
    # Battery life: fastest Bioformer ~5x the TEMPONet lifetime (paper: 4.77x).
    fastest = result.row("Bio1, wind=30")
    assert fastest.battery_life_hours / temponet.battery_life_hours > 3.5


@pytest.mark.slow
@pytest.mark.benchmark(group="table1")
def test_table1_quantized_accuracy(benchmark, small_context):
    """The accuracy column: train + QAT the two headline rows (Bio1 filter 10
    and TEMPONet) on the SMALL-scale surrogate and score them on the int8
    executor."""

    def run():
        return run_table1(
            small_context,
            configurations=(
                ("Bio1, wind=10", "bio1", 10),
                ("TEMPONet", "temponet", 0),
            ),
            measure_accuracy=True,
            subject=1,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Table I — quantised accuracy (SMALL scale, subject 1)", render_table1(result))

    for row in result.rows:
        assert row.quantized_accuracy is not None
        # int8 deployment costs only a few accuracy points vs float
        # (paper: ~1%; we allow more slack at the reduced scale).
        assert row.quantized_accuracy >= row.float_accuracy - 0.12
        assert row.quantized_accuracy > 1.5 / 8  # well above chance
