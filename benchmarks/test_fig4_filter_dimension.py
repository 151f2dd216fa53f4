"""Benchmark regenerating Fig. 4 — accuracy vs front-end filter dimension.

Paper: filter dimension 10 is the sweet spot for most models; pushing to 20
or 30 costs some accuracy but roughly halves the operation count (the
deployment trade-off of Table I).  Filter 1 (a per-sample linear embedding)
is both the most expensive and not the most accurate — the motivation for
the 1-D convolutional front-end.
"""

import pytest

pytestmark = pytest.mark.slow  # long-horizon training; excluded from tier-1

from conftest import report
from repro.experiments import render_figure4, run_figure4, scaled_filter_dimensions
from repro.deploy import trace_model
from repro.models import build_model


@pytest.mark.benchmark(group="fig4")
def test_fig4_filter_dimension(benchmark, small_context):
    """Sweep the filter dimension for Bio1 with both protocols (1 subject)."""
    filters = [f for f in scaled_filter_dimensions(small_context) if f >= 5]

    def run():
        return run_figure4(
            small_context,
            variants=("bio1",),
            protocols=(False, True),
            subjects=[1],
            filter_dimensions=filters,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Fig. 4 — accuracy vs filter dimension (SMALL scale, Bio1, subject 1)", render_figure4(result))

    # Complexity falls roughly linearly with the filter dimension (the other
    # half of the paper's trade-off), independent of training.
    macs = {
        f: trace_model(build_model("bio1", patch_size=f)).total_macs
        for f in (10, 20)
    }
    ratio = macs[10] / macs[20]
    print(f"MAC reduction from filter 10 -> 20: {ratio:.2f}x (paper: 1.93x)")
    assert 1.5 < ratio < 2.5

    # Accuracy at the best filter beats the largest filter on the pre-trained
    # series (the paper's accuracy-vs-cost trade-off exists).
    series = result.accuracy[("bio1", True)]
    assert max(series.values()) >= series[max(series)] - 0.02
