"""Ablation benchmark — class token vs mean pooling, and the filter 10 -> 20
energy trade-off called out in Sec. IV-B.

The paper motivates the dedicated class token (following ViT) as giving the
classifier a learnable query over the sequence; the alternative is mean
pooling of the token outputs.  The second ablation quantifies the paper's
claim that moving the front-end filter from 10 to 20 halves the energy for
a ~1.7% accuracy drop.
"""

import pytest

from conftest import report
from repro.data import subject_split
from repro.deploy import estimate_deployment, trace_model
from repro.experiments import build_architecture
from repro.models import BioformerConfig, build_model
from repro.models.bioformer import Bioformer
from repro.training import train_subject_specific
from repro.utils.tables import format_table


@pytest.mark.slow
@pytest.mark.benchmark(group="ablation")
def test_class_token_vs_mean_pooling(benchmark, small_context):
    """Train Bio1 with the class-token head and with mean pooling."""
    split = subject_split(small_context.dataset, 1, include_pretrain=False)
    window = small_context.window_samples

    def run():
        results = {}
        for pooling in ("class_token", "mean"):
            config = BioformerConfig(
                num_channels=small_context.num_channels,
                window_samples=window,
                num_classes=small_context.num_classes,
                patch_size=10,
                depth=1,
                num_heads=8,
                pooling=pooling,
                seed=1,
            )
            model = Bioformer(config)
            outcome = train_subject_specific(
                model, split, small_context.protocol, num_classes=small_context.num_classes
            )
            results[pooling] = outcome.test_accuracy
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Ablation — classification head (SMALL scale, Bio1, subject 1)",
        format_table(
            ["head", "test accuracy"],
            [[name, f"{100 * accuracy:.2f}%"] for name, accuracy in results.items()],
        ),
    )
    # Both heads must be functional classifiers; the class token (the paper's
    # choice) should not be substantially worse than mean pooling.
    assert all(accuracy > 0.25 for accuracy in results.values())
    assert results["class_token"] >= results["mean"] - 0.10


@pytest.mark.benchmark(group="ablation")
def test_filter_energy_tradeoff(benchmark):
    """Sec. IV-B: filter 10 -> 20 halves energy; filter 10 -> 30 saves more."""

    def run():
        return {
            f: estimate_deployment(trace_model(build_model("bio1", patch_size=f)))
            for f in (10, 20, 30)
        }

    records = benchmark(run)
    rows = [
        [f"filter {f}", f"{r.mmacs:.2f}", f"{r.latency_ms:.2f} ms", f"{r.energy_mj:.3f} mJ"]
        for f, r in records.items()
    ]
    report(
        "Ablation — front-end filter vs deployment cost (paper geometry)",
        format_table(["config", "MMAC", "latency", "energy"], rows),
    )
    energy_ratio = records[10].energy_mj / records[20].energy_mj
    print(f"energy reduction filter 10 -> 20: {energy_ratio:.2f}x (paper: ~2x)")
    assert 1.6 < energy_ratio < 2.4
    assert records[30].energy_mj < records[20].energy_mj < records[10].energy_mj
