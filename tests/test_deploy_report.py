"""Tests for the GAP8 cost of a traced graph and the end-to-end deployment report."""

import numpy as np
import pytest

from repro.deploy import (
    LoweringConfig,
    deploy_graph,
    estimate_deployment,
    plan_tiling,
    trace_model,
)
from repro.deploy.lowering import QMAX
from repro.hw.gap8 import GAP8Config, GAP8Model, parallel_units
from repro.models import Bioformer, BioformerConfig, bioformer_bio1, bioformer_bio2, temponet


def small_bioformer(**overrides):
    config = BioformerConfig(
        num_channels=4, window_samples=60, patch_size=10, depth=1, num_heads=2, seed=31, **overrides
    )
    return Bioformer(config).eval()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(123)


# --------------------------------------------------------------------- #
# GAP8 cost of a graph
# --------------------------------------------------------------------- #
class TestGraphCost:
    def test_macs_preserved(self):
        graph = trace_model(bioformer_bio1(patch_size=10).eval())
        costs = GAP8Model().latency(graph).layer_costs
        assert sum(cost.macs for cost in costs) == graph.total_macs
        assert estimate_deployment(graph).mmacs == graph.total_macs / 1e6

    def test_shape_only_nodes_skipped(self):
        graph = trace_model(small_bioformer())
        costs = GAP8Model().latency(graph).layer_costs
        shape_only = [node for node in graph if node.is_shape_only]
        assert {"split_heads", "merge_heads", "transpose"} <= {node.op for node in shape_only}
        kept = [node.name for node in graph if not node.is_shape_only]
        assert [cost.name for cost in costs] == kept

    def test_traced_totals_close_to_analytical(self):
        """Bio1 (filter 10) keeps the Table I counts: 3.30 MMAC, 94.92 kB."""
        config = BioformerConfig(patch_size=10, depth=1, num_heads=8)
        traced = trace_model(Bioformer(config).eval())
        assert traced.total_macs == 3_300_864
        assert traced.total_weight_elements == 94_920

    @pytest.mark.parametrize("build,heads", [(bioformer_bio1, 8), (bioformer_bio2, 2)])
    def test_projections_into_heads_run_one_head_per_core(self, build, heads):
        """q/k/v projections and attention matmuls spread over the heads;
        every other MAC layer can use the whole cluster."""
        graph = trace_model(build(patch_size=10))
        units = {node.name: parallel_units(node, graph) for node in graph if node.macs}
        projections = {
            name for name in units
            if name.endswith(("query_projection", "key_projection", "value_projection"))
        }
        assert len(projections) == 3 * build(patch_size=10).config.depth
        for name, count in units.items():
            expected = heads if name in projections or graph.node(name).op == "matmul" else 0
            assert count == expected, name

    def test_latency_estimate_runs_on_traced_graph(self):
        graph = trace_model(small_bioformer())
        breakdown = GAP8Model(GAP8Config()).latency(graph)
        assert breakdown.latency_ms > 0
        assert breakdown.energy_mj > 0
        estimate = estimate_deployment(graph)
        assert estimate.latency_ms == breakdown.latency_ms
        assert estimate.memory_kilobytes == graph.total_weight_elements / 1e3


# --------------------------------------------------------------------- #
# End-to-end deployment report
# --------------------------------------------------------------------- #
class TestDeployGraph:
    def test_full_pipeline_small_model(self, rng):
        model = small_bioformer()
        calibration = rng.normal(size=(16, 4, 60))
        evaluation = rng.normal(size=(20, 4, 60))
        labels = rng.integers(0, 8, size=20)
        report = deploy_graph(model, calibration, evaluation, labels)
        assert report.fits_l2
        assert report.weight_kilobytes > 0
        assert report.latency_ms > 0
        assert 0.0 <= report.int8_accuracy <= 1.0
        assert 0.0 <= report.float_agreement <= 1.0
        assert report.duty_cycle is not None

    def test_render_mentions_key_quantities(self, rng):
        model = small_bioformer()
        report = deploy_graph(model, rng.normal(size=(8, 4, 60)))
        text = report.render()
        for keyword in ("weights", "latency", "energy", "MMAC", "L2"):
            assert keyword in text

    def test_without_evaluation_no_accuracy(self, rng):
        report = deploy_graph(small_bioformer(), rng.normal(size=(8, 4, 60)))
        assert report.int8_accuracy is None
        assert report.float_agreement is None

    def test_without_period_no_battery(self, rng):
        report = deploy_graph(
            small_bioformer(),
            rng.normal(size=(8, 4, 60)),
            inference_period_s=None,
        )
        assert report.duty_cycle is None

    def test_paper_scale_bio1_headline_numbers(self, rng):
        """Bio1 (f=10) must reproduce the shape of the paper's Table I row:
        ~94 kB of weights, ~3.3 MMAC, a few ms of latency, well inside L2."""
        model = bioformer_bio1(patch_size=10).eval()
        report = deploy_graph(model, rng.normal(size=(2, 14, 300)))
        assert 85.0 <= report.weight_kilobytes <= 110.0
        assert 2.5 <= report.mmacs <= 4.5
        assert report.fits_l2
        assert report.latency_ms < 10.0

    def test_temponet_is_heavier_than_bioformer(self, rng):
        bio_report = deploy_graph(
            bioformer_bio1(patch_size=10).eval(),
            rng.normal(size=(2, 14, 300)),
        )
        tcn_report = deploy_graph(temponet().eval(), rng.normal(size=(2, 14, 300)))
        assert tcn_report.weight_kilobytes > 3.0 * bio_report.weight_kilobytes
        assert tcn_report.mmacs > 3.0 * bio_report.mmacs
        assert tcn_report.energy_mj > bio_report.energy_mj

    @pytest.mark.parametrize(
        "factory", [bioformer_bio1, bioformer_bio2, temponet], ids=["bio1", "bio2", "temponet"]
    )
    def test_gap8_estimate_is_the_traced_graphs(self, factory):
        """Latency and energy come from the trace, not the fused schedule, so
        they equal ``estimate_deployment(trace_model(model))`` exactly."""
        model = factory().eval()
        calibration = np.random.default_rng(7).normal(size=(2, 14, 300))
        report = deploy_graph(model, calibration)
        expected = estimate_deployment(trace_model(model))
        assert len(report.graph) < len(report.quantized.source_graph)
        assert report.latency_ms == expected.latency_ms
        assert report.energy_mj == expected.energy_mj
        assert report.duty_cycle == expected.duty_cycle

    def test_config_is_the_lowering_that_runs(self, rng):
        """``deploy_graph(config=...)`` must not be overridden by defaults."""
        config = LoweringConfig(calibration_percentile=100.0)
        calibration = rng.normal(size=(8, 4, 60))
        report = deploy_graph(small_bioformer(), calibration, config=config)
        assert report.quantized.config == config
        # The absmax input scale covers the largest calibration sample.
        assert report.quantized.input_quantization.scale == np.abs(calibration).max() / QMAX
        assert any(node.is_fused for node in report.graph.nodes)

    def test_gap8_is_the_tilers_target(self, rng):
        """``deploy_graph(gap8=...)`` tiles the executable graph on that target."""
        gap8 = GAP8Config(l1_bytes=16 * 1024)
        model = bioformer_bio1(patch_size=10).eval()
        calibration = rng.normal(size=(2, 14, 300))
        report = deploy_graph(model, calibration, gap8=gap8)
        assert report.tiling_plan == plan_tiling(report.graph, gap8)
        assert report.tiling_plan.total_tiles > plan_tiling(report.graph).total_tiles
