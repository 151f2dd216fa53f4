"""Tests for the C code generator and the end-to-end deployment report."""

import os
import re

import numpy as np
import pytest

from repro.deploy import (
    CodeGenerator,
    LoweringConfig,
    deploy_graph,
    estimate_deployment,
    generate_c_sources,
    graph_to_profile,
    lower_to_int8,
    plan_activation_memory,
    trace_model,
)
from repro.hw.gap8 import GAP8Config, GAP8Model
from repro.models import Bioformer, BioformerConfig, bioformer_bio1, bioformer_bio2, temponet


def small_bioformer(**overrides):
    config = BioformerConfig(
        num_channels=4, window_samples=60, patch_size=10, depth=1, num_heads=2, seed=31, **overrides
    )
    return Bioformer(config).eval()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(123)


@pytest.fixture(scope="module")
def quantized_bioformer(rng):
    graph = trace_model(small_bioformer())
    return lower_to_int8(graph, rng.normal(size=(8, 4, 60)))


# --------------------------------------------------------------------- #
# Code generation
# --------------------------------------------------------------------- #
class TestCodegen:
    def test_bundle_contains_four_files(self, quantized_bioformer):
        sources = generate_c_sources(quantized_bioformer)
        assert set(sources) == {"weights.h", "kernels.h", "network.h", "network.c"}

    def test_every_node_emitted_in_schedule(self, quantized_bioformer):
        network = generate_c_sources(quantized_bioformer)["network.c"].content
        for node in quantized_bioformer.graph:
            assert node.name in network

    def test_weight_arrays_match_constant_sizes(self, quantized_bioformer):
        weights = generate_c_sources(quantized_bioformer)["weights.h"].content
        for node_name, lowered in quantized_bioformer.nodes.items():
            for role, constant in lowered.constants.items():
                identifier = f"{node_name.replace('.', '_')}_{role}"
                match = re.search(rf"{identifier}\[(\d+)\]", weights)
                assert match is not None, f"missing array {identifier}"
                assert int(match.group(1)) == constant.values.size

    def test_requantizer_macros_emitted(self, quantized_bioformer):
        weights = generate_c_sources(quantized_bioformer)["weights.h"].content
        assert "_MULTIPLIER" in weights and "_SHIFT" in weights

    def test_network_header_macros(self, quantized_bioformer):
        header = generate_c_sources(quantized_bioformer)["network.h"].content
        graph = quantized_bioformer.graph
        assert f"#define NETWORK_INPUT_SIZE {graph.graph_input.num_elements}" in header
        assert f"#define NETWORK_OUTPUT_SIZE {graph.output.num_elements}" in header
        assert "NETWORK_ARENA_BYTES" in header
        assert "void network_run(" in header

    def test_arena_size_matches_memory_plan(self, quantized_bioformer):
        plan = plan_activation_memory(quantized_bioformer.graph)
        header = CodeGenerator(quantized_bioformer, plan).network_header().content
        assert f"#define NETWORK_ARENA_BYTES {plan.peak_bytes}" in header

    def test_schedule_uses_input_output_and_arena(self, quantized_bioformer):
        network = generate_c_sources(quantized_bioformer)["network.c"].content
        assert "(const int8_t *)(input)" in network
        assert "(int8_t *)(output)" in network
        assert "arena + " in network

    def test_kernel_prototypes_cover_schedule(self, quantized_bioformer):
        sources = generate_c_sources(quantized_bioformer)
        kernels = sources["kernels.h"].content
        network = sources["network.c"].content
        called = set(re.findall(r"(net_\w+)\(\(const", network))
        declared = set(re.findall(r"void (net_\w+)\(", kernels))
        assert called == declared

    def test_write_bundle_to_directory(self, quantized_bioformer, tmp_path):
        written = CodeGenerator(quantized_bioformer).write(str(tmp_path))
        assert len(written) == 4
        for path in written:
            assert os.path.exists(path)
            assert os.path.getsize(path) > 0

    def test_temponet_codegen(self, rng):
        model = temponet(num_channels=4, window_samples=80, seed=31).eval()
        quantized = lower_to_int8(trace_model(model), rng.normal(size=(4, 4, 80)))
        sources = generate_c_sources(quantized)
        # The schedule routes MAC nodes through the im2col/GEMM kernels,
        # with each batch-norm affine folded into its conv, and publishes
        # the tile geometry macros.
        assert "net_conv1d_im2col_affine_relu_i8(" in sources["network.c"].content
        assert "net_channel_affine_i8" not in sources["network.c"].content
        assert "_GEMM_M" in sources["weights.h"].content


# --------------------------------------------------------------------- #
# graph -> ModelProfile adapter
# --------------------------------------------------------------------- #
class TestGraphProfileAdapter:
    def test_macs_preserved(self):
        graph = trace_model(bioformer_bio1(patch_size=10).eval())
        profile = graph_to_profile(graph)
        assert profile.total_macs == graph.total_macs

    def test_shape_only_nodes_skipped(self):
        graph = trace_model(small_bioformer())
        profile = graph_to_profile(graph)
        shape_only = [node for node in graph if node.is_shape_only]
        assert {"split_heads", "merge_heads", "transpose"} <= {node.op for node in shape_only}
        kept = [node.name for node in graph if not node.is_shape_only]
        assert [layer.name for layer in profile.layers] == kept

    def test_traced_profile_close_to_analytical(self):
        """Bio1 (filter 10) keeps the Table I counts: 3.30 MMAC, 94.92 kB."""
        config = BioformerConfig(patch_size=10, depth=1, num_heads=8)
        traced = graph_to_profile(trace_model(Bioformer(config).eval()))
        assert traced.total_macs == 3_300_864
        assert traced.total_params == 94_920

    @pytest.mark.parametrize("build,heads", [(bioformer_bio1, 8), (bioformer_bio2, 2)])
    def test_projections_into_heads_run_one_head_per_core(self, build, heads):
        """q/k/v projections and attention matmuls spread over the heads;
        every other MAC layer can use the whole cluster."""
        graph = trace_model(build(patch_size=10))
        profile = graph_to_profile(graph)
        units = {layer.name: layer.parallel_units for layer in profile.layers if layer.macs}
        projections = {
            name for name in units
            if name.endswith(("query_projection", "key_projection", "value_projection"))
        }
        assert len(projections) == 3 * build(patch_size=10).config.depth
        for name, parallel_units in units.items():
            expected = heads if name in projections or graph.node(name).op == "matmul" else 0
            assert parallel_units == expected, name

    def test_latency_estimate_runs_on_traced_profile(self):
        graph = trace_model(small_bioformer())
        breakdown = GAP8Model(GAP8Config()).latency(graph_to_profile(graph))
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
        assert set(report.sources) == {"weights.h", "kernels.h", "network.h", "network.c"}

    def test_render_mentions_key_quantities(self, rng):
        model = small_bioformer()
        report = deploy_graph(model, rng.normal(size=(8, 4, 60)), generate_code=False)
        text = report.render()
        for keyword in ("weights", "latency", "energy", "MMAC", "L2"):
            assert keyword in text

    def test_without_evaluation_no_accuracy(self, rng):
        report = deploy_graph(small_bioformer(), rng.normal(size=(8, 4, 60)), generate_code=False)
        assert report.int8_accuracy is None
        assert report.float_agreement is None

    def test_without_period_no_battery(self, rng):
        report = deploy_graph(
            small_bioformer(),
            rng.normal(size=(8, 4, 60)),
            inference_period_s=None,
            generate_code=False,
        )
        assert report.duty_cycle is None

    def test_paper_scale_bio1_headline_numbers(self, rng):
        """Bio1 (f=10) must reproduce the shape of the paper's Table I row:
        ~94 kB of weights, ~3.3 MMAC, a few ms of latency, well inside L2."""
        model = bioformer_bio1(patch_size=10).eval()
        report = deploy_graph(model, rng.normal(size=(2, 14, 300)), generate_code=False)
        assert 85.0 <= report.weight_kilobytes <= 110.0
        assert 2.5 <= report.mmacs <= 4.5
        assert report.fits_l2
        assert report.latency_ms < 10.0

    def test_temponet_is_heavier_than_bioformer(self, rng):
        bio_report = deploy_graph(
            bioformer_bio1(patch_size=10).eval(),
            rng.normal(size=(2, 14, 300)),
            generate_code=False,
        )
        tcn_report = deploy_graph(
            temponet().eval(), rng.normal(size=(2, 14, 300)), generate_code=False
        )
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
        report = deploy_graph(model, calibration, generate_code=False)
        expected = estimate_deployment(trace_model(model))
        assert len(report.graph) < len(report.quantized.source_graph)
        assert report.latency_ms == expected.latency_ms
        assert report.energy_mj == expected.energy_mj
        assert report.duty_cycle == expected.duty_cycle

    def test_config_is_the_lowering_that_runs(self, rng):
        """``deploy_graph(config=...)`` must not be overridden by defaults."""
        config = LoweringConfig(activation_bits=6)
        report = deploy_graph(
            small_bioformer(), rng.normal(size=(8, 4, 60)), config=config, generate_code=False
        )
        assert report.quantized.config == config
        assert report.quantized.input_quantization.qmax == 31
        assert any(node.is_fused for node in report.graph.nodes)
