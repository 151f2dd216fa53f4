"""Tests for activation-memory planning and L1 tiling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import (
    TilingConfig,
    live_ranges,
    plan_activation_memory,
    plan_tiling,
    trace_model,
)
from repro.hw.gap8 import GAP8Config
from repro.models import Bioformer, BioformerConfig, bioformer_bio1, temponet


def small_bioformer(**overrides):
    config = BioformerConfig(
        num_channels=4, window_samples=60, patch_size=10, depth=1, num_heads=2, seed=21, **overrides
    )
    return Bioformer(config).eval()


@pytest.fixture(scope="module")
def bioformer_graph():
    return trace_model(small_bioformer())


@pytest.fixture(scope="module")
def temponet_graph():
    return trace_model(temponet(num_channels=4, window_samples=80, seed=21).eval())


# --------------------------------------------------------------------- #
# Liveness analysis
# --------------------------------------------------------------------- #
class TestLiveness:
    def test_every_tensor_has_a_range(self, bioformer_graph):
        ranges = live_ranges(bioformer_graph)
        assert set(ranges) == set(bioformer_graph.tensor_specs())

    def test_ranges_are_well_formed(self, bioformer_graph):
        for live in live_ranges(bioformer_graph).values():
            assert live.start <= live.end
            assert live.size_bytes > 0

    def test_graph_input_starts_before_first_node(self, bioformer_graph):
        ranges = live_ranges(bioformer_graph)
        assert ranges[bioformer_graph.graph_input.name].start == -1

    def test_output_lives_until_the_end(self, bioformer_graph):
        ranges = live_ranges(bioformer_graph)
        assert ranges["logits"].end == len(bioformer_graph) - 1

    def test_residual_input_lives_across_the_block(self, bioformer_graph):
        # The block input feeds the residual add at the end of the attention
        # sub-block, so its lifetime must span the whole attention section.
        ranges = live_ranges(bioformer_graph)
        embedded = ranges["add_positional"]
        residual_index = [
            index for index, node in enumerate(bioformer_graph) if node.name == "blocks.0.add"
        ][0]
        assert embedded.end >= residual_index

    def test_overlap_predicate(self, bioformer_graph):
        ranges = live_ranges(bioformer_graph)
        names = list(ranges)
        assert ranges[names[0]].overlaps(ranges[names[0]])


# --------------------------------------------------------------------- #
# Arena packing
# --------------------------------------------------------------------- #
class TestMemoryPlan:
    def _assert_no_conflicts(self, plan):
        for first in plan.assignments:
            for second in plan.assignments:
                if first.name >= second.name:
                    continue
                if not plan.ranges[first.name].overlaps(plan.ranges[second.name]):
                    continue
                disjoint = (
                    first.end_offset <= second.offset or second.end_offset <= first.offset
                )
                assert disjoint, f"{first.name} and {second.name} overlap in time and space"

    def test_no_overlapping_live_buffers_bioformer(self, bioformer_graph):
        self._assert_no_conflicts(plan_activation_memory(bioformer_graph))

    def test_no_overlapping_live_buffers_temponet(self, temponet_graph):
        self._assert_no_conflicts(plan_activation_memory(temponet_graph))

    def test_peak_below_naive_total(self, temponet_graph):
        plan = plan_activation_memory(temponet_graph)
        assert plan.peak_bytes < plan.naive_bytes
        assert plan.reuse_factor > 1.5

    def test_peak_at_least_largest_tensor(self, bioformer_graph):
        plan = plan_activation_memory(bioformer_graph)
        assert plan.peak_bytes >= bioformer_graph.largest_activation().num_elements

    def test_paper_scale_bioformer_fits_l2_with_weights(self):
        model = bioformer_bio1(patch_size=10).eval()
        graph = trace_model(model)
        plan = plan_activation_memory(graph)
        weights = graph.weight_bytes(bits_per_weight=8)
        assert plan.fits(GAP8Config().l2_bytes, weight_bytes=weights)

    def test_offset_lookup_and_summary(self, bioformer_graph):
        plan = plan_activation_memory(bioformer_graph)
        assert plan.offset_of("logits") >= 0
        with pytest.raises(KeyError):
            plan.offset_of("not_a_tensor")
        summary = plan.summary()
        assert "peak" in summary and "logits" in summary

    def test_bytes_per_element_scales_plan(self, bioformer_graph):
        int8_plan = plan_activation_memory(bioformer_graph, bytes_per_element=1)
        int32_plan = plan_activation_memory(bioformer_graph, bytes_per_element=4)
        assert int32_plan.peak_bytes == pytest.approx(4 * int8_plan.peak_bytes, rel=0.01)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_packing_invariant_over_architectures(self, heads, depth):
        model = Bioformer(
            BioformerConfig(
                num_channels=2, window_samples=40, patch_size=10, depth=depth, num_heads=heads, seed=1
            )
        ).eval()
        graph = trace_model(model)
        plan = plan_activation_memory(graph)
        self._assert_no_conflicts(plan)
        assert plan.peak_bytes >= graph.largest_activation().num_elements


# --------------------------------------------------------------------- #
# L1 tiling
# --------------------------------------------------------------------- #
class TestTiling:
    def test_every_mac_kernel_is_tiled(self, temponet_graph):
        plan = plan_tiling(temponet_graph)
        mac_nodes = [node for node in temponet_graph if node.op in ("conv1d", "linear", "matmul")]
        assert len(plan.layers) == len(mac_nodes)

    def test_tiles_fit_budget(self, temponet_graph):
        config = TilingConfig()
        plan = plan_tiling(temponet_graph, config)
        for layer in plan.layers:
            assert layer.tile_bytes <= config.tile_budget

    def test_small_bioformer_is_single_tile(self, bioformer_graph):
        plan = plan_tiling(bioformer_graph)
        assert plan.all_fit_single_tile
        assert plan.total_tiles == len(plan.layers)

    def test_paper_bioformer_is_mostly_single_tile(self):
        graph = trace_model(bioformer_bio1(patch_size=10).eval())
        plan = plan_tiling(graph)
        single = sum(1 for layer in plan.layers if layer.single_tile)
        assert single >= len(plan.layers) - 2

    def test_tiny_l1_forces_tiling(self, bioformer_graph):
        tiny = TilingConfig(l1_bytes=4 * 1024)
        plan = plan_tiling(bioformer_graph, tiny)
        assert not plan.all_fit_single_tile
        for layer in plan.layers:
            assert layer.tile_bytes <= tiny.tile_budget

    def test_more_tiles_means_more_dma_for_weight_heavy_layers(self):
        graph = trace_model(temponet(num_channels=14, window_samples=300).eval())
        generous = plan_tiling(graph, TilingConfig(l1_bytes=256 * 1024))
        constrained = plan_tiling(graph, TilingConfig(l1_bytes=8 * 1024))
        assert constrained.total_dma_bytes >= generous.total_dma_bytes

    def test_dma_and_compute_cycles_positive(self, temponet_graph):
        config = TilingConfig()
        plan = plan_tiling(temponet_graph, config)
        for layer in plan.layers:
            assert layer.dma_cycles(config) > 0
            assert layer.compute_cycles(config) > 0
            assert layer.bottleneck(config) in ("compute", "dma")

    def test_summary_lists_layers(self, temponet_graph):
        plan = plan_tiling(temponet_graph)
        summary = plan.summary()
        for layer in plan.layers[:3]:
            assert layer.name in summary

    def test_double_buffering_halves_budget(self):
        assert TilingConfig(l1_bytes=1000, double_buffering=True).tile_budget == 500
        assert TilingConfig(l1_bytes=1000, double_buffering=False).tile_budget == 1000
