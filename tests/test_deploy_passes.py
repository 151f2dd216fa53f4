"""The deploy compiler: pass pipeline, fusion passes, and their bitwise pins.

The compiler contract has two halves:

1. **Mechanics** — every pass is pure, the manager re-validates the graph
   after each pass, the manifest records what ran, and the hardened
   ``ComputeGraph.validate`` rejects duplicate node names and dangling
   inputs at the pass boundary.
2. **Numerics** — every pass, and every ordering of the optimization
   passes, keeps executor logits *bitwise equal* (``assert_array_equal``,
   never a tolerance) across all registry configs, while the fusion passes
   strictly shrink the node schedule.
"""

import itertools
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from repro.deploy import (
    CodeGenerator,
    FloatGraphExecutor,
    IntegerGraphExecutor,
    deploy_graph,
    lower_to_int8,
    trace_model,
)
from repro.deploy.graph import ComputeGraph, GraphNode, TensorSpec
from repro.deploy.lowering import QuantizedNode
from repro.deploy.memory import live_ranges, plan_activation_memory
from repro.deploy.passes import (
    DeadNodeEliminationPass,
    FoldRequantPass,
    FuseConvPoolPass,
    GraphPass,
    LoweringConfig,
    LoweringState,
    PassManager,
    PassPipelineError,
    build_pass_pipeline,
    compile_graph,
)
from repro.models import build_model
from repro.serve import BackendCache, InferenceServer, build_int8_backend

GEOMETRY = dict(num_channels=4, window_samples=60, seed=11)

#: Every registry-reachable (architecture, patch_size) pair.
CONFIGS = [
    ("bio1", 10),
    ("bio1", 20),
    ("bio2", 10),
    ("bio2", 20),
    ("temponet", None),
]

BASE_PASSES = [
    "calibrate-activations",
    "quantize-weights",
    "plan-gemm-tiles",
    "lut-substitution",
]
OPTIMIZATION_PASSES = ["fold-requant", "fuse-conv-pool", "dead-node-elimination"]
OPTIMIZED = LoweringConfig(optimize=True)


def config_id(config):
    arch, patch = config
    return arch if patch is None else f"{arch}-p{patch}"


def make_model(arch, patch=10):
    kwargs = dict(GEOMETRY)
    if arch != "temponet":
        kwargs["patch_size"] = patch
    return build_model(arch, **kwargs).eval()


@pytest.fixture(scope="module")
def calibration():
    return np.random.default_rng(5).normal(size=(16, 4, 60))


@pytest.fixture(scope="module")
def windows():
    return np.random.default_rng(29).normal(size=(5, 4, 60))


@pytest.fixture(scope="module", params=CONFIGS, ids=config_id)
def traced(request):
    arch, patch = request.param
    return trace_model(make_model(arch, patch))


@pytest.fixture(scope="module")
def lowered_pair(traced, calibration):
    """(default, optimized) lowering of one config."""
    default = lower_to_int8(traced, calibration)
    optimized = lower_to_int8(traced, calibration, OPTIMIZED)
    return default, optimized


# --------------------------------------------------------------------- #
# Small hand-built graphs for mechanics tests
# --------------------------------------------------------------------- #
def relu_node(name, source, out_name, shape=(4, 8)):
    return GraphNode(
        name=name,
        op="relu",
        inputs=[source],
        output=TensorSpec(name=out_name, shape=shape),
    )


def tiny_graph(nodes):
    return ComputeGraph("tiny", TensorSpec(name="input", shape=(4, 8)), nodes)


def tiny_state(graph):
    return LoweringState(
        graph=graph,
        config=LoweringConfig(),
        calibration=np.zeros((1, 4, 8)),
        source_graph=graph,
        nodes={node.name: QuantizedNode(node=node) for node in graph.nodes},
    )


# --------------------------------------------------------------------- #
# LoweringConfig, the one spelling of a lowering
# --------------------------------------------------------------------- #
class TestLoweringConfig:
    def test_defaults_match_legacy_signature(self):
        config = LoweringConfig()
        assert [field.name for field in fields(config)] == [
            "weight_bits",
            "activation_bits",
            "calibration_percentile",
            "optimize",
        ]
        assert config.weight_bits == 8
        assert config.activation_bits == 8
        assert config.calibration_percentile == 99.9
        assert config.optimize is False

    def test_config_is_frozen_and_hashed_by_value(self):
        """The serving tier keys its backend cache on the config itself."""
        config = LoweringConfig(optimize=True)
        with pytest.raises(FrozenInstanceError):
            config.optimize = False
        assert config == OPTIMIZED and hash(config) == hash(OPTIMIZED)
        assert config != LoweringConfig()

    @pytest.mark.parametrize(
        "entry_point",
        ["lower_to_int8", "build_int8_backend", "deploy_graph", "InferenceServer"],
    )
    def test_entry_points_take_only_the_config(self, calibration, entry_point):
        """The deleted kwarg aliases are rejected by every entry point."""
        calls = {
            "lower_to_int8": lambda: lower_to_int8(
                trace_model(make_model("temponet")), calibration, optimize=True
            ),
            "build_int8_backend": lambda: build_int8_backend(
                make_model("temponet"), calibration, weight_bits=6
            ),
            "deploy_graph": lambda: deploy_graph(
                make_model("temponet"), calibration, activation_bits=6
            ),
            "InferenceServer": lambda: InferenceServer(
                "temponet",
                "int8",
                model_kwargs=GEOMETRY,
                calibration=calibration,
                cache=BackendCache(),
                lower_kwargs={"optimize": True},
            ),
        }
        with pytest.raises(TypeError):
            calls[entry_point]()

    def test_lower_to_int8_accepts_config_object(self, calibration):
        graph = trace_model(make_model("temponet"))
        quantized = lower_to_int8(graph, calibration, config=LoweringConfig())
        assert quantized.config == LoweringConfig()


# --------------------------------------------------------------------- #
# ComputeGraph.validate hardening
# --------------------------------------------------------------------- #
class TestValidateHardening:
    def test_rejects_duplicate_node_names(self):
        nodes = [
            relu_node("a", "input", "t1"),
            relu_node("a", "t1", "t2"),
        ]
        with pytest.raises(ValueError, match="node name 'a' is used twice"):
            tiny_graph(nodes)

    def test_rejects_dangling_tensor_input(self):
        with pytest.raises(ValueError, match="undefined tensor 'ghost'"):
            tiny_graph([relu_node("a", "ghost", "t1")])

    def test_rejects_duplicate_output_tensor(self):
        nodes = [
            relu_node("a", "input", "t1"),
            relu_node("b", "input", "t1"),
        ]
        with pytest.raises(ValueError, match="defined twice"):
            tiny_graph(nodes)

    def test_accepts_valid_chain(self):
        graph = tiny_graph([relu_node("a", "input", "t1"), relu_node("b", "t1", "t2")])
        graph.validate()  # no raise


# --------------------------------------------------------------------- #
# PassManager mechanics
# --------------------------------------------------------------------- #
class _RenameToDuplicate(GraphPass):
    name = "rename-to-duplicate"

    def run(self, state):
        first = state.graph.nodes[0]
        clone = GraphNode(
            name=first.name,
            op="relu",
            inputs=[first.output.name],
            output=TensorSpec(name="dup_out", shape=first.output.shape),
        )
        nodes = list(state.graph.nodes) + [clone]
        graph = ComputeGraph.__new__(ComputeGraph)
        graph.name = state.graph.name
        graph.graph_input = state.graph.graph_input
        graph.nodes = nodes
        return replace(state, graph=graph)


class _MutateInPlace(GraphPass):
    name = "mutate-in-place"

    def run(self, state):
        state.graph.nodes.append(
            relu_node("sneaky", state.graph.output.name, "sneaky_out")
        )
        return state


class _ReturnGarbage(GraphPass):
    name = "return-garbage"

    def run(self, state):
        return state.graph


class _Exploding(GraphPass):
    name = "exploding"

    def run(self, state):
        raise KeyError("boom")


class TestPassManager:
    def test_validates_after_every_pass(self):
        state = tiny_state(tiny_graph([relu_node("a", "input", "t1")]))
        manager = PassManager([_RenameToDuplicate()])
        with pytest.raises(PassPipelineError, match="rename-to-duplicate.*invalid graph"):
            manager.run(state)

    def test_detects_in_place_mutation(self):
        state = tiny_state(tiny_graph([relu_node("a", "input", "t1")]))
        with pytest.raises(PassPipelineError, match="mutated its input graph"):
            PassManager([_MutateInPlace()]).run(state)

    def test_rejects_non_state_return(self):
        state = tiny_state(tiny_graph([relu_node("a", "input", "t1")]))
        with pytest.raises(PassPipelineError, match="return-garbage"):
            PassManager([_ReturnGarbage()]).run(state)

    def test_wraps_pass_failure_with_pass_name(self):
        state = tiny_state(tiny_graph([relu_node("a", "input", "t1")]))
        with pytest.raises(PassPipelineError, match="exploding.*failed"):
            PassManager([_Exploding()]).run(state)

    def test_manifest_records_every_pass(self, calibration):
        graph = trace_model(make_model("temponet"))
        manager = PassManager(build_pass_pipeline(OPTIMIZED))
        state = LoweringState(
            graph=graph, config=OPTIMIZED, calibration=calibration, source_graph=graph
        )
        manager.run(state)
        names = [record.name for record in manager.manifest]
        assert names == BASE_PASSES + OPTIMIZATION_PASSES
        for record in manager.manifest:
            assert record.wall_ms >= 0.0
            assert record.nodes_after <= record.nodes_before


# --------------------------------------------------------------------- #
# Golden pass manifests
# --------------------------------------------------------------------- #
class TestGoldenManifest:
    def test_default_manifest(self, calibration):
        graph = trace_model(make_model("bio1"))
        quantized = lower_to_int8(graph, calibration)
        assert [r.name for r in quantized.manifest] == BASE_PASSES

    def test_optimized_manifest_appends_fusion_passes(self, calibration):
        graph = trace_model(make_model("bio1"))
        quantized = lower_to_int8(graph, calibration, OPTIMIZED)
        assert [r.name for r in quantized.manifest] == BASE_PASSES + OPTIMIZATION_PASSES

    def test_node_counts_in_manifest_are_consistent(self, lowered_pair):
        _, optimized = lowered_pair
        records = optimized.manifest
        for earlier, later in zip(records, records[1:]):
            assert earlier.nodes_after == later.nodes_before
        assert records[-1].nodes_after == len(optimized.graph)

    def test_report_lists_executed_manifest(self, calibration):
        report = deploy_graph(
            make_model("temponet"), calibration, generate_code=False, config=OPTIMIZED
        )
        text = report.render()
        assert "compiler passes" in text
        for name in OPTIMIZATION_PASSES:
            assert name in text
        assert "fused from" in text


# --------------------------------------------------------------------- #
# Bitwise invariance of the optimization passes
# --------------------------------------------------------------------- #
@pytest.mark.slow  # full model matrix; tier-1 keeps the targeted pass tests
class TestPassInvariance:
    def test_optimized_logits_bitwise_equal(self, lowered_pair, windows):
        default, optimized = lowered_pair
        base, fused = IntegerGraphExecutor(default), IntegerGraphExecutor(optimized)
        np.testing.assert_array_equal(base.run_integer(windows), fused.run_integer(windows))
        np.testing.assert_array_equal(base.run(windows), fused.run(windows))

    def test_batched_equals_single(self, lowered_pair, windows):
        _, optimized = lowered_pair
        executor = IntegerGraphExecutor(optimized)
        batched = executor.run_integer(windows)
        singles = np.concatenate(
            [executor.run_integer(windows[i : i + 1]) for i in range(len(windows))]
        )
        np.testing.assert_array_equal(batched, singles)

    def test_float_executor_replays_fused_graph_identically(self, lowered_pair, windows):
        _, optimized = lowered_pair
        assert optimized.source_graph is not None
        reference = FloatGraphExecutor(optimized.source_graph).run(windows)
        fused = FloatGraphExecutor(optimized.graph).run(windows)
        np.testing.assert_array_equal(reference, fused)

    def test_agreement_with_float_runs_on_fused_graph(self, lowered_pair, windows):
        _, optimized = lowered_pair
        agreement = IntegerGraphExecutor(optimized).agreement_with_float(windows)
        assert 0.0 <= agreement <= 1.0


class TestPassOrdering:
    @pytest.mark.parametrize("arch", ["bio1", "temponet"])
    def test_every_optimization_order_is_bitwise_equal(self, arch, calibration, windows):
        graph = trace_model(make_model(arch))
        default = lower_to_int8(graph, calibration)
        expected = IntegerGraphExecutor(default).run_integer(windows)
        pass_types = [FoldRequantPass, FuseConvPoolPass, DeadNodeEliminationPass]
        for ordering in itertools.permutations(pass_types):
            quantized = compile_graph(
                graph,
                calibration,
                LoweringConfig(),
                extra_passes=[cls() for cls in ordering],
            )
            produced = IntegerGraphExecutor(quantized).run_integer(windows)
            np.testing.assert_array_equal(expected, produced)
            assert len(quantized.graph) < len(graph)


# --------------------------------------------------------------------- #
# What fusion actually does to the graph
# --------------------------------------------------------------------- #
class TestFusion:
    def test_fused_graphs_have_strictly_fewer_nodes(self, lowered_pair):
        default, optimized = lowered_pair
        assert len(optimized.graph) < len(default.graph)

    def test_accounting_is_preserved(self, lowered_pair):
        default, optimized = lowered_pair
        assert optimized.graph.total_macs == default.graph.total_macs
        assert (
            optimized.graph.total_weight_elements
            == default.graph.total_weight_elements
        )
        assert optimized.total_weight_bytes == default.total_weight_bytes
        assert optimized.total_lut_bytes == default.total_lut_bytes

    def test_fusion_shrinks_the_activation_working_set(self, lowered_pair):
        # The offset allocator is a greedy heuristic, so the *packed* peak
        # can wiggle either way; the allocator-independent claim is that
        # fusion removes intermediate buffers and never increases the
        # number of bytes simultaneously live at any schedule step.
        default, optimized = lowered_pair

        def liveness_peak(graph):
            ranges = live_ranges(graph).values()
            steps = range(-1, len(graph))
            return max(
                sum(r.size_bytes for r in ranges if r.start <= step <= r.end)
                for step in steps
            )

        assert len(plan_activation_memory(optimized.graph).assignments) < len(
            plan_activation_memory(default.graph).assignments
        )
        assert liveness_peak(optimized.graph) <= liveness_peak(default.graph)

    def test_temponet_collapses_to_fused_convs(self, calibration):
        graph = trace_model(make_model("temponet"))
        quantized = lower_to_int8(graph, calibration, OPTIMIZED)
        remaining_ops = {node.op for node in quantized.graph.nodes}
        # Every channel_affine / relu / avgpool1d is absorbed into its conv
        # (or the classifier linear); only the fused MACs and the flatten
        # survive in the schedule.
        assert remaining_ops <= {"conv1d", "linear", "flatten"}
        fused = [node for node in quantized.graph.nodes if node.is_fused]
        assert fused, "expected fused conv nodes"
        pooled = [
            node
            for node in fused
            if any(sub.op == "avgpool1d" for sub in node.fusion_chain)
        ]
        assert len(pooled) == 3  # one strided-conv+pool fusion per block

    def test_bioformer_folds_ffn_gelu(self, calibration):
        graph = trace_model(make_model("bio1"))
        quantized = lower_to_int8(graph, calibration, OPTIMIZED)
        assert all(node.op != "gelu" for node in quantized.graph.nodes)
        expand = quantized.graph.node("blocks.0.feedforward.expand")
        assert [sub.op for sub in expand.fusion_chain] == ["linear", "gelu"]

    def test_payloads_of_absorbed_nodes_survive(self, calibration):
        graph = trace_model(make_model("temponet"))
        quantized = lower_to_int8(graph, calibration, OPTIMIZED)
        for node in quantized.graph.nodes:
            for sub in node.fusion_chain:
                assert sub.name in quantized.nodes
            if node.is_fused:
                absorbed = quantized.nodes[node.name].fused
                assert absorbed == tuple(sub.name for sub in node.fusion_chain[1:])

    def test_default_pipeline_does_not_restructure(self, calibration, traced):
        quantized = lower_to_int8(traced, calibration)
        assert quantized.graph is traced
        assert quantized.source_graph is traced
        assert all(not node.is_fused for node in quantized.graph.nodes)


class TestDeadNodeElimination:
    def test_drops_unconsumed_nodes_and_payloads(self):
        nodes = [
            relu_node("live", "input", "t1"),
            relu_node("dead", "input", "t_dead"),
            relu_node("sink", "t1", "t2"),
        ]
        state = tiny_state(tiny_graph(nodes))
        result = DeadNodeEliminationPass().run(state)
        assert [node.name for node in result.graph.nodes] == ["live", "sink"]
        assert set(result.nodes) == {"live", "sink"}

    def test_noop_on_fully_live_graph(self):
        state = tiny_state(
            tiny_graph([relu_node("a", "input", "t1"), relu_node("b", "t1", "t2")])
        )
        result = DeadNodeEliminationPass().run(state)
        assert result is state  # pure no-op returns the same state


# --------------------------------------------------------------------- #
# Code generation for fused graphs
# --------------------------------------------------------------------- #
class TestFusedCodegen:
    def test_temponet_schedule_names_fused_kernels(self, calibration):
        graph = trace_model(make_model("temponet"))
        quantized = lower_to_int8(graph, calibration, OPTIMIZED)
        sources = CodeGenerator(quantized).generate()
        network = sources["network.c"].content
        assert "net_conv1d_im2col_affine_relu_i8(" in network
        assert "net_conv1d_im2col_affine_relu_pool_i8(" in network
        kernels = sources["kernels.h"].content
        assert "void net_conv1d_im2col_affine_relu_pool_i8(" in kernels

    def test_bioformer_lut_gelu_fusion_tag(self, calibration):
        graph = trace_model(make_model("bio1"))
        quantized = lower_to_int8(graph, calibration, OPTIMIZED)
        network = CodeGenerator(quantized).generate()["network.c"].content
        assert "net_linear_gemm_gelu_lut_i8(" in network

    def test_absorbed_constants_still_emitted(self, calibration):
        graph = trace_model(make_model("temponet"))
        default = lower_to_int8(graph, calibration)
        optimized = lower_to_int8(graph, calibration, OPTIMIZED)
        weights_default = CodeGenerator(default).weights_header().content
        weights_optimized = CodeGenerator(optimized).weights_header().content
        # Fusion moves no bytes: the absorbed batch-norm scale/shift arrays
        # and every requantiser macro are emitted identically.
        assert weights_optimized == weights_default

    def test_every_scheduled_kernel_is_declared(self, calibration):
        import re

        graph = trace_model(make_model("temponet"))
        quantized = lower_to_int8(graph, calibration, OPTIMIZED)
        sources = CodeGenerator(quantized).generate()
        called = set(re.findall(r"(net_\w+_i8)\(", sources["network.c"].content))
        declared = set(re.findall(r"void (net_\w+_i8)\(", sources["kernels.h"].content))
        assert called == declared


# --------------------------------------------------------------------- #
# Serving integration
# --------------------------------------------------------------------- #
class TestServingIntegration:
    def test_optimized_backend_is_bitwise_equal(self, calibration, windows):
        model = make_model("temponet")
        default = build_int8_backend(model, calibration)
        optimized = build_int8_backend(model, calibration, config=OPTIMIZED)
        assert len(optimized.quantized.graph) < len(default.quantized.graph)
        np.testing.assert_array_equal(
            default.run_integer(windows), optimized.run_integer(windows)
        )
        np.testing.assert_array_equal(default.run(windows), optimized.run(windows))

    def test_server_optimize_variant_cache_normalisation(self):
        cache = BackendCache()
        calibration = np.random.default_rng(12).normal(size=(8, 4, 60))
        kwargs = dict(
            patch_size=10, model_kwargs=GEOMETRY, calibration=calibration, cache=cache
        )
        x = np.random.default_rng(13).normal(size=(4, 4, 60))
        with InferenceServer("bio1", "int8", **kwargs) as default:
            with InferenceServer(
                "bio1", "int8", lowering=OPTIMIZED, **kwargs
            ) as optimized:
                assert optimized.backend is not default.backend
                np.testing.assert_array_equal(default.infer(x), optimized.infer(x))
            assert len(cache) == 2
            # The key is the config itself: an explicit default config shares
            # the entry of an omitted one.
            with InferenceServer(
                "bio1", "int8", lowering=LoweringConfig(), **kwargs
            ) as explicit:
                assert explicit.backend is default.backend
                assert explicit.cache_key[2] == LoweringConfig()
        assert len(cache) == 2

    def test_server_lowers_with_the_given_config(self):
        """The config is applied, not only used as the cache key."""
        cache = BackendCache()
        calibration = np.random.default_rng(12).normal(size=(8, 4, 60))
        config = LoweringConfig(activation_bits=6)
        kwargs = dict(
            patch_size=10, model_kwargs=GEOMETRY, calibration=calibration, cache=cache
        )
        with InferenceServer("bio1", "int8", **kwargs) as default:
            with InferenceServer("bio1", "int8", lowering=config, **kwargs) as narrow:
                assert narrow.backend is not default.backend
                assert narrow.cache_key[2] == config
                assert narrow.backend.quantized.config == config
                assert all(
                    (act.qmin, act.qmax) == (-32, 31)
                    for act in narrow.backend.quantized.activations.values()
                )
        assert len(cache) == 2

    def test_float_server_rejects_lowering_config(self):
        cache = BackendCache()
        with pytest.raises(ValueError, match="backend='int8'"):
            InferenceServer(
                "bio1", "float", model_kwargs=GEOMETRY, cache=cache, lowering=OPTIMIZED
            )
        assert len(cache) == 0
