"""The deploy compiler: its four fixed stages and their bitwise pins.

The compiler contract has two halves:

1. **Mechanics** — the manifest records every stage in its fixed order,
   compiling leaves the trace untouched, and the hardened
   ``ComputeGraph.validate`` rejects duplicate node names and dangling
   inputs.
2. **Numerics** — the compiled (fused) schedule keeps executor logits
   *bitwise equal* (``assert_array_equal``, never a tolerance) to the
   traced schedule across all registry configs, while fusion strictly
   shrinks the node schedule.  The traced schedule runs as
   ``IntegerGraphExecutor(replace(quantized, graph=quantized.source_graph))``.
"""

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from repro import quant
from repro.deploy import (
    FloatGraphExecutor,
    IntegerGraphExecutor,
    deploy_graph,
    lower_to_int8,
    trace_model,
)
from repro.deploy.graph import ComputeGraph, GraphNode, TensorSpec
from repro.deploy.lowering import (
    QMAX,
    QMIN,
    ActivationQuantization,
)
from repro.deploy.memory import live_ranges, plan_activation_memory
from repro.deploy.passes import (
    LoweringConfig,
    compile_graph,
    fuse,
    quantize_weights,
    substitute_luts,
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

LOWERING_STAGES = [
    "calibrate-activations",
    "quantize-weights",
    "lut-substitution",
]
FUSION_STAGES = ["fuse"]


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


def source_schedule(quantized):
    """The lowering with its traced, unfused schedule: the test reference."""
    return replace(quantized, graph=quantized.source_graph)


@pytest.fixture(scope="module")
def lowered_pair(traced, calibration):
    """(traced-schedule reference, compiled) lowering of one config."""
    compiled = lower_to_int8(traced, calibration)
    return source_schedule(compiled), compiled


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


# --------------------------------------------------------------------- #
# LoweringConfig, the one spelling of a lowering
# --------------------------------------------------------------------- #
class TestLoweringConfig:
    def test_calibration_percentile_is_the_only_field(self):
        config = LoweringConfig()
        assert [field.name for field in fields(config)] == ["calibration_percentile"]
        assert config.calibration_percentile == 99.9
        with pytest.raises(TypeError):
            LoweringConfig(optimize=True)  # fusion always runs

    @pytest.mark.parametrize(
        "knob",
        [
            "LoweringConfig.weight_bits",
            "LoweringConfig.activation_bits",
            "ActivationQuantization.bits",
            "quantize_weights.weight_spec",
            "repro.quant.QuantizationSpec",
            "repro.quant.MinMaxObserver",
            "repro.quant.MovingAverageObserver",
        ],
    )
    def test_the_int8_grid_is_not_a_parameter(self, knob):
        """The grid is decided once, in ``repro.quant.quantizers``: no
        argument selects another width, and no spec or observer class
        describes another format."""
        calls = {
            "LoweringConfig.weight_bits": lambda: LoweringConfig(weight_bits=8),
            "LoweringConfig.activation_bits": lambda: LoweringConfig(activation_bits=8),
            "ActivationQuantization.bits": lambda: ActivationQuantization(
                name="x", scale=1.0, bits=8
            ),
            "quantize_weights.weight_spec": lambda: quantize_weights(
                tiny_graph([relu_node("relu", "input", "out")]), {}, 8
            ),
            "repro.quant.QuantizationSpec": lambda: quant.QuantizationSpec(bits=8),
            "repro.quant.MinMaxObserver": lambda: quant.MinMaxObserver(),
            "repro.quant.MovingAverageObserver": lambda: quant.MovingAverageObserver(
                momentum=0.9
            ),
        }
        deleted = knob.startswith("repro.quant.")
        with pytest.raises(AttributeError if deleted else TypeError):
            calls[knob]()

    def test_weights_fill_the_int8_grid(self, lowered_pair):
        _, quantized = lowered_pair
        # The constants quantised on the weight grid (the token and position
        # constants sit on their activation's grid instead).
        weights = [
            payload.constants[role].values
            for payload in quantized.nodes.values()
            for role in ("weight", "scale")
            if payload.node.op in ("conv1d", "linear", "channel_affine")
            and role in payload.constants
        ]
        assert weights
        for values in weights:
            assert QMIN <= values.min() and values.max() <= QMAX
        assert max(int(np.abs(values).max()) for values in weights) >= QMAX

    def test_activations_stay_on_the_int8_grid(self, lowered_pair, windows):
        _, quantized = lowered_pair
        for schedule in (quantized.source_graph, quantized.graph):
            seen = []

            def observe(name, values):
                assert QMIN <= values.min() and values.max() <= QMAX, name
                seen.append(name)

            executor = IntegerGraphExecutor(replace(quantized, graph=schedule))
            batch = quantized.input_quantization.quantize(schedule.batched_input(windows))
            executor.schedule.run(batch, observe=observe)
            assert len(seen) == len(schedule) + 1

    def test_config_is_frozen_and_hashed_by_value(self):
        """The serving tier keys its backend cache on the config itself."""
        config = LoweringConfig(calibration_percentile=100.0)
        with pytest.raises(FrozenInstanceError):
            config.calibration_percentile = 99.9
        same = LoweringConfig(calibration_percentile=100.0)
        assert config == same and hash(config) == hash(same)
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
# Golden stage manifests
# --------------------------------------------------------------------- #
class TestGoldenManifest:
    def test_manifest_lists_the_four_stages(self, lowered_pair):
        _, compiled = lowered_pair
        assert [r.name for r in compiled.manifest] == LOWERING_STAGES + FUSION_STAGES
        for record in compiled.manifest:
            assert record.wall_ms >= 0.0
            assert record.nodes_after <= record.nodes_before

    def test_node_counts_in_manifest_are_consistent(self, lowered_pair):
        _, compiled = lowered_pair
        records = compiled.manifest
        for earlier, later in zip(records, records[1:]):
            assert earlier.nodes_after == later.nodes_before
        assert records[0].nodes_before == len(compiled.source_graph)
        assert records[-1].nodes_after == len(compiled.graph)

    def test_report_lists_executed_manifest(self, calibration):
        report = deploy_graph(make_model("temponet"), calibration)
        text = report.render()
        assert "compiler passes" in text
        for name in LOWERING_STAGES + FUSION_STAGES:
            assert name in text
        assert "fused from" in text


# --------------------------------------------------------------------- #
# Bitwise invariance of the fused schedule
# --------------------------------------------------------------------- #
@pytest.mark.slow  # full model matrix; tier-1 keeps the targeted stage tests
class TestPassInvariance:
    def test_fused_logits_bitwise_equal_source_schedule(self, lowered_pair, windows):
        reference, compiled = lowered_pair
        base, fused = IntegerGraphExecutor(reference), IntegerGraphExecutor(compiled)
        np.testing.assert_array_equal(base.run_integer(windows), fused.run_integer(windows))
        np.testing.assert_array_equal(base.run(windows), fused.run(windows))

    def test_batched_equals_single(self, lowered_pair, windows):
        _, compiled = lowered_pair
        executor = IntegerGraphExecutor(compiled)
        batched = executor.run_integer(windows)
        singles = np.concatenate(
            [executor.run_integer(windows[i : i + 1]) for i in range(len(windows))]
        )
        np.testing.assert_array_equal(batched, singles)

    def test_float_executor_replays_fused_graph_identically(self, lowered_pair, windows):
        _, compiled = lowered_pair
        assert compiled.source_graph is not None
        reference = FloatGraphExecutor(compiled.source_graph).run(windows)
        fused = FloatGraphExecutor(compiled.graph).run(windows)
        np.testing.assert_array_equal(reference, fused)

    def test_agreement_with_float_runs_on_fused_graph(self, lowered_pair, windows):
        _, compiled = lowered_pair
        agreement = IntegerGraphExecutor(compiled).agreement_with_float(windows)
        assert 0.0 <= agreement <= 1.0


class TestFuseStage:
    @pytest.mark.parametrize("arch", ["bio1", "temponet"])
    def test_fuse_keeps_the_traced_logits(self, arch, calibration, windows):
        """The fuse stage, applied to the traced schedule over its payloads,
        keeps the logits of the traced schedule."""
        graph = trace_model(make_model(arch))
        compiled = lower_to_int8(graph, calibration)
        expected = IntegerGraphExecutor(source_schedule(compiled)).run_integer(windows)
        schedule = fuse(graph)
        produced = IntegerGraphExecutor(replace(compiled, graph=schedule)).run_integer(windows)
        np.testing.assert_array_equal(expected, produced)
        assert len(schedule) < len(graph)

    def test_a_dead_node_is_kept_and_run(self):
        """No stage removes nodes: a hand-built graph's dead node stays in
        the compiled schedule and is executed."""
        nodes = [
            relu_node("live", "input", "t1"),
            relu_node("dead", "input", "t_dead"),
            relu_node("sink", "t1", "t2"),
        ]
        graph = tiny_graph(nodes)
        compiled = compile_graph(graph, np.random.default_rng(3).normal(size=(2, 4, 8)))
        assert [node.name for node in compiled.graph.nodes] == ["live", "dead", "sink"]
        seen = []
        executor = IntegerGraphExecutor(compiled)
        batch = compiled.input_quantization.quantize(np.ones((1, 4, 8)))
        executor.schedule.run(batch, observe=lambda name, values: seen.append(name))
        assert "t_dead" in seen


# --------------------------------------------------------------------- #
# What fusion actually does to the graph
# --------------------------------------------------------------------- #
class TestFusion:
    def test_fused_graphs_have_strictly_fewer_nodes(self, lowered_pair):
        reference, compiled = lowered_pair
        assert len(compiled.graph) < len(reference.graph)

    def test_accounting_is_preserved(self, lowered_pair):
        reference, compiled = lowered_pair
        assert compiled.graph.total_macs == reference.graph.total_macs
        assert (
            compiled.graph.total_weight_elements
            == reference.graph.total_weight_elements
        )
        # Fusion keeps one payload per traced node, and no other.
        traced = [node.name for node in reference.graph.nodes]
        assert sorted(compiled.nodes) == sorted(traced)
        assert compiled.total_weight_bytes == sum(
            compiled.nodes[name].weight_bytes for name in traced
        )
        assert compiled.total_lut_bytes == sum(
            compiled.nodes[name].lut_bytes for name in traced
        )

    def test_fusion_shrinks_the_activation_working_set(self, lowered_pair):
        # The offset allocator is a greedy heuristic, so the *packed* peak
        # can wiggle either way; the allocator-independent claim is that
        # fusion removes intermediate buffers and never increases the
        # number of bytes simultaneously live at any schedule step.
        reference, compiled = lowered_pair

        def liveness_peak(graph):
            ranges = live_ranges(graph).values()
            steps = range(-1, len(graph))
            return max(
                sum(r.size_bytes for r in ranges if r.start <= step <= r.end)
                for step in steps
            )

        assert len(plan_activation_memory(compiled.graph).assignments) < len(
            plan_activation_memory(reference.graph).assignments
        )
        assert liveness_peak(compiled.graph) <= liveness_peak(reference.graph)

    def test_temponet_collapses_to_fused_convs(self, calibration):
        graph = trace_model(make_model("temponet"))
        quantized = lower_to_int8(graph, calibration)
        remaining_ops = {node.op for node in quantized.graph.nodes}
        # Every channel_affine / relu / avgpool1d is absorbed into its conv
        # (or the classifier linear); only the fused MACs and the flatten
        # survive in the schedule.
        assert remaining_ops <= {"conv1d", "linear", "flatten"}
        chains = [
            [sub.op for sub in node.fusion_chain]
            for node in quantized.graph.nodes
            if node.op == "conv1d"
        ]
        # Every conv absorbs its batch-norm affine and ReLU; one strided
        # conv per block absorbs the average pool too.
        conv_chain = ["conv1d", "channel_affine", "relu"]
        pooled_chain = conv_chain + ["avgpool1d"]
        assert chains.count(pooled_chain) == 3
        assert all(chain in (conv_chain, pooled_chain) for chain in chains)

    def test_bioformer_folds_ffn_gelu(self, calibration):
        graph = trace_model(make_model("bio1"))
        quantized = lower_to_int8(graph, calibration)
        assert all(node.op != "gelu" for node in quantized.graph.nodes)
        expand = quantized.graph.node("blocks.0.feedforward.expand")
        assert [sub.op for sub in expand.fusion_chain] == ["linear", "gelu"]

    def test_payloads_of_absorbed_nodes_survive(self, calibration):
        graph = trace_model(make_model("temponet"))
        quantized = lower_to_int8(graph, calibration)
        for node in quantized.graph.nodes:
            for sub in node.fusion_chain:
                assert sub.name in quantized.nodes

    def test_compiling_leaves_the_trace_untouched(self, calibration, traced):
        snapshot = [(node.name, node.output.name) for node in traced.nodes]
        quantized = lower_to_int8(traced, calibration)
        assert quantized.graph is not traced
        assert quantized.source_graph is traced
        assert [(node.name, node.output.name) for node in traced.nodes] == snapshot
        assert all(not node.is_fused for node in traced.nodes)


# --------------------------------------------------------------------- #
# Payloads of fused graphs
# --------------------------------------------------------------------- #
class TestFusedPayloads:
    @pytest.mark.parametrize("arch", ["bio1", "bio2", "temponet"])
    def test_fusion_leaves_every_payload_as_built(self, calibration, arch):
        graph = trace_model(make_model(arch))
        compiled = lower_to_int8(graph, calibration)
        # The traced graph's payloads, built by the annotating stages alone
        # so that no fusion stage touches them.
        traced = quantize_weights(graph, compiled.activations)
        substitute_luts(graph, compiled.activations, traced)
        # Fusion moves no bytes: absorbed constants, requantiser pairs and
        # tables are those of the traced graph, bit for bit.
        assert set(compiled.nodes) == set(traced)
        for name, payload in compiled.nodes.items():
            expected = traced[name]
            assert payload.requantizers == expected.requantizers, name
            assert set(payload.constants) == set(expected.constants), name
            for role, constant in payload.constants.items():
                reference = expected.constants[role]
                assert constant.dtype == reference.dtype, (name, role)
                assert constant.scale == reference.scale, (name, role)
                assert constant.values.dtype == reference.values.dtype, (name, role)
                np.testing.assert_array_equal(constant.values, reference.values)
            assert set(payload.luts) == set(expected.luts), name
            for role, table in payload.luts.items():
                np.testing.assert_array_equal(table.values, expected.luts[role].values)


# --------------------------------------------------------------------- #
# Serving integration
# --------------------------------------------------------------------- #
class TestServingIntegration:
    def test_backend_is_bitwise_equal_to_source_schedule(self, calibration, windows):
        backend = build_int8_backend(make_model("temponet"), calibration)
        reference = IntegerGraphExecutor(source_schedule(backend.quantized))
        assert len(backend.quantized.graph) < len(reference.quantized.graph)
        np.testing.assert_array_equal(
            reference.run_integer(windows), backend.run_integer(windows)
        )
        np.testing.assert_array_equal(reference.run(windows), backend.run(windows))

    def test_server_lowering_variant_cache_normalisation(self):
        cache = BackendCache()
        calibration = np.random.default_rng(12).normal(size=(8, 4, 60))
        kwargs = dict(
            patch_size=10, model_kwargs=GEOMETRY, calibration=calibration, cache=cache
        )
        x = np.random.default_rng(13).normal(size=(4, 4, 60))
        absmax = LoweringConfig(calibration_percentile=100.0)
        with InferenceServer("bio1", "int8", **kwargs) as default:
            with InferenceServer("bio1", "int8", lowering=absmax, **kwargs) as variant:
                assert variant.backend is not default.backend
                assert variant.infer(x).shape == default.infer(x).shape
            assert len(cache) == 2
            # The key is the config itself: an explicit default config shares
            # the entry of an omitted one.
            with InferenceServer(
                "bio1", "int8", lowering=LoweringConfig(), **kwargs
            ) as explicit:
                assert explicit.backend is default.backend
                assert explicit.cache_key[2] == LoweringConfig()
        assert len(cache) == 2

    def test_server_keys_int8_backends_on_the_calibration(self):
        """Two int8 servers of one ``Module`` share one cache: different
        calibration windows get different backends, equal windows (by value,
        not identity) one shared backend."""
        cache = BackendCache()
        model = make_model("bio1")
        calibration = np.random.default_rng(12).normal(size=(8, 4, 60))
        other = np.random.default_rng(14).normal(size=(8, 4, 60))
        with InferenceServer(model, "int8", calibration=calibration, cache=cache) as first:
            with InferenceServer(model, "int8", calibration=other, cache=cache) as second:
                assert second.backend is not first.backend
                assert second.backend.quantized.input_quantization.scale != (
                    first.backend.quantized.input_quantization.scale
                )
            with InferenceServer(
                model, "int8", calibration=calibration.copy(), cache=cache
            ) as same:
                assert same.backend is first.backend
            with InferenceServer(model, "int8", cache=cache) as default:
                assert default.backend is not first.backend
                assert default.cache_key[3] is None
        assert len(cache) == 3

    def test_server_lowers_with_the_given_config(self):
        """The config is applied, not only used as the cache key."""
        cache = BackendCache()
        calibration = np.random.default_rng(12).normal(size=(8, 4, 60))
        config = LoweringConfig(calibration_percentile=100.0)
        kwargs = dict(
            patch_size=10, model_kwargs=GEOMETRY, calibration=calibration, cache=cache
        )
        with InferenceServer("bio1", "int8", **kwargs) as default:
            with InferenceServer("bio1", "int8", lowering=config, **kwargs) as absmax:
                assert absmax.backend is not default.backend
                assert absmax.cache_key[2] == config
                assert absmax.backend.quantized.config == config
                # The absmax input scale covers the largest calibration sample.
                assert absmax.backend.quantized.input_quantization.scale == (
                    np.abs(calibration).max() / QMAX
                )
        assert len(cache) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lowering=LoweringConfig()),
            dict(calibration=np.full((4, 4, 60), np.nan)),
        ],
        ids=["lowering", "calibration"],
    )
    def test_float_server_rejects_lowering_config(self, kwargs):
        cache = BackendCache()
        with pytest.raises(ValueError, match="backend='int8'"):
            InferenceServer("bio1", "float", model_kwargs=GEOMETRY, cache=cache, **kwargs)
        assert len(cache) == 0
