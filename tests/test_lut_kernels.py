"""Exhaustive LUT-vs-elementwise equality for the integer nonlinearities.

The int8 serving path executes the I-BERT GELU and softmax through
precomputed lookup tables (see ``docs/quantization.md``).  The contract is
*bit-identity over the full representable input domain*: for every
requantisation configuration reachable from the model registry, every value
an int8 activation grid can take must map to exactly the same output under
the table gather as under the legacy elementwise polynomial kernels.

These tests pin that contract three ways:

* table entries against an independent replay of the elementwise chain
  over the whole domain;
* node-level execution on crafted full-domain tensors, against the
  tableless lowering made from the same calibration;
* whole-graph execution on random inputs against that tableless lowering,
  plus the serving backends and the generated C schedule.

All randomness comes from local generators — the shared session ``rng``
fixture is deliberately not used (its draw order is load-bearing for other
tests).
"""

import numpy as np
import pytest

from repro.deploy import (
    LUT_OPERATORS,
    IntegerGraphExecutor,
    LookupTable,
    LoweringConfig,
    generate_c_sources,
    lower_to_int8,
    trace_model,
)
from repro.deploy.int_engine import requantize
from repro.models import available_models, build_model
from repro.quant import ibert
from repro.serve import BackendCache, InferenceServer, build_int8_backend

GEOMETRY = dict(num_channels=4, window_samples=60, seed=11)
#: Registry entries with transformer nonlinearities (TEMPONet is conv/ReLU
#: only and must lower without any tables).
ATTENTION_MODELS = ("bio1", "bio2")


def make_model(name, patch_size=10):
    return build_model(name, patch_size=patch_size, **GEOMETRY).eval()


def lower_registry_model(name, patch_size=10, seed=2024, **lower_kwargs):
    rng = np.random.default_rng(seed)
    calibration = rng.normal(size=(16, GEOMETRY["num_channels"], GEOMETRY["window_samples"]))
    return lower_to_int8(trace_model(make_model(name, patch_size)), calibration, **lower_kwargs)


@pytest.fixture(scope="module")
def lowered_registry():
    """Every registry architecture lowered at the deployment-unit geometry."""
    return {name: lower_registry_model(name) for name in available_models()}


@pytest.fixture(scope="module")
def tableless_registry():
    """The attention models lowered without tables (same calibration)."""
    return {
        name: lower_registry_model(name, config=LoweringConfig(use_lut=False))
        for name in ATTENTION_MODELS
    }


def lut_nodes(quantized, op):
    return [
        (node, quantized.nodes[node.name])
        for node in quantized.graph.nodes
        if node.op == op
    ]


# --------------------------------------------------------------------- #
# Table construction coverage
# --------------------------------------------------------------------- #
class TestTableCoverage:
    def test_every_registry_nonlinearity_gets_a_table(self, lowered_registry):
        for name in ATTENTION_MODELS:
            quantized = lowered_registry[name]
            assert quantized.uses_luts
            for node in quantized.graph.nodes:
                lowered = quantized.nodes[node.name]
                if node.op in LUT_OPERATORS:
                    role = "gelu" if node.op == "gelu" else "exp"
                    assert role in lowered.luts, f"{name}:{node.name} missing LUT"
                else:
                    assert not lowered.luts

    def test_temponet_has_no_lut_ops(self, lowered_registry):
        quantized = lowered_registry["temponet"]
        assert not quantized.uses_luts
        assert quantized.total_lut_bytes == 0

    def test_table_sizes_cover_the_domain(self, lowered_registry):
        for name in ATTENTION_MODELS:
            quantized = lowered_registry[name]
            for node, lowered in lut_nodes(quantized, "gelu"):
                in_act = quantized.activations[node.inputs[0]]
                table = lowered.luts["gelu"]
                assert (table.domain_min, table.domain_max) == (in_act.qmin, in_act.qmax)
                assert table.size == in_act.qmax - in_act.qmin + 1
            for node, lowered in lut_nodes(quantized, "softmax"):
                in_act = quantized.activations[node.inputs[0]]
                table = lowered.luts["exp"]
                assert (table.domain_min, table.domain_max) == (
                    in_act.qmin - in_act.qmax,
                    0,
                )

    def test_lookup_table_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError, match="entries"):
            LookupTable(op="gelu", domain_min=-128, domain_max=127, values=np.zeros(17))

    def test_lookup_table_take_is_a_domain_gather(self):
        table = LookupTable(
            op="exp", domain_min=-3, domain_max=0, values=np.array([10, 20, 30, 40])
        )
        np.testing.assert_array_equal(
            table.take(np.array([[-3, 0], [-1, -2]])), [[10, 40], [30, 20]]
        )
        assert table.nbytes == 16  # int32 storage

    def test_lookup_table_take_rejects_out_of_domain_inputs(self):
        """Out-of-domain values must fail loudly, not wrap Python-style."""
        table = LookupTable(
            op="exp", domain_min=-3, domain_max=0, values=np.array([10, 20, 30, 40])
        )
        with pytest.raises(ValueError, match="outside"):
            table.take(np.array([-4]))
        with pytest.raises(ValueError, match="outside"):
            table.take(np.array([1]))


# --------------------------------------------------------------------- #
# Exhaustive-domain equality, per requantisation configuration
# --------------------------------------------------------------------- #
class TestExhaustiveDomainEquality:
    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_gelu_tables_match_elementwise_chain_over_full_domain(
        self, lowered_registry, name
    ):
        """Independent replay: every int8 input value, every gelu config."""
        quantized = lowered_registry[name]
        for node, lowered in lut_nodes(quantized, "gelu"):
            in_act = quantized.activations[node.inputs[0]]
            out_act = quantized.activations[node.output.name]
            domain = np.arange(in_act.qmin, in_act.qmax + 1, dtype=np.int64)
            q_out, gelu_scale = ibert.integer_gelu(domain, in_act.scale)
            expected = requantize(
                q_out, gelu_scale / out_act.scale, out_act.qmin, out_act.qmax
            )
            np.testing.assert_array_equal(lowered.luts["gelu"].values, expected)

    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_exp_tables_match_integer_exp_over_full_domain(self, lowered_registry, name):
        quantized = lowered_registry[name]
        for node, lowered in lut_nodes(quantized, "softmax"):
            in_act = quantized.activations[node.inputs[0]]
            table = lowered.luts["exp"]
            domain = np.arange(table.domain_min, table.domain_max + 1, dtype=np.int64)
            expected, _ = ibert.integer_exp(domain, in_act.scale)
            np.testing.assert_array_equal(table.values, expected)

    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_gelu_node_execution_equal_over_full_domain(
        self, lowered_registry, tableless_registry, name
    ):
        """Both lowerings, node level, every representable input at once."""
        quantized = lowered_registry[name]
        with_lut = IntegerGraphExecutor(quantized)
        elementwise = IntegerGraphExecutor(tableless_registry[name])
        for node, _ in lut_nodes(quantized, "gelu"):
            in_act = quantized.activations[node.inputs[0]]
            full = np.arange(in_act.qmin, in_act.qmax + 1, dtype=np.int32)[None, :]
            tensors = {node.inputs[0]: full}
            np.testing.assert_array_equal(
                with_lut._run_node(node, dict(tensors)),
                elementwise._run_node(node, dict(tensors)),
            )

    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_softmax_node_execution_equal_over_full_shifted_domain(
        self, lowered_registry, tableless_registry, name
    ):
        """A row spanning [qmin, qmax] exercises every shifted exp input."""
        quantized = lowered_registry[name]
        with_lut = IntegerGraphExecutor(quantized)
        elementwise = IntegerGraphExecutor(tableless_registry[name])
        rng = np.random.default_rng(99)
        for node, _ in lut_nodes(quantized, "softmax"):
            in_act = quantized.activations[node.inputs[0]]
            full_row = np.arange(in_act.qmin, in_act.qmax + 1, dtype=np.int32)[None, :]
            random_rows = rng.integers(
                in_act.qmin, in_act.qmax + 1, size=(8, 33)
            ).astype(np.int32)
            for q_x in (full_row, random_rows):
                tensors = {node.inputs[0]: q_x}
                np.testing.assert_array_equal(
                    with_lut._run_node(node, dict(tensors)),
                    elementwise._run_node(node, dict(tensors)),
                )

    def test_equality_holds_for_other_activation_widths(self):
        """The domain bounds follow the lowered bit width (ablation widths)."""
        quantized = lower_registry_model("bio1", activation_bits=6)
        for node, lowered in lut_nodes(quantized, "gelu"):
            in_act = quantized.activations[node.inputs[0]]
            assert (in_act.qmin, in_act.qmax) == (-32, 31)
            assert lowered.luts["gelu"].size == 64
        with_lut = IntegerGraphExecutor(quantized)
        elementwise = IntegerGraphExecutor(
            lower_registry_model("bio1", activation_bits=6, use_lut=False)
        )
        x = np.random.default_rng(5).normal(size=(4, 4, 60))
        np.testing.assert_array_equal(with_lut.run_integer(x), elementwise.run_integer(x))

    def test_second_patch_size_config_is_also_exact(self):
        """A different registry patch size produces different scales — still exact."""
        quantized = lower_registry_model("bio2", patch_size=20, seed=7)
        with_lut = IntegerGraphExecutor(quantized)
        elementwise = IntegerGraphExecutor(
            lower_registry_model("bio2", patch_size=20, seed=7, use_lut=False)
        )
        x = np.random.default_rng(8).normal(size=(6, 4, 60))
        np.testing.assert_array_equal(with_lut.run_integer(x), elementwise.run_integer(x))


# --------------------------------------------------------------------- #
# Whole-graph and flag semantics
# --------------------------------------------------------------------- #
class TestWholeGraphParity:
    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_lut_and_elementwise_runs_are_bitwise_equal(
        self, lowered_registry, tableless_registry, name
    ):
        quantized = lowered_registry[name]
        tableless = tableless_registry[name]
        assert quantized.uses_luts and not tableless.uses_luts
        with_lut = IntegerGraphExecutor(quantized)
        elementwise = IntegerGraphExecutor(tableless)
        x = np.random.default_rng(3).normal(size=(6, 4, 60))
        np.testing.assert_array_equal(with_lut.run_integer(x), elementwise.run_integer(x))
        np.testing.assert_array_equal(with_lut.run(x), elementwise.run(x))

    def test_lowering_opt_out_emits_no_tables_and_matches(self):
        with_tables = lower_registry_model("bio1")
        without = lower_registry_model("bio1", use_lut=False)
        assert not without.uses_luts
        assert without.total_lut_bytes == 0
        assert all(not node.luts for node in without.nodes.values())
        x = np.random.default_rng(4).normal(size=(5, 4, 60))
        np.testing.assert_array_equal(
            IntegerGraphExecutor(with_tables).run_integer(x),
            IntegerGraphExecutor(without).run_integer(x),
        )

    def test_executor_on_tableless_graph_falls_back_silently(self):
        quantized = lower_registry_model("bio1", use_lut=False)
        assert not quantized.uses_luts
        executor = IntegerGraphExecutor(quantized)
        x = np.random.default_rng(6).normal(size=(3, 4, 60))
        assert executor.run_integer(x).shape == (3, 8)


# --------------------------------------------------------------------- #
# Serving backends and the cache
# --------------------------------------------------------------------- #
class TestServingIntegration:
    def test_backend_flag_parity(self):
        model = make_model("bio1")
        calibration = np.random.default_rng(10).normal(size=(16, 4, 60))
        fast = build_int8_backend(model, calibration, use_lut=True)
        legacy = build_int8_backend(model, calibration, use_lut=False)
        assert fast.uses_lut and not legacy.uses_lut
        x = np.random.default_rng(11).normal(size=(5, 4, 60))
        np.testing.assert_array_equal(fast.run(x), legacy.run(x))
        np.testing.assert_array_equal(fast.run_integer(x), legacy.run_integer(x))

    def test_server_lut_variants_get_distinct_cache_entries(self):
        cache = BackendCache()
        calibration = np.random.default_rng(12).normal(size=(8, 4, 60))
        kwargs = dict(
            patch_size=10, model_kwargs=GEOMETRY, calibration=calibration, cache=cache
        )
        x = np.random.default_rng(13).normal(size=(4, 4, 60))
        with InferenceServer("bio1", "int8", **kwargs) as fast:
            with InferenceServer(
                "bio1", "int8", lower_kwargs={"use_lut": False}, **kwargs
            ) as legacy:
                assert fast.backend is not legacy.backend
                assert fast.backend.uses_lut and not legacy.backend.uses_lut
                np.testing.assert_array_equal(fast.infer(x), legacy.infer(x))
        assert len(cache) == 2
        # The key is the resolved LoweringConfig: an explicit use_lut=True,
        # a config object and the default all share one cached backend.
        for spelling in ({"use_lut": True}, {"config": LoweringConfig()}):
            with InferenceServer("bio1", "int8", lower_kwargs=spelling, **kwargs) as explicit:
                assert explicit.backend is fast.backend
        assert len(cache) == 2


# --------------------------------------------------------------------- #
# Code generation of the LUT op set
# --------------------------------------------------------------------- #
class TestLutCodegen:
    def test_schedule_uses_lut_kernels_and_emits_tables(self, lowered_registry):
        quantized = lowered_registry["bio1"]
        sources = generate_c_sources(quantized)
        network = sources["network.c"].content
        weights = sources["weights.h"].content
        kernels = sources["kernels.h"].content
        assert "net_gelu_lut_i8" in network
        assert "net_softmax_lut_i8" in network
        assert "net_gelu_i8" not in network and "net_softmax_i8" not in network
        assert "_lut_gelu[" in weights and "_lut_exp[" in weights
        assert "_DOMAIN_MIN" in weights
        assert "void net_gelu_lut_i8(" in kernels
        assert "void net_softmax_lut_i8(" in kernels
        header = sources["network.h"].content
        assert f"#define NETWORK_LUT_BYTES {quantized.total_lut_bytes}" in header

    def test_opt_out_keeps_the_legacy_schedule(self, tableless_registry):
        sources = generate_c_sources(tableless_registry["bio1"])
        network = sources["network.c"].content
        assert "net_gelu_i8" in network and "net_softmax_i8" in network
        assert "_lut_" not in sources["weights.h"].content
        assert "#define NETWORK_LUT_BYTES 0" in sources["network.h"].content

    def test_lut_bytes_accounting(self, lowered_registry):
        quantized = lowered_registry["bio1"]
        expected = sum(
            table.nbytes
            for node in quantized.nodes.values()
            for table in node.luts.values()
        )
        assert quantized.total_lut_bytes == expected > 0
        # Tables are accounted separately from the Table-I weight column.
        assert quantized.total_weight_bytes == sum(
            node.weight_bytes for node in quantized.nodes.values()
        )
