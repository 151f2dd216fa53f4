"""Exhaustive LUT-vs-elementwise equality for the integer nonlinearities.

The int8 path executes the I-BERT GELU and softmax only through
precomputed lookup tables (see ``docs/quantization.md``).  The contract is
*bit-identity over the full representable input domain*: for every
requantisation configuration reachable from the model registry, every value
an int8 activation grid can take must map to exactly the same output under
the table gather as under the elementwise :mod:`repro.quant.ibert` kernels
the tables are built from.

These tests pin that contract three ways:

* table entries against an independent replay of the elementwise chain
  over the whole domain;
* node-level execution on crafted full-domain tensors, against the
  test-side :class:`ElementwiseExecutor`, which runs GELU and softmax
  through the ibert kernels and the node's stored ``output`` pair;
* whole-graph execution on random inputs against that executor, over every
  attention config of the registry × compiled/traced schedule ×
  percentile/absmax calibration, plus the serving backend.

All randomness comes from local generators — the shared session ``rng``
fixture is deliberately not used (its draw order is load-bearing for other
tests).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.deploy import (
    LUT_OPERATORS,
    IntegerGraphExecutor,
    LookupTable,
    LoweringConfig,
    lower_to_int8,
    trace_model,
)
from repro.deploy.lowering import QMAX, QMIN, apply_requant, requantize
from repro.models import available_models, build_model
from repro.quant import ibert
from repro.serve import build_int8_backend

GEOMETRY = dict(num_channels=4, window_samples=60, seed=11)
#: Registry entries with transformer nonlinearities (TEMPONet is conv/ReLU
#: only and must lower without any tables).
ATTENTION_MODELS = ("bio1", "bio2")
#: Every registry-reachable attention configuration: (architecture, model
#: kwargs beyond the shared geometry).
ATTENTION_CONFIGS = {
    "bio1-p10": ("bio1", dict(patch_size=10)),
    "bio1-p20": ("bio1", dict(patch_size=20)),
    "bio2-p10": ("bio2", dict(patch_size=10)),
    "bio2-p20": ("bio2", dict(patch_size=20)),
    "bio1-mean": ("bio1", dict(patch_size=10, pooling="mean")),
    "bio2-mean": ("bio2", dict(patch_size=10, pooling="mean")),
}
#: ``calibration_percentile`` of the default lowering and of the absmax
#: one, whose scales (and so tables and requantisers) all differ.
CALIBRATIONS = {"percentile": 99.9, "absmax": 100.0}
#: ``(config, traced)`` of each whole-graph lowering: ``traced`` runs the
#: lowering's traced (unfused) schedule in place of its compiled one.
LOWERINGS = {
    "default": (LoweringConfig(), False),
    "traced": (LoweringConfig(), True),
    "absmax": (LoweringConfig(calibration_percentile=100.0), False),
    "absmax-traced": (LoweringConfig(calibration_percentile=100.0), True),
}


def make_model(name, patch_size=10, **kwargs):
    return build_model(name, patch_size=patch_size, **GEOMETRY, **kwargs).eval()


def lower_registry_model(
    name, patch_size=10, seed=2024, config=None, model_kwargs=None, **kwargs
):
    rng = np.random.default_rng(seed)
    calibration = rng.normal(size=(16, GEOMETRY["num_channels"], GEOMETRY["window_samples"]))
    graph = trace_model(make_model(name, patch_size, **(model_kwargs or {})))
    return lower_to_int8(graph, calibration, config, **kwargs)


class ElementwiseExecutor(IntegerGraphExecutor):
    """The integer executor with GELU and softmax as elementwise kernels.

    Each runs its :mod:`repro.quant.ibert` kernel on the int64 input and
    requantises with the node's stored ``output`` pair; every other op
    (and fused-chain composition) is the executor's own.  ``calls`` counts
    the overridden kernels that ran, so a test can prove the override was
    not bypassed.
    """

    def __init__(self, quantized):
        self.calls = 0
        super().__init__(quantized)

    def _bind(self, node):
        if node.op not in LUT_OPERATORS:
            return super()._bind(node)
        in_scale = self.quantized.activations[node.inputs[0]].scale
        out = self.quantized.activations[node.output.name]
        multiplier, shift = self.quantized.nodes[node.name].requantizers["output"]

        def run(q_x, tensors):
            self.calls += 1
            q_x = q_x.astype(np.int64)
            if node.op == "gelu":
                q_out, _ = ibert.integer_gelu(q_x, in_scale)
            else:
                axis = int(node.attrs.get("axis", -1))
                q_out, _ = ibert.integer_softmax(q_x, in_scale, axis=axis)
            return apply_requant(q_out, multiplier, shift)

        return run


def assert_tables_match_elementwise(quantized, x):
    """Whole-graph pin: the executor's integer and dequantised logits equal
    :class:`ElementwiseExecutor`'s, whose override must have run."""
    with_lut = IntegerGraphExecutor(quantized)
    elementwise = ElementwiseExecutor(quantized)
    np.testing.assert_array_equal(with_lut.run_integer(x), elementwise.run_integer(x))
    np.testing.assert_array_equal(with_lut.run(x), elementwise.run(x))
    assert elementwise.calls > 0


@pytest.fixture(scope="module")
def lowered_registry():
    """Every registry architecture lowered at the deployment-unit geometry."""
    return {name: lower_registry_model(name) for name in available_models()}


@pytest.fixture(scope="module")
def calibrated_registry(lowered_registry):
    """The attention models under each of :data:`CALIBRATIONS`, keyed by
    ``(calibration, architecture)``."""
    registry = {("percentile", name): lowered_registry[name] for name in ATTENTION_MODELS}
    for name in ATTENTION_MODELS:
        config = LoweringConfig(calibration_percentile=CALIBRATIONS["absmax"])
        registry["absmax", name] = lower_registry_model(name, config=config)
    return registry


def lut_nodes(quantized, op):
    """Every original ``op`` node of the schedule, fused-chain members included."""
    return [
        (sub, quantized.nodes[sub.name])
        for node in quantized.graph.nodes
        for sub in node.fusion_chain
        if sub.op == op
    ]


# --------------------------------------------------------------------- #
# Table construction coverage
# --------------------------------------------------------------------- #
class TestTableCoverage:
    def test_every_registry_nonlinearity_gets_a_table(self, lowered_registry):
        for name in ATTENTION_MODELS:
            quantized = lowered_registry[name]
            assert quantized.total_lut_bytes > 0
            for node in quantized.graph.nodes:
                lowered = quantized.nodes[node.name]
                if node.op in LUT_OPERATORS:
                    role = "gelu" if node.op == "gelu" else "exp"
                    assert role in lowered.luts, f"{name}:{node.name} missing LUT"
                else:
                    assert not lowered.luts

    def test_temponet_has_no_lut_ops(self, lowered_registry):
        quantized = lowered_registry["temponet"]
        assert all(not node.luts for node in quantized.nodes.values())
        assert quantized.total_lut_bytes == 0

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
    @pytest.mark.parametrize("calibration", sorted(CALIBRATIONS))
    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_gelu_tables_match_elementwise_chain_over_full_domain(
        self, calibrated_registry, name, calibration
    ):
        """Independent replay: every int8 input value, every gelu config."""
        quantized = calibrated_registry[calibration, name]
        for node, lowered in lut_nodes(quantized, "gelu"):
            in_act = quantized.activations[node.inputs[0]]
            out_act = quantized.activations[node.output.name]
            domain = np.arange(in_act.qmin, in_act.qmax + 1, dtype=np.int64)
            q_out, gelu_scale = ibert.integer_gelu(domain, in_act.scale)
            expected = requantize(q_out, gelu_scale / out_act.scale)
            np.testing.assert_array_equal(lowered.luts["gelu"].values, expected)

    @pytest.mark.parametrize("calibration", sorted(CALIBRATIONS))
    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_exp_tables_match_integer_exp_over_full_domain(
        self, calibrated_registry, name, calibration
    ):
        quantized = calibrated_registry[calibration, name]
        for node, lowered in lut_nodes(quantized, "softmax"):
            in_act = quantized.activations[node.inputs[0]]
            table = lowered.luts["exp"]
            domain = np.arange(table.domain_min, table.domain_max + 1, dtype=np.int64)
            expected, _ = ibert.integer_exp(domain, in_act.scale)
            np.testing.assert_array_equal(table.values, expected)

    @pytest.mark.parametrize("calibration", sorted(CALIBRATIONS))
    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_gelu_node_execution_equal_over_full_domain(
        self, calibrated_registry, name, calibration
    ):
        """Both kernels, node level, every representable input at once."""
        quantized = calibrated_registry[calibration, name]
        with_lut = IntegerGraphExecutor(quantized)
        elementwise = ElementwiseExecutor(quantized)
        for node, _ in lut_nodes(quantized, "gelu"):
            in_act = quantized.activations[node.inputs[0]]
            full = np.arange(in_act.qmin, in_act.qmax + 1, dtype=np.int32)[None, :]
            tensors = {node.inputs[0]: full}
            np.testing.assert_array_equal(
                with_lut._bind(node)(full, tensors),
                elementwise._bind(node)(full, tensors),
            )
        assert elementwise.calls > 0

    @pytest.mark.parametrize("calibration", sorted(CALIBRATIONS))
    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_softmax_node_execution_equal_over_full_shifted_domain(
        self, calibrated_registry, name, calibration
    ):
        """A row spanning [qmin, qmax] exercises every shifted exp input."""
        quantized = calibrated_registry[calibration, name]
        with_lut = IntegerGraphExecutor(quantized)
        elementwise = ElementwiseExecutor(quantized)
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
                    with_lut._bind(node)(q_x, tensors),
                    elementwise._bind(node)(q_x, tensors),
                )
        assert elementwise.calls > 0

    @pytest.mark.parametrize("calibration", sorted(CALIBRATIONS))
    @pytest.mark.parametrize("name", ATTENTION_MODELS)
    def test_every_table_holds_the_256_int8_inputs(
        self, calibrated_registry, name, calibration
    ):
        """One int8 grid: every table spans exactly 256 inputs, whatever the scales."""
        quantized = calibrated_registry[calibration, name]
        gelu = [lowered.luts["gelu"] for _, lowered in lut_nodes(quantized, "gelu")]
        exp = [lowered.luts["exp"] for _, lowered in lut_nodes(quantized, "softmax")]
        assert gelu and exp
        for table in gelu:
            assert (table.domain_min, table.domain_max, table.size) == (QMIN, QMAX, 256)
        for table in exp:
            assert (table.domain_min, table.domain_max, table.size) == (QMIN - QMAX, 0, 256)

    def test_second_patch_size_config_is_also_exact(self):
        """A different registry patch size produces different scales — still exact."""
        quantized = lower_registry_model("bio2", patch_size=20, seed=7)
        x = np.random.default_rng(8).normal(size=(6, 4, 60))
        assert_tables_match_elementwise(quantized, x)


# --------------------------------------------------------------------- #
# Whole-graph parity and the use_lut spelling
# --------------------------------------------------------------------- #
class TestWholeGraphParity:
    @pytest.mark.parametrize("lowering", sorted(LOWERINGS))
    @pytest.mark.parametrize("config", sorted(ATTENTION_CONFIGS))
    def test_lut_and_elementwise_runs_are_bitwise_equal(self, config, lowering):
        """Every attention config of the registry × compiled/traced
        schedule × percentile/absmax calibration."""
        arch, kwargs = ATTENTION_CONFIGS[config]
        kwargs = dict(kwargs)
        lowering_config, traced = LOWERINGS[lowering]
        quantized = lower_registry_model(
            arch, kwargs.pop("patch_size"), config=lowering_config, model_kwargs=kwargs
        )
        if traced:
            quantized = replace(quantized, graph=quantized.source_graph)
        x = np.random.default_rng(3).normal(size=(6, 4, 60))
        assert_tables_match_elementwise(quantized, x)

    def test_fused_gelu_matches_elementwise(self):
        """The compiler folds GELU into its linear; the fused chain replays
        the table, and the reference replays the kernel."""
        quantized = lower_registry_model("bio1")
        assert any(
            sub.op == "gelu" for node in quantized.graph.nodes for sub in node.fusion_chain[1:]
        )
        x = np.random.default_rng(4).normal(size=(5, 4, 60))
        assert_tables_match_elementwise(quantized, x)

    def test_use_lut_spelling_equals_default_and_opt_out_raises(self, lowered_registry):
        """``use_lut=True`` (the spelling ``bench/probes.py`` uses) is the
        default lowering bit for bit, and ``use_lut=False`` raises."""
        spelled = lower_registry_model("bio1", use_lut=True)
        default = lowered_registry["bio1"]
        assert spelled.config == default.config
        assert [r.name for r in spelled.manifest] == [r.name for r in default.manifest]
        for name, lowered in default.nodes.items():
            other = spelled.nodes[name]
            assert other.requantizers == lowered.requantizers
            assert set(other.luts) == set(lowered.luts)
            for role, table in lowered.luts.items():
                np.testing.assert_array_equal(other.luts[role].values, table.values)
        x = np.random.default_rng(6).normal(size=(3, 4, 60))
        np.testing.assert_array_equal(
            IntegerGraphExecutor(spelled).run_integer(x),
            IntegerGraphExecutor(default).run_integer(x),
        )
        with pytest.raises(ValueError, match="use_lut=False"):
            lower_registry_model("bio1", use_lut=False)


# --------------------------------------------------------------------- #
# The serving backend
# --------------------------------------------------------------------- #
class TestServingIntegration:
    def test_backend_matches_elementwise_reference(self):
        model = make_model("bio1")
        calibration = np.random.default_rng(10).normal(size=(16, 4, 60))
        backend = build_int8_backend(model, calibration)
        x = np.random.default_rng(11).normal(size=(5, 4, 60))
        reference = ElementwiseExecutor(backend.quantized)
        np.testing.assert_array_equal(backend.run(x), reference.run(x))
        np.testing.assert_array_equal(backend.run_integer(x), reference.run_integer(x))

