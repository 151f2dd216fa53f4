"""Tests of the GAP8 hardware substrate: traced profiles, cost model, battery."""

import pytest

from repro.deploy import estimate_deployment, graph_to_profile, trace_model
from repro.experiments import Scale, Table1Result, Table1Row, render_table1
from repro.hw import (
    BatteryConfig,
    GAP8Config,
    GAP8Model,
    battery_life_hours,
    duty_cycle_power,
)
from repro.models import (
    Bioformer,
    BioformerConfig,
    TEMPONetConfig,
    bioformer_bio1,
    bioformer_bio2,
    build_model,
    temponet,
)

#: The measured rows of the paper's Table I used as reference.
PAPER_TABLE1 = {
    "bio1_30": {"memory_kb": 110.8, "mmac": 1.2, "latency_ms": 1.03, "energy_mj": 0.052},
    "bio1_20": {"memory_kb": 102.1, "mmac": 1.7, "latency_ms": 1.37, "energy_mj": 0.070},
    "bio1_10": {"memory_kb": 94.2, "mmac": 3.3, "latency_ms": 2.72, "energy_mj": 0.139},
    "bio2_30": {"memory_kb": 92.2, "mmac": 1.0, "latency_ms": 1.55, "energy_mj": 0.079},
    "bio2_10": {"memory_kb": 78.3, "mmac": 2.5, "latency_ms": 4.82, "energy_mj": 0.246},
    "temponet": {"memory_kb": 461.0, "mmac": 16.0, "latency_ms": 21.82, "energy_mj": 1.11},
}


def _graph(key):
    """Traced model of one Table I row at the paper's input geometry."""
    if key == "temponet":
        return trace_model(temponet())
    variant, filter_dimension = key.split("_")
    return trace_model(build_model(variant, patch_size=int(filter_dimension)))


def _profile(config):
    return graph_to_profile(trace_model(Bioformer(config)))


def _estimate(key, **kwargs):
    return estimate_deployment(_graph(key), **kwargs)


class TestProfiler:
    @pytest.mark.parametrize("builder,config_type", [
        (lambda: bioformer_bio1(patch_size=10), BioformerConfig),
        (lambda: bioformer_bio2(patch_size=30), BioformerConfig),
        (lambda: temponet(), TEMPONetConfig),
    ])
    def test_profiled_params_match_instantiated_model(self, builder, config_type):
        model = builder()
        profile = graph_to_profile(trace_model(model))
        assert profile.total_params == model.num_parameters()

    @pytest.mark.parametrize("key", sorted(PAPER_TABLE1))
    def test_mmacs_and_memory_match_paper(self, key):
        profile = graph_to_profile(_graph(key))
        reference = PAPER_TABLE1[key]
        assert profile.mmacs == pytest.approx(reference["mmac"], rel=0.25)
        assert profile.memory_kilobytes() == pytest.approx(reference["memory_kb"], rel=0.06)

    def test_mac_reduction_factor_vs_temponet(self):
        """The headline claim: Bio1 (filter 10) needs ~4.9x fewer MACs."""
        bio1 = graph_to_profile(_graph("bio1_10"))
        tcn = graph_to_profile(_graph("temponet"))
        assert 4.0 < tcn.total_macs / bio1.total_macs < 6.5

    def test_attention_cost_scales_with_sequence_length(self):
        short = _profile(BioformerConfig(patch_size=30))
        long = _profile(BioformerConfig(patch_size=5))
        assert long.total_macs > 3 * short.total_macs

    def test_by_kind_breakdown_sums_to_total(self):
        profile = _profile(BioformerConfig())
        assert sum(profile.by_kind().values()) == profile.total_macs

    def test_memory_scales_with_bit_width(self):
        profile = _profile(BioformerConfig())
        assert profile.memory_bytes(32) == 4 * profile.memory_bytes(8)


class TestGAP8CostModel:
    @pytest.mark.parametrize("key", sorted(PAPER_TABLE1))
    def test_latency_and_energy_within_tolerance_of_table1(self, key):
        """The calibrated cost model reproduces every measured Table I row
        within 15% (latency) — the shape-level fidelity the reproduction
        targets."""
        record = _estimate(key)
        reference = PAPER_TABLE1[key]
        assert record.latency_ms == pytest.approx(reference["latency_ms"], rel=0.15)
        assert record.energy_mj == pytest.approx(reference["energy_mj"], rel=0.15)

    def test_energy_reduction_vs_temponet(self):
        """Paper: Bio1 (filter 10) consumes ~8x less energy than TEMPONet."""
        bio1 = _estimate("bio1_10")
        tcn = _estimate("temponet")
        assert 6.0 < tcn.energy_mj / bio1.energy_mj < 10.0

    def test_fewer_heads_hurt_latency_despite_fewer_macs(self):
        """Table I: Bio2 (2 heads) is slower than Bio1 (8 heads) at filter 10
        even though it executes fewer MACs."""
        bio1 = _estimate("bio1_10")
        bio2 = _estimate("bio2_10")
        assert bio2.mmacs < bio1.mmacs
        assert bio2.latency_ms > bio1.latency_ms

    def test_energy_is_latency_times_power(self):
        record = _estimate("bio1_10")
        assert record.energy_mj == pytest.approx(record.latency_ms * 51e-3, rel=1e-6)

    def test_memory_fits_l2(self):
        target = GAP8Model()
        assert target.fits_memory(_profile(BioformerConfig()))
        assert target.fits_memory(graph_to_profile(_graph("temponet")))
        assert 0.0 < target.memory_utilization(_profile(BioformerConfig())) < 1.0

    def test_dominant_layers_sorted(self):
        breakdown = GAP8Model().latency(_profile(BioformerConfig()))
        dominant = breakdown.dominant_layers(3)
        assert len(dominant) == 3
        assert dominant[0].cycles >= dominant[1].cycles >= dominant[2].cycles

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GAP8Config(num_cores=0).validate()
        with pytest.raises(ValueError):
            GAP8Config(peak_macs_per_cycle=0).validate()

    def test_custom_frequency_scales_latency(self):
        slow = _estimate("bio1_10", gap8=GAP8Config(frequency_hz=50e6))
        fast = _estimate("bio1_10", gap8=GAP8Config(frequency_hz=100e6))
        assert slow.latency_ms == pytest.approx(2 * fast.latency_ms, rel=1e-6)


class TestBatteryModel:
    def test_paper_average_power_scenario(self):
        """Sec. IV-C: 1.03 ms inference every 15 ms -> ~12.8 mW average."""
        average, duty, real_time = duty_cycle_power(1.03e-3, 15e-3, GAP8Config())
        assert real_time
        assert average == pytest.approx(12.8e-3, rel=0.05)
        assert duty == pytest.approx(1.03 / 15, rel=1e-6)

    def test_paper_battery_life_bioformer(self):
        """Sec. IV-C: ~257 h on a 1000 mAh battery for the fastest Bioformer."""
        report = battery_life_hours(1.03e-3, 15e-3, GAP8Config(), BatteryConfig())
        assert report.battery_life_hours == pytest.approx(257, rel=0.05)

    def test_paper_battery_life_temponet(self):
        """TEMPONet misses the 15 ms deadline and only lasts ~54 h."""
        report = battery_life_hours(21.82e-3, 15e-3, GAP8Config(), BatteryConfig())
        assert not report.real_time
        assert report.battery_life_hours == pytest.approx(54, rel=0.05)

    def test_longer_period_extends_life(self):
        fast = battery_life_hours(1e-3, 15e-3, GAP8Config())
        slow = battery_life_hours(1e-3, 150e-3, GAP8Config())
        assert slow.battery_life_hours > fast.battery_life_hours

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            duty_cycle_power(0.0, 1.0, GAP8Config())

    def test_battery_energy(self):
        assert BatteryConfig(capacity_mah=1000, voltage_v=3.3).energy_j == pytest.approx(11880.0)


class TestDeploymentRecord:
    """The estimate ``estimate_deployment`` returns, as one Table I row."""

    def test_record_fields_and_row(self):
        record = _estimate("bio1_10")
        assert record.profile.name.startswith("Bioformer")
        assert record.duty_cycle is not None
        row = Table1Row(
            label="Bio1, wind=10",
            memory_kb=record.memory_kilobytes,
            mmacs=record.mmacs,
            latency_ms=record.latency_ms,
            energy_mj=record.energy_mj,
            quantized_accuracy=0.6469,
            float_accuracy=None,
            battery_life_hours=record.duty_cycle.battery_life_hours,
            real_time=record.duty_cycle.real_time,
        )
        text = render_table1(Table1Result(scale=Scale.PAPER, rows=[row]))
        assert "64.69%" in text and f"{record.latency_ms:.2f}" in text

    def test_skipping_battery_projection(self):
        record = _estimate("bio1_10", inference_period_s=None)
        assert record.duty_cycle is None

    def test_deploy_accepts_model_instances(self):
        record = estimate_deployment(trace_model(bioformer_bio1(patch_size=10)))
        assert record.mmacs > 0
