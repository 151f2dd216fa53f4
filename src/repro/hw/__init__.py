"""``repro.hw`` — the GAP8 deployment substrate.

Complexity profile types (MACs / parameters per layer), a calibrated GAP8
latency & energy model, memory-fit checks, duty-cycle power analysis and
battery-life projection.  :func:`repro.deploy.estimate_deployment` feeds
them the profile of a traced model.
"""

from .battery import BatteryConfig, DutyCycleReport, battery_life_hours, duty_cycle_power
from .gap8 import GAP8Config, GAP8Model, LatencyBreakdown, LayerCost
from .profiler import LayerProfile, ModelProfile

__all__ = [
    "LayerProfile",
    "ModelProfile",
    "GAP8Config",
    "GAP8Model",
    "LayerCost",
    "LatencyBreakdown",
    "BatteryConfig",
    "DutyCycleReport",
    "duty_cycle_power",
    "battery_life_hours",
]
