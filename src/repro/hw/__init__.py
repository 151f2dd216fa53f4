"""``repro.hw`` — the GAP8 deployment substrate.

A calibrated GAP8 latency & energy model that prices the nodes of a
compute graph, duty-cycle power analysis and battery-life projection.
:func:`repro.deploy.estimate_deployment` feeds it a traced model, and the
L1 tiler (:func:`repro.deploy.plan_tiling`) reads the same
:class:`GAP8Config`.
"""

from .battery import BatteryConfig, DutyCycleReport, battery_life_hours, duty_cycle_power
from .gap8 import GAP8Config, GAP8Model, LatencyBreakdown, LayerCost

__all__ = [
    "GAP8Config",
    "GAP8Model",
    "LayerCost",
    "LatencyBreakdown",
    "BatteryConfig",
    "DutyCycleReport",
    "duty_cycle_power",
    "battery_life_hours",
]
