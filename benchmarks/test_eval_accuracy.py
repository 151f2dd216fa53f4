"""Streaming accuracy trajectory: scenario sweep + accuracy vs deadline.

Runs the standard robustness sweep (``ScenarioSuite.default``) and the
accuracy-vs-deadline curve through a *real* ``InferenceServer`` with a
deterministically trained probe model on seeded synthetic recordings, and
gates against the baseline recorded in ``BENCH_accuracy.json`` (read only:
running the suite never writes a tracked file).

Two gates:

* **absolute floor** — the clean-scenario post-vote accuracy must clear
  a generous floor (0.75) so a collapsed probe model or broken stream
  path cannot silently record a garbage baseline;
* **recorded baseline** — the unlimited-deadline post-vote accuracy at
  the default vote depth must not drop below the best value recorded in
  ``BENCH_accuracy.json``.  Everything in the pipeline (generator,
  probe training, windowing, voting) is seeded, so this point is exactly
  reproducible: any drop means the numerics changed, not the dice.

Finite-deadline points depend on host timing (queue depth races the
clock) and are reported but never gated.
"""

import json
import os

import numpy as np
import pytest

from repro.eval import (
    RecordingGenerator,
    ScenarioSuite,
    StreamEvaluator,
    accuracy_vs_deadline,
    fit_probe_model,
)
from repro.serve import BackendCache, InferenceServer

from conftest import report

GEOMETRY = dict(num_channels=4, num_classes=5)
WINDOW, SLIDE, SMOOTHING = 60, 30, 5
SEGMENT_LABELS = [0, 2, 1, 3, 2, 4, 1, 0]
SEGMENT_SAMPLES = 600
RECORDING_SEED = 5
DEADLINES = (None, 0.1, 0.01, 0.0)
#: Collapse guard for the clean scenario's post-vote accuracy.
ACCURACY_FLOOR = 0.75
#: Slack against the best recorded baseline (exactly-reproducible point,
#: but the gate tolerates float-print rounding in the trajectory file).
BASELINE_TOLERANCE = 1e-3

_BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_accuracy.json",
)


def _load_history() -> list:
    if not os.path.exists(_BENCH_PATH):
        return []
    try:
        with open(_BENCH_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle).get("history", [])
    except (json.JSONDecodeError, OSError):
        return []  # a corrupt trajectory must never fail the suite


@pytest.fixture(scope="module")
def generator():
    return RecordingGenerator(
        class_separation=2.5, noise_std=0.25, seed=7, **GEOMETRY
    )


@pytest.fixture(scope="module")
def probe(generator):
    return fit_probe_model(generator, WINDOW, windows_per_class=16, epochs=6)


@pytest.fixture(scope="module")
def recording(generator):
    return generator.recording(
        SEGMENT_LABELS, SEGMENT_SAMPLES, seed=RECORDING_SEED, name="bench"
    )


def _render_scenarios(reports):
    lines = [
        f"{'scenario':>14} {'window acc':>10} {'post-vote':>10} "
        f"{'degraded':>9} {'lag (win)':>10} {'latency ms':>11}"
    ]
    for name, rep in reports.items():
        lag = (
            f"{rep.mean_transition_lag_windows:.2f}"
            if rep.mean_transition_lag_windows is not None
            else "-"
        )
        latency = (
            f"{rep.mean_decision_latency_ms:.1f}"
            if rep.mean_decision_latency_ms is not None
            else "-"
        )
        lines.append(
            f"{name:>14} {rep.window_accuracy:>10.3f} "
            f"{rep.smoothed_accuracy:>10.3f} {rep.degraded_rate:>9.3f} "
            f"{lag:>10} {latency:>11}"
        )
    return "\n".join(lines)


def test_scenario_sweep_accuracy(probe, recording):
    """Robustness sweep through the managed session layer, recorded."""
    suite = ScenarioSuite.default(seed=1)
    with InferenceServer(probe, "float", cache=BackendCache()) as server:
        manager = server.open_session_manager(slide=SLIDE, smoothing=SMOOTHING)
        evaluator = StreamEvaluator(manager, slide=SLIDE, smoothing=SMOOTHING)
        reports = evaluator.evaluate_suite(recording, suite)
    report(
        "Streaming accuracy — scenario sweep (probe model, managed sessions)",
        _render_scenarios(reports),
    )
    clean = reports["clean"]
    assert clean.smoothed_accuracy >= ACCURACY_FLOOR, (
        f"clean post-vote accuracy {clean.smoothed_accuracy:.3f} below the "
        f"collapse floor {ACCURACY_FLOOR}"
    )
    # The dead-electrode scenario must be flagged by the session layer.
    assert reports["dead_electrode"].degraded_rate > 0.9
    assert clean.degraded_rate == 0.0


def test_accuracy_vs_deadline_curve_and_baseline_gate(probe, recording):
    """The deadline trade-off curve + the trajectory's accuracy gate."""
    with InferenceServer(probe, "float", cache=BackendCache()) as server:
        curve = accuracy_vs_deadline(
            server,
            recording,
            slide=SLIDE,
            smoothing=SMOOTHING,
            deadlines=DEADLINES,
        )
    assert len(curve.points) >= 3
    lines = [
        f"{'deadline':>10} {'shed rate':>10} {'window acc':>11} {'post-vote':>10}"
    ]
    for point in curve.points:
        tag = "unlimited" if point.deadline_s is None else f"{point.deadline_s*1e3:g}ms"
        lines.append(
            f"{tag:>10} {point.shed_rate:>10.3f} "
            f"{point.window_accuracy:>11.3f} {point.smoothed_accuracy:>10.3f}"
        )
    report("Accuracy vs deadline (probe model, burst submission)", "\n".join(lines))
    unlimited = curve.unlimited
    assert unlimited.shed == 0
    # deadline 0 sheds the whole burst: the curve's floor is real.
    zero = [p for p in curve.points if p.deadline_s == 0.0]
    if zero:
        assert zero[0].shed_rate == pytest.approx(1.0)

    # ---- baseline gate: never fall below the recorded baseline ------- #
    baseline = None
    for entry in _load_history():
        recorded = (
            entry.get("metrics", {})
            .get("deadline_unlimited", {})
            .get("smoothed_accuracy")
        )
        if recorded is not None:
            baseline = max(baseline, recorded) if baseline is not None else recorded
    if baseline is not None:
        assert unlimited.smoothed_accuracy >= baseline - BASELINE_TOLERANCE, (
            f"post-vote accuracy at the default depth regressed: "
            f"{unlimited.smoothed_accuracy:.4f} < recorded baseline "
            f"{baseline:.4f} (BENCH_accuracy.json)"
        )
    assert unlimited.smoothed_accuracy >= ACCURACY_FLOOR
