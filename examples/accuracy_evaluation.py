"""Streaming accuracy evaluation — grade the serving tier end to end.

The paper's headline online number is the *smoothed streaming accuracy*
of a 5-window majority vote over a continuous sEMG stream.  This example
measures it — and everything around it — with :mod:`repro.eval`:

1. build a seeded :class:`~repro.eval.RecordingGenerator` and train a
   small probe Bioformer on class-conditioned windows
   (:func:`~repro.eval.fit_probe_model`; fully deterministic, never sees
   the evaluation recordings);
2. compose a labelled multi-gesture recording with exact transition
   boundaries and stream it through a managed session
   (:class:`~repro.serve.SessionManager` over a live
   :class:`~repro.serve.InferenceServer`), grading every decision:
   window accuracy, post-vote accuracy per vote depth (1/3/5/9),
   per-transition lag in windows and decision latency in milliseconds;
3. repeat under the default corruption suite
   (:class:`~repro.eval.ScenarioSuite`: noise, a dead electrode flagged
   ``degraded`` by the session layer, intermittent dropout, inter-session
   drift) and compare;
4. sweep serving deadlines with :func:`~repro.eval.accuracy_vs_deadline`
   — the accuracy/shed trade-off whose unlimited point the benchmark
   gates against ``BENCH_accuracy.json``.

Run with::

    python examples/accuracy_evaluation.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.eval import (  # noqa: E402
    RecordingGenerator,
    ScenarioSuite,
    StreamEvaluator,
    accuracy_vs_deadline,
    fit_probe_model,
)
from repro.serve import BackendCache, InferenceServer  # noqa: E402

WINDOW, SLIDE, SMOOTHING = 60, 30, 5


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main():
    banner("1. Probe model (deterministic, trained on generator windows)")
    generator = RecordingGenerator(
        num_channels=4, num_classes=5, class_separation=2.5, noise_std=0.25, seed=7
    )
    probe = fit_probe_model(generator, WINDOW, windows_per_class=16, epochs=6)
    print(f"generator: {generator.num_classes} classes x {generator.num_channels} ch")
    print(f"probe:     {type(probe).__name__} trained on held-out windows")

    recording = generator.recording(
        [0, 2, 1, 3, 2, 4, 1, 0], 600, seed=5, name="demo"
    )
    print(f"recording: {recording} ({recording.duration_s:.2f}s)")

    with InferenceServer(probe, "float", cache=BackendCache()) as server:
        manager = server.open_session_manager(slide=SLIDE, smoothing=SMOOTHING)
        evaluator = StreamEvaluator(manager, slide=SLIDE, smoothing=SMOOTHING)

        banner("2. Clean streaming accuracy (managed session, majority vote)")
        clean = evaluator.evaluate(recording)
        print(f"windows:            {clean.num_windows}")
        print(f"window accuracy:    {clean.window_accuracy:.3f}")
        print(f"post-vote accuracy: {clean.smoothed_accuracy:.3f} (depth {SMOOTHING})")
        for depth, accuracy in sorted(clean.accuracy_by_depth.items()):
            print(f"  depth {depth}: {accuracy:.3f}")
        print(
            f"transitions: {len(clean.transitions)} "
            f"(mean lag {clean.mean_transition_lag_windows:.2f} windows, "
            f"mean latency {clean.mean_decision_latency_ms:.1f} ms)"
        )

        banner("3. Robustness sweep (corruption scenarios)")
        print(
            f"{'scenario':>14} {'window':>8} {'post-vote':>10} "
            f"{'degraded':>9} {'lag':>6}"
        )
        for name, rep in evaluator.evaluate_suite(
            recording, ScenarioSuite.default(seed=1)
        ).items():
            lag = (
                f"{rep.mean_transition_lag_windows:.2f}"
                if rep.mean_transition_lag_windows is not None
                else "-"
            )
            print(
                f"{name:>14} {rep.window_accuracy:>8.3f} "
                f"{rep.smoothed_accuracy:>10.3f} {rep.degraded_rate:>9.3f} {lag:>6}"
            )

        banner("4. Accuracy vs deadline (burst submission)")
        curve = accuracy_vs_deadline(
            server, recording, slide=SLIDE, smoothing=SMOOTHING,
            deadlines=(None, 0.1, 0.01, 0.0),
        )
        print(f"{'deadline':>10} {'shed':>7} {'window':>8} {'post-vote':>10}")
        for point in curve.points:
            tag = (
                "unlimited"
                if point.deadline_s is None
                else f"{point.deadline_s * 1e3:g}ms"
            )
            print(
                f"{tag:>10} {point.shed_rate:>7.3f} "
                f"{point.window_accuracy:>8.3f} {point.smoothed_accuracy:>10.3f}"
            )
        print(
            "\nThe unlimited point is deterministic and gated against "
            "BENCH_accuracy.json by benchmarks/test_eval_accuracy.py."
        )


if __name__ == "__main__":
    main()
