"""Layers timed in isolation, through each module's public functions.

These are the per-layer numbers a workload's own trace cannot split out:
the deploy compiler (trace, lowering, per-pass times from the
``QuantizedGraph`` manifest), each backend at batch 1/8/32 with its cost
per multiply-accumulate, and the per-call cost of the windower, the voter,
a bare ``StreamSession`` and a serverless ``SessionManager`` (the last two
with a classifier that costs nothing, so only the layer's own work is
timed).  Every probe repeats its call until its share of the time budget
is spent and reports the median.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.data.windowing import StreamWindower
from repro.deploy.lowering import lower_to_int8
from repro.deploy.tracers import trace_model
from repro.serve import (
    Int8Backend,
    MajorityVoter,
    SessionManager,
    StreamSession,
    build_float_backend,
)

from geometry import CHANNELS, SLIDE, SMOOTHING, WINDOW

Metrics = Dict[str, Tuple[float, str]]
BATCHES = (1, 8, 32)
#: (backend, batch) pairs whose cost per multiply-accumulate is reported.
PER_MAC = {("int8", 1), ("int8", 32), ("float", 32)}


def _median_s(fn: Callable[[], object], budget_s: float, min_reps: int = 3) -> float:
    times: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _zero_classifier(windows: np.ndarray) -> np.ndarray:
    return np.zeros(len(windows), dtype=np.int64)


def measure(fixture, budget_s: float) -> Tuple[Metrics, Metrics]:
    """``(per-layer metrics, per-pass compile times)`` within ``budget_s``."""
    share = budget_s / 12
    out: Metrics = {}
    model, calibration = fixture.model, fixture.calibration

    # repro.deploy: trace and lower, as build_int8_backend does.
    compiles: List[Tuple[float, float, object]] = []

    def compile_once() -> None:
        start = time.perf_counter()
        graph = trace_model(model)
        traced = time.perf_counter()
        quantized = lower_to_int8(graph, calibration, use_lut=True)
        compiles.append((traced - start, time.perf_counter() - traced, quantized))

    _median_s(compile_once, share)
    out["deploy.trace_ms"] = (statistics.median(c[0] for c in compiles) * 1e3, "ms")
    out["deploy.lower_ms"] = (statistics.median(c[1] for c in compiles) * 1e3, "ms")
    passes: Metrics = {}
    for index, record in enumerate(compiles[-1][2].manifest):
        wall = statistics.median(c[2].manifest[index].wall_ms for c in compiles)
        passes[f"deploy.pass.{record.name}_ms"] = (wall, "ms")

    # repro.deploy.int_engine and repro.nn, each behind its serving backend.
    int8 = Int8Backend(compiles[-1][2])
    macs = compiles[-1][2].graph.total_macs
    windows = fixture.generator.windows(4, WINDOW, seed=2000)[0]
    for label, backend in (("int8", int8), ("float", build_float_backend(model))):
        for batch in BATCHES:
            batch_windows = windows[:batch]
            seconds = _median_s(lambda: backend.run(batch_windows), share)
            out[f"{label}.run_b{batch}_ms"] = (seconds * 1e3, "ms")
            if (label, batch) in PER_MAC:
                out[f"{label}.ns_per_mac_b{batch}"] = (seconds * 1e9 / (batch * macs), "ns")

    signal = fixture.generator.recording(range(8), 500, seed=2001).signal
    slides = [signal[:, i : i + SLIDE] for i in range(0, signal.shape[1] - SLIDE + 1, SLIDE)]
    pairs = [
        signal[:, i : i + 2 * SLIDE] for i in range(0, signal.shape[1] - 2 * SLIDE + 1, 2 * SLIDE)
    ]

    windower = StreamWindower(WINDOW, SLIDE, CHANNELS)
    next_slide = itertools.cycle(slides).__next__
    out["windowing.push_us"] = (_median_s(lambda: windower.push(next_slide()), share) * 1e6, "us")

    voter = MajorityVoter(SMOOTHING)
    labels = np.random.default_rng(0).integers(0, 8, size=100).tolist()

    def hundred_votes() -> None:
        for label in labels:
            voter.vote(label)

    out["stream.vote_us"] = (_median_s(hundred_votes, share) * 1e4, "us")

    session = StreamSession(_zero_classifier, WINDOW, SLIDE, CHANNELS, smoothing=SMOOTHING)
    out["stream.push_overhead_us"] = (
        _median_s(lambda: session.push(next_slide()), share) * 1e6,
        "us",
    )

    # repro.serve.sessions, serverless, at the fleet workload's chunk size.
    with SessionManager(
        classify=_zero_classifier,
        window=WINDOW,
        num_channels=CHANNELS,
        slide=SLIDE,
        smoothing=SMOOTHING,
    ) as manager:
        managed = manager.create_session("probe")
        next_pair = itertools.cycle(pairs).__next__
        out["sessions.push_overhead_us"] = (
            _median_s(lambda: managed.push(next_pair()), share) * 1e6,
            "us",
        )
        created, closed, restored = [], [], []
        deadline = time.perf_counter() + 3 * share
        while len(created) < 3 or time.perf_counter() < deadline:
            start = time.perf_counter()
            fresh = manager.create_session("probe")
            created.append(time.perf_counter() - start)
            fresh.push(signal[:, : WINDOW + SLIDE])
            start = time.perf_counter()
            checkpoint = manager.close_session(fresh.session_id)
            closed.append(time.perf_counter() - start)
            start = time.perf_counter()
            back = manager.restore(checkpoint)
            restored.append(time.perf_counter() - start)
            manager.close_session(back.session_id)
    out["sessions.create_ms"] = (statistics.median(created) * 1e3, "ms")
    out["sessions.close_ms"] = (statistics.median(closed) * 1e3, "ms")
    out["sessions.restore_ms"] = (statistics.median(restored) * 1e3, "ms")
    return out, passes
