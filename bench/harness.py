"""Workloads, fixture and correctness checks of the serving benchmark.

The benchmark drives ``repro.serve`` from outside, through its public API
only, at the paper's geometry: a bio2 Bioformer over 14 channels x 300
samples (150 ms at 2 kHz), a 30-sample (15 ms) slide and a 5-deep
majority vote.  The model is fixed: it is trained once per process by
``repro.eval.fit_probe_model`` (generator seed 7, probe seed 0).  So are
the graded recordings: they come from one corpus seed, so both accuracies
read the same for every ``--seed`` of a given length.  The ``--seed``
chooses when each chunk arrives on the open loops and the order in which
the bulk client cycles through its blocks.

Every server uses the library defaults (``max_batch_size=16``,
``max_wait_s=0.002``, one worker), so a change to a default shows up as a
measured change rather than as a benchmark edit.  In every workload one
stream, session slot or block carries six dead electrodes (the last of the
three streams, one slot in four, one block in four); its decisions are
graded separately as ``degraded_accuracy``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.windowing import StreamWindower, sliding_window_count, sliding_windows
from repro.eval import RecordingGenerator, Scenario, fit_probe_model
from repro.eval.recordings import GestureSegment, SyntheticRecording
from repro.serve import BackendCache, InferenceServer, MajorityVoter, Priority

import probes
from geometry import CHANNELS, NUM_CLASSES, SAMPLING_HZ, SLIDE, SMOOTHING, WINDOW
from spans import RequestLog, SpanTree, TracedBackend, match_requests, percentile

#: Every gesture is held for one second.
SEGMENT_SAMPLES = 2000
NUM_DEAD = 6
GENERATOR_SEED, PROBE_SEED = 7, 0
#: Seed of the graded recordings, disjoint from the fixture's windows.
CORPUS_SEED = 3000
#: Fresh server builds per run; ``setup_s`` is their median.
SETUP_BUILDS = 5
#: Served windows re-run one at a time through ``server.backend.run``.
CHECK_WINDOWS = 64
TENANTS = (("clinic", Priority.HIGH), ("home", Priority.NORMAL), ("research", Priority.LOW))

Metrics = Dict[str, Tuple[float, str]]


# --------------------------------------------------------------------- #
# Fixture and inputs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Fixture:
    """The trained model and the constant windows every run shares."""

    generator: RecordingGenerator
    model: object
    calibration: np.ndarray
    warmup: np.ndarray


def load_fixture(windows_per_class: int = 24, epochs: int = 8) -> Fixture:
    """Train the probe model (the defaults are ``fit_probe_model``'s own)."""
    generator = RecordingGenerator(CHANNELS, NUM_CLASSES, SAMPLING_HZ, seed=GENERATOR_SEED)
    model = fit_probe_model(
        generator, WINDOW, seed=PROBE_SEED, windows_per_class=windows_per_class, epochs=epochs
    )
    # Seed streams 1000 and 1001 are disjoint from the probe's training
    # windows and from every recording a run composes.
    calibration = generator.windows(2, WINDOW, seed=1000)[0]
    warmup = generator.windows(2, WINDOW, seed=1001)[0]
    return Fixture(generator, model, calibration, warmup)


class RecordingSource:
    """The labelled recordings a workload plays, in order, from the corpus seed.

    Gesture labels come from two streams of shuffled permutations of every
    class, one for clean and one for dead-electrode recordings, so each
    run grades a balanced class mix whatever the recordings' lengths.
    The run's ``--seed`` plays no part: accuracy is a property of the
    model and the serving path, and must not move with the load's timing.
    """

    def __init__(self, generator: RecordingGenerator) -> None:
        self.generator = generator
        self._rngs = {
            dead: np.random.default_rng((CORPUS_SEED, int(dead))) for dead in (False, True)
        }
        self._labels: Dict[bool, List[int]] = {False: [], True: []}
        self._made = 0

    def take(self, samples: int, dead: bool) -> SyntheticRecording:
        """The next recording, exactly ``samples`` long."""
        segments = -(-samples // SEGMENT_SAMPLES)
        queue = self._labels[dead]
        while len(queue) < segments:
            queue.extend(int(c) for c in self._rngs[dead].permutation(NUM_CLASSES))
        labels, self._labels[dead] = queue[:segments], queue[segments:]
        index, self._made = self._made, self._made + 1
        full = self.generator.recording(
            labels,
            SEGMENT_SAMPLES,
            seed=CORPUS_SEED * 100_000 + index,
            name=f"r{index}",
        )
        kept = tuple(
            GestureSegment(s.label, s.start, min(s.stop, samples))
            for s in full.segments
            if s.start < samples
        )
        recording = SyntheticRecording(full.name, full.signal[:, :samples], kept, SAMPLING_HZ)
        if dead:
            recording = Scenario("dead", kind="dead_electrodes", num_dead=NUM_DEAD).apply(recording)
        return recording


def schedule(seed: int, ticks: int, lanes: int, period_s: float, jitter_s: float):
    """``(due offset, tick, lane)`` of every event of an open loop, in due order.

    Lanes (streams or session slots) are staggered evenly over the period,
    and every event is delayed by a seeded uniform jitter below
    ``jitter_s``, as chunks from radio or USB links arrive.  Without it a
    run locks into one relative alignment of the lanes, and how requests
    pair into batches (and so the latency) differs from run to run.  The
    jitter is shorter than the period, so each lane's events keep their
    order.
    """
    if not 0 <= jitter_s < period_s:
        raise ValueError("jitter must be non-negative and shorter than the period")
    rng = np.random.default_rng((seed, 2))
    due = (np.arange(ticks)[:, None] + np.arange(lanes)[None, :] / lanes) * period_s
    due = due + rng.uniform(0.0, jitter_s, size=due.shape)
    order = np.argsort(due, axis=None, kind="stable")
    ticks_of, lanes_of = np.unravel_index(order, due.shape)
    return list(zip(due.ravel()[order].tolist(), ticks_of.tolist(), lanes_of.tolist()))


def _sleep_until(instant: float) -> None:
    delay = instant - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _same_logits(backend: str, served: np.ndarray, reference: np.ndarray) -> bool:
    """int8 answers must be bitwise equal; float ones equal in argmax and close."""
    if backend == "int8":
        return np.array_equal(served, reference)
    return bool(
        np.array_equal(np.argmax(served, -1), np.argmax(reference, -1))
        and np.allclose(served, reference, rtol=1e-9, atol=1e-12)
    )


def _vote(labels: Sequence[Optional[int]]) -> np.ndarray:
    """Replay one stream's votes in window order.  A failed window holds the
    last decision (``-1``, never correct, before the first one)."""
    voter, last, out = MajorityVoter(SMOOTHING), -1, []
    for label in labels:
        if label is not None:
            last = voter.vote(label)
        out.append(last)
    return np.asarray(out)


# --------------------------------------------------------------------- #
# One timed pass
# --------------------------------------------------------------------- #
@dataclass
class Root:
    """A top-level span: its own child spans plus the requests it sent."""

    name: str
    start: float
    end: float
    children: List[Tuple[str, float, float]]
    requests: range


@dataclass
class Pass:
    """What one timed phase of a workload measured and checked."""

    log: Optional[RequestLog] = None
    sent: int = 0
    ok: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    windows: int = 0
    wall_s: float = 0.0
    correct: Dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})
    graded: Dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})
    failures: List[str] = field(default_factory=list)
    roots: List[Root] = field(default_factory=list)
    #: ``server.stats`` before and after the timed phase.
    stats: tuple = ()

    def mark(self) -> int:
        """Requests logged so far (0 when the pass is not traced)."""
        return len(self.log) if self.log is not None else 0

    def grade(self, degraded: bool, decisions: np.ndarray, truth: np.ndarray) -> None:
        self.correct[degraded] += int(np.sum(decisions == truth))
        self.graded[degraded] += len(truth)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def accuracy(self, degraded: bool) -> float:
        graded = self.graded[degraded]
        return self.correct[degraded] / graded if graded else math.nan


@dataclass(frozen=True)
class StreamLoad:
    """Open loop: real-time streams, each pushing one slide per period.

    Three streams, not four: with a CPU-bound process competing for the
    host, p50 rose to 59 ms at four streams against 18 ms at three, while
    both read about 8 ms without one.
    """

    streams: int = 3
    period_s: float = 0.015
    jitter_s: float = 0.005
    deadline_ms: Optional[float] = 15.0

    def make_inputs(self, fixture: Fixture, seed: int, seconds: float):
        chunks = max(1, round(seconds / self.period_s))
        source = RecordingSource(fixture.generator)
        recordings = [
            source.take(WINDOW - SLIDE + chunks * SLIDE, dead=s == self.streams - 1)
            for s in range(self.streams)
        ]
        return recordings, schedule(seed, chunks, self.streams, self.period_s, self.jitter_s)

    def drive(self, server, manager, inputs, seconds, result: Pass) -> None:
        recordings, events = inputs
        windowers = []
        for recording in recordings:
            windower = StreamWindower(WINDOW, SLIDE, CHANNELS)
            windower.push(recording.signal[:, : WINDOW - SLIDE])
            windowers.append(windower)
        count = len(events)
        due, begin, call = np.empty(count), np.empty(count), np.empty(count)
        done = np.full(count, np.nan)
        futures, marks = [], []
        t0 = time.perf_counter() + 0.01
        for i, (offset, k, s) in enumerate(events):
            due[i] = t0 + offset
            _sleep_until(due[i])
            begin[i] = time.perf_counter()
            lo = WINDOW - SLIDE + k * SLIDE
            window = windowers[s].push(recordings[s].signal[:, lo : lo + SLIDE])[0]
            marks.append(result.mark())
            call[i] = time.perf_counter()
            future = server.submit(window, priority=Priority.HIGH)
            future.add_done_callback(lambda _f, i=i: done.__setitem__(i, time.perf_counter()))
            futures.append(future)
        logits: List[Optional[np.ndarray]] = []
        for future in futures:
            try:
                logits.append(future.result(timeout=60.0))
            except Exception:  # a failed request is counted, not fatal
                logits.append(None)
        answered = [row is not None for row in logits]
        result.sent = count
        result.ok = result.windows = sum(answered)
        result.failed = count - result.ok
        result.wall_s = float(np.nanmax(done)) - t0
        result.late_ms = list((begin - due) * 1e3)
        by_stream: Dict[int, Dict[int, Optional[np.ndarray]]] = {}
        for i, (_, k, s) in enumerate(events):
            by_stream.setdefault(s, {})[k] = logits[i]
            result.latencies_ms.append((done[i] - due[i]) * 1e3 if answered[i] else math.inf)
            result.roots.append(
                Root(
                    "stream.decision",
                    due[i],
                    done[i],
                    [("generator.late", due[i], begin[i]), ("windowing.push", begin[i], call[i])],
                    range(marks[i], marks[i] + (result.log is not None)),
                )
            )
        for s, recording in enumerate(recordings):
            rows = by_stream[s]
            labels = [None if rows[k] is None else int(np.argmax(rows[k])) for k in sorted(rows)]
            result.grade(s == len(recordings) - 1, _vote(labels), recording.window_labels(WINDOW, SLIDE))
        rng = np.random.default_rng(count)
        served = [i for i in range(count) if answered[i]]
        for i in rng.choice(served, size=min(CHECK_WINDOWS, len(served)), replace=False):
            _, k, s = events[int(i)]
            window = recordings[s].signal[:, k * SLIDE : k * SLIDE + WINDOW]
            result.check(
                _same_logits(server.backend_name, logits[i], server.backend.run(window[None])[0]),
                f"stream {s} window {k}: served logits differ from a batch-1 re-run",
            )


@dataclass
class _SessionPlan:
    index: int
    slot: int
    start: int
    pushes: int
    tenant: str
    degraded: bool
    migrate_at: Optional[int]
    recording: SyntheticRecording


@dataclass(frozen=True)
class FleetLoad:
    """Open schedule of managed sessions, with lifecycle writes beside pushes."""

    slots: int = 4
    period_s: float = 0.030
    jitter_s: float = 0.005
    chunk: int = 60
    lifetime_pushes: int = 100
    deadline_ms: Optional[float] = 30.0

    def make_inputs(self, fixture: Fixture, seed: int, seconds: float):
        ticks = max(1, round(seconds / self.period_s))
        spans = []
        for slot in range(self.slots):
            # Each slot's first session is shortened, so the slots' closes
            # and creates are staggered instead of simultaneous.
            tick, life = 0, max(1, self.lifetime_pushes * (slot + 1) // self.slots)
            while tick < ticks:
                pushes = min(life, ticks - tick)
                spans.append((tick, slot, pushes))
                tick, life = tick + pushes, self.lifetime_pushes
        source = RecordingSource(fixture.generator)
        plans = []
        for index, (start, slot, pushes) in enumerate(sorted(spans)):
            degraded = slot % 4 == 3
            plans.append(
                _SessionPlan(
                    index=index,
                    slot=slot,
                    start=start,
                    pushes=pushes,
                    tenant=TENANTS[index % len(TENANTS)][0],
                    degraded=degraded,
                    migrate_at=pushes // 2 if index % 8 == 5 and pushes >= 2 else None,
                    recording=source.take(pushes * self.chunk, dead=degraded),
                )
            )
        return plans, schedule(seed, ticks, self.slots, self.period_s, self.jitter_s)

    def drive(self, server, manager, inputs, seconds, result: Pass) -> None:
        plans, events = inputs
        starting = {(plan.start, plan.slot): plan for plan in plans}
        live: Dict[int, list] = {}  # slot -> [plan, session, decisions so far]
        decisions: Dict[int, list] = {}
        t0 = time.perf_counter() + 0.01
        for offset, k, slot in events:
            due = t0 + offset
            _sleep_until(due)
            begin = time.perf_counter()
            if (k, slot) in starting:
                plan = starting[(k, slot)]
                live[slot] = [plan, manager.create_session(plan.tenant), []]
            plan, session, made = live[slot]
            j = k - plan.start
            if j == plan.migrate_at:
                checkpoint = manager.close_session(session.session_id)
                made.extend(session.decisions)
                session = live[slot][1] = manager.restore(checkpoint)
            lo = result.mark()
            call = time.perf_counter()
            result.sent += 1
            try:
                session.push(plan.recording.signal[:, j * self.chunk : (j + 1) * self.chunk])
            except Exception:  # a failed push is counted, not fatal
                result.failed += 1
                result.latencies_ms.append(math.inf)
            else:
                result.ok += 1
                result.latencies_ms.append((time.perf_counter() - due) * 1e3)
            ret = time.perf_counter()
            result.late_ms.append((begin - due) * 1e3)
            children = [("generator.late", due, begin)]
            if j == 0 or j == plan.migrate_at:
                children.append(("sessions.lifecycle", begin, call))
            result.roots.append(Root("sessions.push", due, ret, children, range(lo, result.mark())))
            if j == plan.pushes - 1:
                manager.close_session(session.session_id)
                decisions[plan.index] = made + list(session.decisions)
                del live[slot]
        result.wall_s = time.perf_counter() - t0
        sampled = []
        for plan in plans:
            made = decisions[plan.index]
            expected = sliding_window_count(plan.recording.num_samples, WINDOW, SLIDE)
            result.check(
                len(made) == expected,
                f"session {plan.index}: {len(made)} decisions for {expected} windows",
            )
            result.check(
                all(d.degraded == plan.degraded for d in made),
                f"session {plan.index}: degraded flags disagree with its signal",
            )
            result.windows += len(made)
            truth = plan.recording.window_labels(WINDOW, SLIDE)[: len(made)]
            result.grade(plan.degraded, np.asarray([d.smoothed_label for d in made]), truth)
            sampled.extend((plan, d) for d in made)
        rng = np.random.default_rng(len(plans))
        for i in rng.choice(len(sampled), size=min(CHECK_WINDOWS, len(sampled)), replace=False):
            plan, decision = sampled[int(i)]
            lo = decision.window_index * SLIDE
            window = plan.recording.signal[:, lo : lo + WINDOW]
            label = int(np.argmax(server.backend.run(window[None])[0]))
            result.check(
                label == decision.label,
                f"session {plan.index} window {decision.window_index}: served "
                f"label {decision.label}, batch-1 re-run {label}",
            )


@dataclass(frozen=True)
class BulkLoad:
    """Closed loop: one client scoring blocks of windows at LOW priority."""

    block: int = 256
    pool_blocks: int = 8
    deadline_ms: Optional[float] = None

    def make_inputs(self, fixture: Fixture, seed: int, seconds: float):
        """The pooled blocks, and the seeded order the client cycles through them."""
        source = RecordingSource(fixture.generator)
        pool = []
        for b in range(self.pool_blocks):
            recording = source.take(WINDOW + (self.block - 1) * SLIDE, dead=b % 4 == 3)
            pool.append(
                (
                    sliding_windows(recording.signal, WINDOW, SLIDE),
                    recording.window_labels(WINDOW, SLIDE),
                )
            )
        return pool, np.random.default_rng((seed, 3)).permutation(self.pool_blocks).tolist()

    def drive(self, server, manager, inputs, seconds, result: Pass) -> None:
        pool, order = inputs
        first: List[Optional[np.ndarray]] = [None] * len(pool)
        t0 = time.perf_counter()
        end, previous, i = t0 + seconds, t0, 0
        # Accuracy is graded on the first answer of every pooled block, so
        # the loop always completes one pass over the pool.
        while i < len(pool) or time.perf_counter() < end:
            b = order[i % len(pool)]
            windows = pool[b][0]
            lo = result.mark()
            call = time.perf_counter()
            result.late_ms.append((call - previous) * 1e3)
            result.roots.append(Root("generator.late", previous, call, [], range(0)))
            # What server.infer does, with each window's completion timed.
            done = np.full(len(windows), np.nan)
            futures = []
            for j, window in enumerate(windows):
                future = server.submit(window, priority=Priority.LOW)
                future.add_done_callback(lambda _f, j=j: done.__setitem__(j, time.perf_counter()))
                futures.append(future)
            rows: List[Optional[np.ndarray]] = []
            for future in futures:
                try:
                    rows.append(future.result(timeout=60.0))
                except Exception:  # a failed request is counted, not fatal
                    rows.append(None)
            previous = time.perf_counter()
            result.roots.append(Root("client.infer", call, previous, [], range(lo, result.mark())))
            for j, row in enumerate(rows):
                result.latencies_ms.append(math.inf if row is None else (done[j] - call) * 1e3)
            answered = sum(row is not None for row in rows)
            result.sent += len(rows)
            result.ok += answered
            result.failed += len(rows) - answered
            if answered == len(rows):
                logits = np.stack(rows)
                if first[b] is None:
                    first[b] = logits
                else:
                    result.check(
                        _same_logits(server.backend_name, logits, first[b]),
                        f"block {b}: a repeated answer differs from the first",
                    )
            i += 1
        result.wall_s = previous - t0
        result.windows = result.ok
        for b, (_, truth) in enumerate(pool):
            if first[b] is not None:
                result.grade(b % 4 == 3, np.argmax(first[b], -1), truth)
        answered_blocks = [b for b in range(len(pool)) if first[b] is not None]
        rng = np.random.default_rng(len(pool))
        for _ in range(CHECK_WINDOWS if answered_blocks else 0):
            b = int(rng.choice(answered_blocks))
            row = int(rng.integers(len(pool[b][0])))
            reference = server.backend.run(pool[b][0][row][None])[0]
            result.check(
                _same_logits(server.backend_name, first[b][row], reference),
                f"block {b} row {row}: served logits differ from a batch-1 re-run",
            )


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    load: object


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("stream-int8", "int8", StreamLoad()),
        Workload("fleet-float", "float", FleetLoad()),
        Workload("bulk-int8", "int8", BulkLoad()),
        Workload("bulk-float", "float", BulkLoad()),
    )
}


# --------------------------------------------------------------------- #
# Set-up, passes and metrics
# --------------------------------------------------------------------- #
def build(fixture: Fixture, workload: Workload, backend_wrapper=None):
    """A fresh server (and, for fleet, its session manager) that has answered
    one request.  A new ``BackendCache`` forces a full backend build."""
    server = InferenceServer(
        fixture.model,
        workload.backend,
        calibration=fixture.calibration if workload.backend == "int8" else None,
        cache=BackendCache(),
        backend_wrapper=backend_wrapper,
    )
    manager = None
    if isinstance(workload.load, FleetLoad):
        manager = server.open_session_manager(slide=SLIDE, smoothing=SMOOTHING)
        for tenant, priority in TENANTS:
            manager.configure_tenant(tenant, priority=priority)
    server.infer(fixture.warmup[:1])
    return server, manager


def measure_setup(fixture: Fixture, workload: Workload):
    """Median build time of ``SETUP_BUILDS`` builds; the last build is kept."""
    times, built = [], None
    for _ in range(SETUP_BUILDS):
        if built is not None:
            built[0].close()
        start = time.perf_counter()
        built = build(fixture, workload)
        times.append(time.perf_counter() - start)
    return statistics.median(times), built


def timed_pass(fixture, workload, server, manager, seed, seconds, traced=None) -> Pass:
    """Make the inputs, warm up, then drive the workload for ``seconds``."""
    inputs = workload.load.make_inputs(fixture, seed, seconds)
    server.infer(fixture.warmup)  # fill lazy state at full batch before timing
    result = Pass()
    if traced is not None:
        traced.calls.clear()
        result.log = RequestLog()
        result.log.instrument(server)
    gc.collect()
    before = server.stats
    workload.load.drive(server, manager, inputs, seconds, result)
    result.stats = (before, server.stats)
    result.check(
        result.sent == result.ok + result.failed,
        f"sent {result.sent} != ok {result.ok} + failed {result.failed}",
    )
    return result


def end_to_end(result: Pass, setup_s: float) -> Metrics:
    return {
        "decision_accuracy": (result.accuracy(False), "fraction"),
        "degraded_accuracy": (result.accuracy(True), "fraction"),
        "setup_s": (setup_s, "s"),
    }


def diagnostics(workload: Workload, result: Pass) -> Metrics:
    """Printed beside the end-to-end metrics, but not gated: over runs at
    different times, the spread of each timing exceeds the bound it was
    meant to hold (10% for p50 and throughput, 15% for p90).
    ``bench/README.md`` records the spreads."""
    out: Metrics = {
        "diag.windows_per_s": (result.windows / result.wall_s, "1/s"),
        "diag.decision_p50_ms": (percentile(result.latencies_ms, 50), "ms"),
        "diag.decision_p90_ms": (percentile(result.latencies_ms, 90), "ms"),
        "diag.decision_p99_ms": (percentile(result.latencies_ms, 99), "ms"),
        "requests_sent": (result.sent, "count"),
        "requests_ok": (result.ok, "count"),
        "requests_failed": (result.failed, "count"),
    }
    limit = workload.load.deadline_ms
    if limit is not None:
        missed = sum(latency > limit for latency in result.latencies_ms)
        out["diag.deadline_miss_ratio"] = (missed / len(result.latencies_ms), "fraction")
    return out


def per_layer(result: Pass, traced: TracedBackend) -> Tuple[Metrics, SpanTree]:
    """Layer metrics and the span tree of one traced pass."""
    log, calls = result.log, traced.calls
    owner = match_requests(calls, log.done)
    tree = SpanTree()
    for root in result.roots:
        parent = tree.add(root.name, root.start, root.end)
        for name, start, end in root.children:
            tree.add(name, start, end, parent)
        for request in root.requests:
            tree.add_request(parent, request, log, calls, owner)
    before, after = result.stats
    batches = after.batches - before.batches
    backend_ms = [(end - start) * 1e3 for start, end, _ in calls]
    wait = [max(0.0, calls[owner[r]][0] - log.ret[r]) * 1e3 for r in range(len(log))]
    settle = [(log.done[r] - calls[owner[r]][1]) * 1e3 for r in range(len(log))]
    submit = [(log.ret[r] - log.call[r]) * 1e6 for r in range(len(log))]
    metrics: Metrics = {
        "server.submit_us": (percentile(submit, 50), "us"),
        "batcher.wait_p50_ms": (percentile(wait, 50), "ms"),
        "batcher.wait_p90_ms": (percentile(wait, 90), "ms"),
        "batcher.settle_p50_ms": (percentile(settle, 50), "ms"),
        "batcher.mean_batch": ((after.requests - before.requests) / batches, "count"),
        "batcher.batches": (batches, "count"),
        "backend.run_p50_ms": (percentile(backend_ms, 50), "ms"),
        "backend.ms_per_window": (sum(backend_ms) / sum(n for _, _, n in calls), "ms"),
        "backend.busy_share": (sum(backend_ms) / 1e3 / result.wall_s, "fraction"),
        "generator.late_p50_ms": (percentile(result.late_ms, 50), "ms"),
        "generator.late_p90_ms": (percentile(result.late_ms, 90), "ms"),
    }
    return metrics, tree


# --------------------------------------------------------------------- #
# A whole run of one workload
# --------------------------------------------------------------------- #
@dataclass
class Result:
    """One workload's metrics, the lines printed beside them, and its checks.

    ``end_to_end`` comes from the untraced pass (the reference pass of a
    traced run); ``layers`` is filled only by a traced run.
    """

    workload: str
    traced: bool
    end_to_end: Metrics
    layers: Metrics
    extra: Metrics
    attempted: int
    failed: int
    failures: List[str]
    spans: Optional[SpanTree] = None

    @property
    def metrics(self) -> Metrics:
        """The metrics a run reports: per-layer when traced, else end-to-end."""
        return self.layers if self.traced else self.end_to_end

    @property
    def correct(self) -> bool:
        return not self.failures


def run_workload(
    fixture: Fixture, workload: Workload, seed: int, seconds: float, trace: bool = False
) -> Result:
    """Untraced: the end-to-end metrics of a ``seconds``-long pass.

    Traced: an untraced reference pass of a quarter of the length (for the
    tracing overhead), then a traced pass of ``seconds``, then the isolated
    layer probes with an eighth of ``seconds`` as their budget.
    """
    setup_s, (server, manager) = measure_setup(fixture, workload)
    try:
        reference = timed_pass(
            fixture, workload, server, manager, seed, seconds / 4 if trace else seconds
        )
    finally:
        server.close()
    e2e = end_to_end(reference, setup_s)
    if not trace:
        return Result(
            workload.name,
            False,
            e2e,
            {},
            diagnostics(workload, reference),
            reference.sent,
            reference.failed,
            reference.failures,
        )
    wrapped: List[TracedBackend] = []

    def wrap(backend):
        wrapped.append(TracedBackend(backend))
        return wrapped[-1]

    server, manager = build(fixture, workload, backend_wrapper=wrap)
    try:
        result = timed_pass(fixture, workload, server, manager, seed, seconds, wrapped[0])
    finally:
        server.close()
    failures = reference.failures + result.failures
    try:
        layers, tree = per_layer(result, wrapped[0])
    except ValueError as error:  # requests and backend calls do not match
        failures.append(str(error))
        layers, tree = {}, None
    layer_probes, compile_passes = probes.measure(fixture, budget_s=seconds / 8)
    layers.update(layer_probes)
    extra = {
        "trace.overhead_ms": (
            percentile(result.latencies_ms, 50) - percentile(reference.latencies_ms, 50),
            "ms",
        )
    }
    extra.update(compile_passes)
    if tree is not None:
        for name, values in sorted(tree.self_times().items()):
            extra[f"self.{name}_us"] = (statistics.fmean(values) * 1e6, "us")
    return Result(
        workload.name,
        True,
        e2e,
        layers,
        extra,
        reference.sent + result.sent,
        reference.failed + result.failed,
        failures,
        tree,
    )
