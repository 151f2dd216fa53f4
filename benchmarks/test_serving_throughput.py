"""Serving throughput of ``InferenceServer`` under dynamic micro-batching.

Measures windows/second through the full serving path (request submission,
micro-batch formation, backend execution, response distribution) at batch
caps 1 / 16 / 64 for both backends.  Batch cap 1 is the no-batching
baseline: every request pays the full per-forward Python dispatch cost,
which is exactly what the batcher amortises.

The float run doubles as the acceptance gate for the serving PR: the
batched (cap >= 16) rate must be at least 3x the unbatched per-window rate.
The int8 engine is dominated by integer GEMM/I-BERT arithmetic that
scales nearly linearly with the batch, so its batching gain is smaller; it
is asserted to be non-regressive only.

The geometry is the deployment-unit scale (4 channels x 60 samples) used
throughout the deploy test-suite — the regime every MCU-class model of the
paper lives in, where per-call overhead, not BLAS time, bounds the host.

The scale-out benchmarks gate the worker-pool PR: pooled execution must
beat single-worker serving (>1x from 1 -> N workers; measured outright on
hosts with more than 2 cores and on the latency-bound float path
everywhere), and a
high-priority request must preempt already-queued low-priority bulk work
while malformed/expired riders never fail their batch-mates.
"""

import os
import time
from contextlib import ExitStack

import numpy as np
import pytest

from repro.models import build_model
from repro.serve import (
    BackendCache,
    DeadlineExceeded,
    DynamicBatcher,
    InferenceServer,
    Priority,
    WorkerPool,
)

from conftest import report

GEOMETRY = dict(num_channels=4, window_samples=60, seed=11)
NUM_WINDOWS = 96
BATCH_CAPS = (1, 16, 64)
WORKER_COUNTS = (1, 2, 4)
#: Timing rounds of the float gates: each round times every configuration
#: once, back to back, and yields one paired ratio; the gate is their median.
ROUNDS = 9

@pytest.fixture(scope="module")
def cache():
    return BackendCache()


@pytest.fixture(scope="module")
def model():
    return build_model("bio2", patch_size=10, **GEOMETRY).eval()


@pytest.fixture(scope="module")
def windows():
    rng = np.random.default_rng(0)
    return rng.normal(size=(NUM_WINDOWS, GEOMETRY["num_channels"], GEOMETRY["window_samples"]))


def _throughput(model, backend, max_batch, windows, cache, repeats=2, **kwargs):
    """Best-of-``repeats`` windows/sec through a fresh server."""
    best = 0.0
    mean_batch = 0.0
    for _ in range(repeats):
        with InferenceServer(
            model, backend, cache=cache, max_batch_size=max_batch, **kwargs
        ) as server:
            server.infer(windows[:8])  # warm-up (allocator, caches)
            start = time.perf_counter()
            logits = server.infer(windows)
            elapsed = time.perf_counter() - start
            assert logits.shape == (windows.shape[0], 8)
            stats = server.stats
            assert max(stats.by("batcher_batches", "size")) <= max_batch
            best = max(best, windows.shape[0] / elapsed)
            mean_batch = stats.requests / stats.batches
    return best, mean_batch


def _interleaved_rates(model, windows, cache, configs, rounds=ROUNDS):
    """Windows/sec of each of ``configs`` (name -> server kwargs), per round.

    Every server is opened and warmed first; each round then times one
    ``infer`` of ``windows`` on every server back to back, so a slow spell
    of a shared host hits all configurations of a round alike.  Returns the
    per-round rates and each server's mean formed batch.
    """
    rates = {name: [] for name in configs}
    with ExitStack() as stack:
        servers = {
            name: stack.enter_context(InferenceServer(model, "float", cache=cache, **kwargs))
            for name, kwargs in configs.items()
        }
        for server in servers.values():
            server.infer(windows)  # warm-up (allocator, caches, worker threads)
        for _ in range(rounds):
            for name, server in servers.items():
                start = time.perf_counter()
                logits = server.infer(windows)
                elapsed = time.perf_counter() - start
                assert logits.shape == (windows.shape[0], 8)
                rates[name].append(windows.shape[0] / elapsed)
        mean_batch = {
            name: server.stats.requests / server.stats.batches
            for name, server in servers.items()
        }
    return rates, mean_batch


def _median_paired_ratio(rates, base, candidates):
    """Median over rounds of the best candidate's rate over ``base``'s rate."""
    return float(np.median([
        max(rates[name][round_] for name in candidates) / rates[base][round_]
        for round_ in range(len(rates[base]))
    ]))


def _render(rows):
    lines = [f"{'backend':>8} {'cap':>5} {'mean batch':>11} {'windows/s':>11} {'speedup':>9}"]
    for backend, cap, mean_batch, throughput, speedup in rows:
        lines.append(
            f"{backend:>8} {cap:>5d} {mean_batch:>11.1f} {throughput:>11.1f} {speedup:>8.2f}x"
        )
    return "\n".join(lines)


def test_float_backend_batching_speedup(model, windows, cache):
    """Dynamic batching must pay for itself: >= 3x over unbatched serving.

    The estimator is the median, over interleaved rounds on warm servers,
    of each round's best batched rate over its cap-1 rate: one lucky or
    unlucky timing cannot move it.
    """
    configs = {cap: dict(max_batch_size=cap) for cap in BATCH_CAPS}
    rates, mean_batch = _interleaved_rates(model, windows, cache, configs)
    medians = {cap: float(np.median(rates[cap])) for cap in BATCH_CAPS}
    rows = [
        ("float", cap, mean_batch[cap], medians[cap], medians[cap] / medians[1])
        for cap in BATCH_CAPS
    ]
    ratio = _median_paired_ratio(rates, 1, [cap for cap in BATCH_CAPS if cap >= 16])
    report(
        f"Serving throughput — float backend (bio2, 4ch x 60smp; medians of {ROUNDS} rounds)",
        _render(rows) + f"\nmedian paired batched/unbatched ratio: {ratio:.2f}x",
    )
    assert ratio >= 3.0, (
        f"batched serving reached only {ratio:.2f}x the unbatched rate "
        f"(median of {ROUNDS} paired rounds; medians {medians[16]:.0f}/{medians[64]:.0f} "
        f"vs {medians[1]:.0f} windows/s)"
    )


def test_int8_backend_batching_not_regressive(model, windows, cache):
    """Integer engine serving: batching must never be slower than cap 1."""
    calibration = np.random.default_rng(1).normal(
        size=(16, GEOMETRY["num_channels"], GEOMETRY["window_samples"])
    )
    results = {
        cap: _throughput(
            model, "int8", cap, windows, cache, calibration=calibration
        )
        for cap in BATCH_CAPS
    }
    base = results[1][0]
    rows = [
        ("int8", cap, results[cap][1], results[cap][0], results[cap][0] / base)
        for cap in BATCH_CAPS
    ]
    report("Serving throughput — int8 backend (bio2, 4ch x 60smp)", _render(rows))
    batched_best = max(results[cap][0] for cap in BATCH_CAPS if cap >= 16)
    # Generous floor: integer arithmetic scales ~linearly with batch, so the
    # win is bounded; the invariant is that micro-batching never costs.
    assert batched_best >= 0.9 * base


def test_worker_pool_scales_float_throughput(model, windows, cache):
    """Pool scale-out on the raw float backend (hardware-aware gate).

    Thread scaling of pure NumPy compute needs real cores: the backend
    releases the GIL only inside BLAS kernels, and the batcher thread
    competes with the workers for them.  On a host with more than 2 cores
    the pooled configuration must beat single-worker serving outright; on
    1-2 vCPUs the batcher and two workers contend for the cores, so the
    gate degrades to non-regression — the latency-bound benchmark below
    supplies the machine-independent >1x scaling proof.  Like the batching
    gate, it compares the median over interleaved rounds on warm servers of
    each round's paired ratio.

    On such a host a serialised pool reads about one worker's speed and
    passes this gate.  The tier-1 checks that catch one, whatever the core
    count, are ``tests/test_serve_pool.py``'s
    ``test_jobs_actually_overlap_across_workers``,
    ``test_batch_grows_while_every_worker_is_busy``,
    ``test_hung_job_fails_fast_and_worker_is_abandoned`` and
    ``test_server_runs_two_requests_in_the_float_backend_at_once`` (two
    requests must be inside the real float backend at once).
    """
    configs = {
        workers: dict(max_batch_size=8, num_workers=workers) for workers in WORKER_COUNTS
    }
    rates, _ = _interleaved_rates(model, windows, cache, configs)
    medians = {workers: float(np.median(rates[workers])) for workers in WORKER_COUNTS}
    ratio = _median_paired_ratio(rates, 1, [workers for workers in WORKER_COUNTS if workers > 1])
    cores = os.cpu_count() or 1
    rows = "\n".join(
        f"{'float':>8} {workers:>8d} {medians[workers]:>11.1f} "
        f"{medians[workers] / medians[1]:>8.2f}x"
        for workers in WORKER_COUNTS
    )
    report(
        f"Serving scale-out — float backend, worker pool ({cores} core(s); "
        f"medians of {ROUNDS} rounds)",
        f"{'backend':>8} {'workers':>8} {'windows/s':>11} {'speedup':>9}\n{rows}\n"
        f"median paired pooled/single ratio: {ratio:.2f}x",
    )
    if cores > 2:
        assert ratio > 1.0, (
            f"worker pool did not beat single-worker serving on a {cores}-core "
            f"host ({ratio:.2f}x, median of {ROUNDS} paired rounds)"
        )
    else:
        # Too few cores for a parallel speedup; the pool must at least not
        # cost meaningful throughput.
        assert ratio >= 0.7, (
            f"worker pool cost {1 - ratio:.0%} of single-worker throughput "
            f"(median of {ROUNDS} paired rounds)"
        )


def test_worker_pool_scales_latency_bound_float_serving(model, windows, cache):
    """The machine-independent pool-scaling gate: 1 -> N workers is >1x.

    Real deployments put transport latency around every backend call
    (device DMA, RPC to a sharded backend — the ROADMAP's next step), and
    that latency releases the GIL just like the BLAS kernels do on real
    cores.  Modelling it as a fixed per-micro-batch stall on top of the
    *actual float-backend compute* shows what the pool buys: with one
    worker every stall serialises behind batch formation; with N workers
    the stalls overlap, so throughput must scale >1x even on a 1-vCPU
    host.
    """
    stall_s = 0.003
    with InferenceServer(model, "float", cache=cache) as probe:
        float_backend = probe.backend

    def latency_bound_run(batch, deadline=None):
        time.sleep(stall_s)  # simulated transport; releases the GIL
        return float_backend.run(batch)

    results = {}
    for workers in WORKER_COUNTS:
        pool = WorkerPool(workers, name=f"bench-{workers}") if workers > 1 else None
        best = 0.0
        for _ in range(2):
            with DynamicBatcher(
                latency_bound_run,
                max_batch_size=8,
                input_shape=float_backend.input_shape,
                pool=pool,
            ) as batcher:
                batcher.map(windows[:8], timeout=60.0)  # warm-up
                start = time.perf_counter()
                logits = batcher.map(windows, timeout=60.0)
                elapsed = time.perf_counter() - start
                assert logits.shape == (windows.shape[0], 8)
                best = max(best, windows.shape[0] / elapsed)
        if pool is not None:
            pool.close()
        results[workers] = best
    base = results[1]
    rows = "\n".join(
        f"{'float+rpc':>9} {workers:>8d} {results[workers]:>11.1f} {results[workers] / base:>8.2f}x"
        for workers in WORKER_COUNTS
    )
    report(
        f"Serving scale-out — latency-bound float backend ({1e3 * stall_s:.0f} ms stall/batch)",
        f"{'backend':>9} {'workers':>8} {'windows/s':>11} {'speedup':>9}\n{rows}",
    )
    pooled_best = max(results[workers] for workers in WORKER_COUNTS if workers > 1)
    assert pooled_best > 1.2 * base, (
        f"pool scaling reached only {pooled_best / base:.2f}x over one worker "
        f"({pooled_best:.0f} vs {base:.0f} windows/s)"
    )


def test_priority_preemption_latency(model, windows, cache):
    """A HIGH request must land before already-queued LOW bulk work.

    Floods the server with low-priority bulk scoring (with one malformed
    and one already-expired request riding along — neither may fail its
    batch-mates), then submits one high-priority window and measures its
    latency against the bulk completion time.
    """
    with InferenceServer(
        model, "float", cache=cache, max_batch_size=4
    ) as server:
        server.infer(windows[:8])  # warm-up
        bulk = server.infer_async(windows, priority=Priority.LOW)
        expired = server.submit(windows[0], priority=Priority.LOW, deadline_s=0.0)
        malformed = server.batcher.submit(
            np.zeros((3, 3)), priority=Priority.LOW
        )  # bypasses the facade's shape check, lands mid-bulk
        start = time.perf_counter()
        urgent = server.submit(windows[0], priority=Priority.HIGH)
        urgent.result(timeout=60.0)
        urgent_latency = time.perf_counter() - start
        pending_at_urgent_done = sum(not f.done() for f in bulk)
        for future in bulk:
            future.result(timeout=60.0)
        bulk_latency = time.perf_counter() - start
        # Settle the riders before snapshotting stats: their counters are
        # published before their futures resolve.
        with pytest.raises(DeadlineExceeded):
            expired.result(timeout=60.0)
        with pytest.raises(ValueError):
            malformed.result(timeout=60.0)
        stats = server.stats
    report(
        "Priority preemption — HIGH vs queued LOW bulk (bio2, 4ch x 60smp)",
        f"bulk queued:        {len(bulk)} windows (LOW)\n"
        f"HIGH latency:       {1e3 * urgent_latency:.2f} ms\n"
        f"bulk completion:    {1e3 * bulk_latency:.2f} ms\n"
        f"LOW still pending when HIGH landed: {pending_at_urgent_done}\n"
        f"expired/malformed riders: {stats.batcher_expired}/{stats.batcher_malformed} "
        f"(batch-mates unaffected)",
    )
    # The urgent request preempted queued bulk work: it landed while most
    # of the earlier-submitted LOW traffic was still waiting.
    assert pending_at_urgent_done > len(bulk) // 2, (
        f"only {pending_at_urgent_done}/{len(bulk)} bulk requests were still "
        f"pending when the HIGH request completed"
    )
    assert urgent_latency < bulk_latency
    # The malformed and expired riders resolved alone; every bulk future
    # still produced its logits row.
    assert stats.batcher_expired >= 1
    assert stats.batcher_malformed == 1


def test_backend_cache_amortizes_construction(model, windows, cache):
    """Re-serving a cached architecture must skip model/graph construction."""
    start = time.perf_counter()
    with InferenceServer(model, "float", cache=cache, max_batch_size=16) as server:
        server.infer(windows[:4])
    elapsed = time.perf_counter() - start
    assert cache.stats.cache_hits >= 1
    # Construction was cached by the earlier benchmarks; opening a server
    # and classifying 4 windows should be near-instant.
    assert elapsed < 5.0


def test_idle_fault_layer_costs_nothing(model, windows, cache):
    """The resilience machinery must be free when nothing is failing.

    Serves the same float workload twice — bare, and with the full fault
    stack armed but idle (a FaultInjectingBackend with an empty schedule,
    a retry policy, a closed circuit breaker and admission control) — and
    gates the armed configuration at >= 0.7x the bare throughput
    (generous for noisy 1-vCPU CI boxes; the expected cost is a few
    percent of per-call bookkeeping).
    """
    from repro.serve import CircuitBreaker, FaultInjectingBackend, RetryPolicy

    bare, _ = _throughput(model, "float", 16, windows, cache, repeats=3)
    armed, _ = _throughput(
        model,
        "float",
        16,
        windows,
        cache,
        repeats=3,
        retry_policy=RetryPolicy(),
        circuit_breaker=CircuitBreaker(),
        max_queue_depth=4096,
        backend_wrapper=lambda b: FaultInjectingBackend(b, schedule=None),
    )
    report(
        "Serving throughput — fault layer armed but idle (float, cap 16)",
        f"{'config':>10} {'windows/s':>11}\n"
        f"{'bare':>10} {bare:>11.1f}\n"
        f"{'armed':>10} {armed:>11.1f}\n"
        f"ratio: {armed / bare:.2f}x",
    )
    assert armed >= 0.7 * bare, (
        f"idle fault layer cost {1 - armed / bare:.0%} of serving throughput "
        f"({armed:.0f} vs {bare:.0f} windows/s)"
    )


def test_session_lifecycle_churn_not_regressive(model, windows, cache):
    """Fleet session management must be free at the serving hot path.

    Two gates for the session-lifecycle PR:

    * **churn** — opening and closing 1000 managed sessions (each close
      capturing a final checkpoint into the tombstone ring) must sustain a
      rate that makes per-connection bookkeeping invisible next to a single
      model forward;
    * **streaming** — pushing the same raw signal through a managed session
      (quota accounting + degraded-electrode scan + activity tracking on
      every chunk) must reach >= 0.7x the bare ``open_stream`` rate
      (generous for noisy 1-vCPU CI boxes; the expected cost is a few
      percent of per-chunk bookkeeping).

    Both paths produce identical decisions (pinned in
    ``tests/test_serve_sessions.py``), so the comparison is purely about
    overhead.
    """
    slide, smoothing = 20, 3
    window = GEOMETRY["window_samples"]
    num_windows = 200
    signal = np.random.default_rng(7).standard_normal(
        (GEOMETRY["num_channels"], window + slide * (num_windows - 1))
    )
    with InferenceServer(
        model, "float", cache=cache, max_batch_size=16
    ) as server:
        server.infer(windows[:8])  # warm-up (allocator, caches)
        with server.open_session_manager(slide=slide, smoothing=smoothing) as manager:
            churn = 1000
            start = time.perf_counter()
            for _ in range(churn):
                session = manager.create_session("bench")
                manager.close_session(session.session_id)
            churn_elapsed = time.perf_counter() - start
            churn_rate = churn / churn_elapsed

            best = {"bare": 0.0, "managed": 0.0}
            for _ in range(3):  # interleaved best-of: drift hits both equally
                start = time.perf_counter()
                bare = server.open_stream(slide=slide, smoothing=smoothing)
                bare.run(signal, chunk_size=64)
                elapsed = time.perf_counter() - start
                assert bare.windows_classified == num_windows
                best["bare"] = max(best["bare"], num_windows / elapsed)

                start = time.perf_counter()
                managed = manager.create_session("bench")
                managed.run(signal, chunk_size=64)
                elapsed = time.perf_counter() - start
                assert managed.windows_classified == num_windows
                assert managed.decisions == bare.decisions
                manager.close_session(managed.session_id)
                best["managed"] = max(best["managed"], num_windows / elapsed)
            stats = manager.stats
        assert stats.sessions_created == churn + 3
    ratio = best["managed"] / best["bare"]
    report(
        "Session lifecycle — managed vs bare streaming (float, cap 16)",
        f"open/close churn:   {churn_rate:>11.1f} sessions/s ({churn} sessions)\n"
        f"{'path':>10} {'windows/s':>11}\n"
        f"{'bare':>10} {best['bare']:>11.1f}\n"
        f"{'managed':>10} {best['managed']:>11.1f}\n"
        f"ratio: {ratio:.2f}x",
    )
    # A session open/close round trip is pure Python bookkeeping plus one
    # empty-buffer checkpoint; it must outpace any plausible request rate.
    assert churn_rate > 200.0, (
        f"managed-session churn reached only {churn_rate:.0f} open/close per "
        f"second across {churn} sessions"
    )
    assert ratio >= 0.7, (
        f"managed-session streaming cost {1 - ratio:.0%} of bare open_stream "
        f"throughput ({best['managed']:.0f} vs {best['bare']:.0f} windows/s)"
    )


def test_compile_wall_time_per_config(windows):
    """Record the deploy compiler's lowering wall-time per registry config.

    Reports the seven-stage lowering per architecture, and the share of it
    the three fusion stages take, and gates only a generous absolute
    ceiling — calibration dominates, and a pathological stage would blow
    straight through it.
    """
    from repro.deploy import lower_to_int8, trace_model

    calibration = np.random.default_rng(5).normal(
        size=(16, GEOMETRY["num_channels"], GEOMETRY["window_samples"])
    )
    configs = [("bio1", 10), ("bio2", 10), ("temponet", None)]
    rows = []
    for arch, patch in configs:
        kwargs = dict(GEOMETRY)
        if patch is not None:
            kwargs["patch_size"] = patch
        graph = trace_model(build_model(arch, **kwargs).eval())
        best, fusion_ms = float("inf"), 0.0
        for _ in range(2):
            start = time.perf_counter()
            quantized = lower_to_int8(graph, calibration)
            elapsed = time.perf_counter() - start
            # The manifest's per-stage timers nest inside this run's total
            # (compare against the same run, not the best one).
            assert sum(r.wall_ms for r in quantized.manifest) <= elapsed * 1e3 + 1.0
            if elapsed < best:
                best = elapsed
                fusion_ms = sum(r.wall_ms for r in quantized.manifest[-3:])
        rows.append((arch, best, fusion_ms))
        assert best < 10.0, f"lowering {arch} took {best:.1f}s"
    report(
        "Deploy compiler wall-time per config (best of 2)",
        f"{'config':>10} {'lowering ms':>12} {'fusion ms':>10}\n"
        + "\n".join(
            f"{arch:>10} {lowering * 1e3:>12.1f} {fusion:>10.2f}"
            for arch, lowering, fusion in rows
        ),
    )
