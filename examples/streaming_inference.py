"""Streaming inference — serve a Bioformer over a live sEMG stream.

The paper's deployment target is real-time gesture recognition: a
continuous 14-channel signal is windowed (150 ms window, 15 ms slide),
classified per window, and smoothed with majority voting so one bad window
cannot flip the decision.  This example runs that loop end-to-end on the
host through :mod:`repro.serve`:

1. synthesise a continuous multi-gesture recording with the synthetic
   sEMG signal model;
2. start an :class:`~repro.serve.InferenceServer` (float backend, dynamic
   micro-batching) for a Bioformer looked up from the model registry;
3. stream the recording chunk-by-chunk through a
   :class:`~repro.serve.StreamSession` and print the smoothed decisions —
   while a bulk re-scoring job of the same windows runs concurrently at
   low priority (``infer_async``), so the live stream's high-priority
   windows preempt it in the micro-batch queue;
4. repeat with the int8 backend — the GAP8 integer numerics, with the
   I-BERT GELU/softmax served through lookup tables (see
   docs/quantization.md) — and compare the decision streams;
5. demonstrate the fault-tolerance layer: an int8 server with retries, a
   circuit breaker and float-backend fallback serves through an injected
   fault storm — every answer still lands (some flagged ``degraded``),
   and ``server.stats`` reports what happened;
6. run a small fleet through a :class:`~repro.serve.SessionManager`:
   tenant quotas, a mid-recording crash recovered bitwise from a
   JSON-serialised :class:`~repro.serve.SessionCheckpoint`, a dead
   electrode masked instead of refused, and a graceful ``drain()``.

The float server runs on a two-thread :class:`~repro.serve.WorkerPool`
(``num_workers=2``), overlapping micro-batch formation with backend
execution; per-priority request counts are reported at the end of each
phase.

Run with::

    python examples/streaming_inference.py
"""

import numpy as np

from repro.data import NinaProDB6, NinaProDB6Config, sliding_windows
from repro.serve import (
    BackendCache,
    CircuitBreaker,
    FaultInjectingBackend,
    InferenceServer,
    InjectError,
    NaNOutput,
    Priority,
    QuotaExceeded,
    RetryPolicy,
    SessionCheckpoint,
)


def make_stream(dataset: NinaProDB6, subject: int = 1) -> np.ndarray:
    """Concatenate a few labelled recordings into one continuous signal."""
    session = dataset.session_dataset(subject, session=1)
    # Re-join a handful of windows per gesture into a pseudo-recording.
    chosen = []
    for gesture in np.unique(session.labels)[:4]:
        gesture_windows = session.windows[session.labels == gesture][:6]
        chosen.append(np.concatenate(list(gesture_windows), axis=-1))
    return np.concatenate(chosen, axis=-1)


def run_stream(server: InferenceServer, signal: np.ndarray, slide: int) -> np.ndarray:
    """Stream at HIGH priority while bulk re-scoring rides along at LOW.

    ``open_stream`` classifies at :data:`Priority.HIGH` by default, so the
    live session's windows jump ahead of the queued low-priority bulk
    futures inside the shared micro-batch queue.
    """
    window = server.input_shape[-1]
    bulk_futures = server.infer_async(
        sliding_windows(signal, window=window, slide=slide), priority=Priority.LOW
    )
    session = server.open_stream(slide=slide, smoothing=5)
    for start in range(0, signal.shape[-1], 64):  # 64-sample acquisition chunks
        for decision in session.push(signal[:, start : start + 64]):
            if decision.window_index % 25 == 0:
                print(
                    f"  window {decision.window_index:4d}: "
                    f"raw={decision.label}  smoothed={decision.smoothed_label}"
                )
    bulk_done = sum(future.done() for future in bulk_futures)
    bulk_logits = np.stack([future.result(timeout=60.0) for future in bulk_futures])
    stream_labels = session.labels(smoothed=False)
    agreement = float(np.mean(np.argmax(bulk_logits, axis=-1) == stream_labels))
    by_priority = server.stats.by_priority
    print(
        f"  bulk rescore: {len(bulk_futures)} windows at LOW priority "
        f"({bulk_done} already done when the stream finished), "
        f"{100 * agreement:.0f}% label agreement with the live stream"
    )
    print(
        f"  served per priority: HIGH={by_priority.get(int(Priority.HIGH), 0)} "
        f"LOW={by_priority.get(int(Priority.LOW), 0)}"
    )
    return session.labels(smoothed=True)


def main() -> None:
    # 1. A continuous recording from the synthetic NinaPro DB6 surrogate.
    dataset = NinaProDB6(NinaProDB6Config.tiny())
    config = dataset.config
    signal = make_stream(dataset)
    print(
        f"streaming {signal.shape[-1]} samples x {signal.shape[0]} channels "
        f"(window={config.window_samples}, slide={config.slide_samples})"
    )

    cache = BackendCache()
    geometry = dict(
        num_channels=config.num_channels,
        window_samples=config.window_samples,
        seed=0,
    )

    # 2-3. Serve the float backend on a 2-worker pool and stream the signal
    # through it, with a concurrent low-priority bulk re-score of the same
    # windows (the stream's HIGH-priority requests preempt it).
    print("\n-- float backend (2 workers) ----------------------------------")
    with InferenceServer(
        "bio1",
        "float",
        patch_size=10,
        model_kwargs=geometry,
        cache=cache,
        max_batch_size=16,
        num_workers=2,
    ) as server:
        float_labels = run_stream(server, signal, slide=config.slide_samples)
        stats = server.stats
        print(
            f"served {stats.requests} windows in {stats.batches} micro-batches "
            f"(mean batch {stats.batcher.mean_batch:.1f}, "
            f"{stats.pool.num_workers} workers, {stats.pool.jobs} pool jobs)"
        )

    # 4. Same stream through the int8 (GAP8 numerics) backend, which runs the
    # integer softmax/GELU as lookup tables.
    print("\n-- int8 backend (LUT nonlinearities) --------------------------")
    rng = np.random.default_rng(0)
    calibration = rng.normal(size=(16, config.num_channels, config.window_samples))
    with InferenceServer(
        "bio1",
        "int8",
        patch_size=10,
        model_kwargs=geometry,
        calibration=calibration,
        cache=cache,
        max_batch_size=16,
    ) as server:
        lut_kb = server.backend.quantized.total_lut_bytes / 1024.0
        print(f"  int8 backend lookup tables: {lut_kb:.1f} kB")
        int8_labels = run_stream(server, signal, slide=config.slide_samples)

    agreement = float(np.mean(float_labels == int8_labels))
    print(
        f"\nfloat vs int8 smoothed decisions: {100 * agreement:.1f}% agreement "
        f"over {float_labels.shape[0]} windows"
    )

    # 5. Fault-tolerant serving: wrap the int8 backend in a fault injector
    # (transient errors + NaN logits on a fixed schedule), arm retries, a
    # circuit breaker and the float fallback — and watch every request get
    # an answer anyway.
    print("\n-- fault tolerance (injected faults, int8 + float fallback) ---")
    probe = sliding_windows(
        signal, window=config.window_samples, slide=config.slide_samples
    )[:12]
    with InferenceServer(
        "bio1",
        "int8",
        patch_size=10,
        model_kwargs=geometry,
        calibration=calibration,
        cache=cache,
        max_batch_size=4,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.002),
        circuit_breaker=CircuitBreaker(failure_threshold=3, recovery_s=0.25),
        fallback=True,
        backend_wrapper=lambda backend: FaultInjectingBackend(
            backend, {0: InjectError(), 2: NaNOutput(), 3: InjectError(), 4: InjectError(retryable=False)}
        ),
    ) as server:
        logits = server.infer(probe, timeout=60.0)
        labels = np.argmax(np.asarray(logits), axis=-1)
        stats = server.stats
        print(f"  {len(probe)} windows served through the fault storm: labels {labels.tolist()}")
        print(
            f"  retries={stats.retries}  degraded rows="
            f"{stats.degraded} (answered by the float fallback, "
            f"flagged via DegradedLogits)"
        )
        breaker_states = {stats.breaker.name: stats.breaker.state}
        print(f"  health: status={stats.status}  breakers={breaker_states}")

    # 6. Fleet session lifecycle: a SessionManager multiplexes many tenants'
    # streams over one server — per-tenant quotas, crash-safe bitwise
    # checkpoint/restore, degraded-electrode masking, graceful drain.
    print("\n-- fleet sessions (SessionManager over one server) ------------")
    with InferenceServer(
        "bio1",
        "float",
        patch_size=10,
        model_kwargs=geometry,
        cache=cache,
        max_batch_size=16,
    ) as server:
        reference = server.open_stream(slide=config.slide_samples, smoothing=5)
        reference.run(signal, chunk_size=64)

        manager = server.open_session_manager(
            slide=config.slide_samples, smoothing=5
        )
        manager.configure_tenant("clinic", priority=Priority.HIGH)
        manager.configure_tenant("bulk", priority=Priority.LOW, max_sessions=2)

        # A clinic stream interrupted mid-recording: close it (capturing a
        # checkpoint), ship the checkpoint through JSON, restore it into a
        # fresh session, finish the recording — the concatenated decisions
        # must be bitwise what the uninterrupted stream produced.
        cut = 64 * (signal.shape[-1] // 128)
        live = manager.create_session("clinic")
        live.run(signal[:, :cut], chunk_size=64)
        checkpoint = manager.close_session(live.session_id)
        resumed = manager.restore(SessionCheckpoint.from_json(checkpoint.to_json()))
        resumed.run(signal[:, cut:], chunk_size=64)
        exact = live.decisions + resumed.decisions == reference.decisions
        print(
            f"  crash at sample {cut}, restored from a JSON checkpoint: "
            f"{'bitwise-identical decisions' if exact else 'MISMATCH'} "
            f"({len(reference.decisions)} windows)"
        )

        # A dead electrode: one acquisition chunk arrives with channel 0
        # saturated to NaN.  The manager masks the channel to 0.0 (the
        # channel-dropout convention the classifier trained under) and flags
        # the affected decisions instead of refusing the chunk.
        poisoned = np.array(signal[:, : 4 * config.window_samples])
        poisoned[0] = np.nan
        flagged = [d for d in resumed.push(poisoned) if d.degraded]
        print(f"  dead-electrode chunk: {len(flagged)} decisions flagged degraded")

        # Tenant quotas are typed, not stringly: the bulk tenant is capped
        # at two concurrent sessions.
        for _ in range(2):
            manager.create_session("bulk")
        try:
            manager.create_session("bulk")
        except QuotaExceeded as exc:
            print(
                f"  bulk tenant refused a 3rd session: "
                f"QuotaExceeded(tenant={exc.tenant!r}, quota={exc.quota!r})"
            )

        snapshot = server.stats.sessions
        checkpoints = manager.drain()  # settles in-flight work, checkpoints all
        print(
            f"  fleet: {snapshot.sessions_open} open sessions across "
            f"{len(snapshot.tenants)} tenants before drain; drained with "
            f"{len(checkpoints)} final checkpoints"
        )


if __name__ == "__main__":
    main()
