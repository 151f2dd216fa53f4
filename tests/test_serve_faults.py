"""Fault-tolerance tests: taxonomy, retries, breakers, degradation, chaos.

The deterministic layers (error taxonomy, :class:`RetryPolicy`,
:class:`CircuitBreaker` with a fake clock, :class:`FaultInjectingBackend`
schedules) are pinned exactly.  On top of them, server-level tests drive a
real :class:`InferenceServer` through injected faults and assert the
resilience contract: retryable faults are retried within the deadline, an
open int8 circuit degrades to the float backend with *identical labels*,
crashed workers are respawned, and — in the chaos soak — **no request is
ever lost**: every future resolves with either logits or a typed error.
"""

import threading
import time

import numpy as np
import pytest

from repro.models.registry import build_model
from repro.serve import (
    BackendCache,
    BackendError,
    BackendTimeout,
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    DegradedLogits,
    FaultInjectingBackend,
    Hang,
    InferenceServer,
    InjectError,
    LatencySpike,
    NaNOutput,
    Overloaded,
    Priority,
    QuotaExceeded,
    RetryExhausted,
    RetryPolicy,
    ServerStats,
    ServingError,
    SessionEvicted,
    WorkerCrash,
    build_float_backend,
)

GEOMETRY = dict(num_channels=4, window_samples=60, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def cache():
    return BackendCache()


def make_server(backend="float", *, cache, calibration=None, **kwargs):
    return InferenceServer(
        "bio1",
        backend,
        patch_size=10,
        model_kwargs=GEOMETRY,
        calibration=calibration,
        cache=cache,
        max_batch_size=4,
        **kwargs,
    )


# --------------------------------------------------------------------- #
# Error taxonomy
# --------------------------------------------------------------------- #
class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(BackendError, ServingError)
        assert issubclass(BackendTimeout, BackendError)
        assert issubclass(BackendTimeout, TimeoutError)
        assert issubclass(WorkerCrash, BackendError)
        assert issubclass(Overloaded, ServingError)
        assert issubclass(RetryExhausted, ServingError)
        assert issubclass(CircuitOpen, ServingError)

    def test_retryable_flags(self):
        assert not BackendError("deterministic bug").retryable
        assert BackendError("transient", retryable=True).retryable
        assert BackendTimeout("slow").retryable
        assert WorkerCrash().retryable

    def test_retry_exhausted_carries_cause(self):
        last = BackendError("flaky", retryable=True)
        error = RetryExhausted("gave up", last_error=last, attempts=3)
        assert error.last_error is last
        assert error.attempts == 3

    def test_degraded_logits_flag_survives_slicing(self):
        batch = DegradedLogits.wrap(np.zeros((3, 8)))
        assert batch.degraded
        row = batch[1]
        assert getattr(row, "degraded", False)
        assert not getattr(np.zeros(8), "degraded", False)
        np.testing.assert_array_equal(np.asarray(batch), np.zeros((3, 8)))


# --------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(BackendError("x", retryable=True))
        assert not policy.retryable(BackendError("x"))
        assert policy.retryable(BackendTimeout("slow"))
        assert policy.retryable(TimeoutError("plain"))
        assert not policy.retryable(ValueError("not a fault"))

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay_s=0.01, multiplier=2.0, max_delay_s=0.03, jitter=0.0)
        assert policy.delay_s(1) == pytest.approx(0.01)
        assert policy.delay_s(2) == pytest.approx(0.02)
        assert policy.delay_s(3) == pytest.approx(0.03)  # capped
        assert policy.delay_s(4) == pytest.approx(0.03)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.01, jitter=0.5, seed=7)
        same = RetryPolicy(base_delay_s=0.01, jitter=0.5, seed=7)
        other = RetryPolicy(base_delay_s=0.01, jitter=0.5, seed=8)
        for k in (1, 2, 3):
            assert policy.delay_s(k) == same.delay_s(k)  # reproducible
            assert 0.005 * policy.delay_s(1) / policy.delay_s(1) or True
            base = min(policy.max_delay_s, 0.01 * policy.multiplier ** (k - 1))
            assert base * 0.5 <= policy.delay_s(k) <= base
        assert any(policy.delay_s(k) != other.delay_s(k) for k in (1, 2, 3))

    def test_delay_index_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_s(0)


# --------------------------------------------------------------------- #
# Circuit breaker (fake clock: the state machine, exactly)
# --------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # half_open_max=1: a second is refused
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()  # open again, recovery clock restarted
        assert breaker.stats.breaker_opened == 2

    def test_error_rate_trip_needs_full_window(self):
        breaker = CircuitBreaker(
            failure_threshold=100,
            error_rate_threshold=0.5,
            window=4,
            clock=FakeClock(),
        )
        # Alternate success/failure: 50% error rate, but only trips once
        # the window is full.
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_success()
        breaker.record_failure()  # window now [s, f, s, f] -> append f
        assert breaker.state == CircuitBreaker.OPEN

    def test_snapshot_counters(self):
        clock = FakeClock()
        breaker = CircuitBreaker(name="int8", failure_threshold=2, clock=clock)
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        breaker.allow()
        assert breaker.name == "int8"
        snap = breaker.stats
        assert snap.by("breaker_state", "state") == {CircuitBreaker.OPEN: 1}
        assert snap.breaker_successes == 1
        assert snap.breaker_failures == 2
        assert snap.breaker_consecutive_failures == 2
        assert snap.breaker_opened == 1
        assert snap.breaker_rejected == 1
        assert snap.breaker_window_error_rate == pytest.approx(2 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(error_rate_threshold=1.5)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_s=-1.0)


# --------------------------------------------------------------------- #
# Fault-injecting backend
# --------------------------------------------------------------------- #
class StubBackend:
    """Minimal Backend double: logits = column-sum of the window."""

    name = "stub"
    input_shape = (4, 60)
    num_classes = 8

    def run(self, windows):
        windows = np.asarray(windows, dtype=np.float64)
        return np.tile(windows.sum(axis=(1, 2))[:, None], (1, self.num_classes))

    def predict(self, windows):
        return np.argmax(self.run(windows), axis=-1)


class TestFaultInjectingBackend:
    def test_sequence_schedule_fires_in_order(self):
        backend = FaultInjectingBackend(
            StubBackend(), [InjectError(message="first"), None, NaNOutput()]
        )
        window = np.ones((1, 4, 60))
        with pytest.raises(BackendError, match="first"):
            backend.run(window)
        assert np.isfinite(backend.run(window)).all()  # call 1: clean
        assert np.isnan(backend.run(window)).all()  # call 2: NaN
        assert np.isfinite(backend.run(window)).all()  # past the schedule
        assert backend.calls == 4
        assert [index for index, _ in backend.injected] == [0, 2]

    def test_mapping_schedule_and_delegation(self):
        backend = FaultInjectingBackend(StubBackend(), {1: InjectError(crash=True)})
        assert backend.input_shape == (4, 60)
        assert backend.num_classes == 8
        window = np.ones((1, 4, 60))
        backend.run(window)
        with pytest.raises(WorkerCrash):
            backend.run(window)

    def test_latency_spike_serves_after_delay(self):
        backend = FaultInjectingBackend(StubBackend(), [LatencySpike(0.05)])
        start = time.monotonic()
        out = backend.run(np.ones((1, 4, 60)))
        assert time.monotonic() - start >= 0.05
        assert np.isfinite(out).all()

    def test_from_rates_is_seed_deterministic(self):
        a = FaultInjectingBackend.from_rates(
            StubBackend(), seed=5, calls=64, error_rate=0.2, nan_rate=0.2
        )
        b = FaultInjectingBackend.from_rates(
            StubBackend(), seed=5, calls=64, error_rate=0.2, nan_rate=0.2
        )
        c = FaultInjectingBackend.from_rates(
            StubBackend(), seed=6, calls=64, error_rate=0.2, nan_rate=0.2
        )
        assert a._schedule == b._schedule
        assert a._schedule != c._schedule
        assert len(a._schedule) > 0

    def test_clean_schedule_is_transparent(self):
        stub = StubBackend()
        backend = FaultInjectingBackend(stub)
        window = np.random.default_rng(0).standard_normal((3, 4, 60))
        np.testing.assert_array_equal(backend.run(window), stub.run(window))
        np.testing.assert_array_equal(backend.predict(window), stub.predict(window))


# --------------------------------------------------------------------- #
# ServerStats.status — the coarse verdict over one frozen snapshot
# --------------------------------------------------------------------- #
class TestServerStatsStatus:
    @staticmethod
    def snapshot(breaker_state=None, **totals):
        """A ServerStats of unlabelled series, plus a breaker in ``breaker_state``."""
        series = {name: {(): value} for name, value in totals.items()}
        if breaker_state is not None:
            series["breaker_state"] = {(("state", breaker_state),): 1}
        return ServerStats(series)

    def test_ok_when_everything_is_quiet(self):
        stats = self.snapshot(CircuitBreaker.CLOSED, pool_alive=2, pool_restarts=0)
        assert stats.status == "ok"
        assert self.snapshot().status == "ok"  # inline, no breaker

    @pytest.mark.parametrize("state", [CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN])
    def test_degraded_when_breaker_is_not_closed(self, state):
        assert self.snapshot(state).status == "degraded"

    def test_degraded_when_requests_were_degraded(self):
        assert self.snapshot(server_degraded=1).status == "degraded"

    def test_degraded_when_a_worker_restarted(self):
        stats = self.snapshot(pool_alive=2, pool_restarts=1)
        assert stats.status == "degraded"

    def test_retries_and_shedding_alone_keep_it_ok(self):
        stats = self.snapshot(
            batcher_shed=2, batcher_rejected=1, batcher_expired=1, server_retries=3
        )
        assert stats.status == "ok"


# --------------------------------------------------------------------- #
# Server-level resilience (inline, deterministic)
# --------------------------------------------------------------------- #
class TestServerResilience:
    def test_retry_recovers_from_transient_error(self, rng, cache):
        with make_server(
            cache=cache,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            backend_wrapper=lambda b: FaultInjectingBackend(b, [InjectError()]),
        ) as server:
            out = server.infer([rng.standard_normal((4, 60))])
            assert np.isfinite(out).all()
            assert server.stats.server_retries == 1

    def test_nan_logits_are_detected_and_retried(self, rng, cache):
        with make_server(
            cache=cache,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            backend_wrapper=lambda b: FaultInjectingBackend(b, [NaNOutput()]),
        ) as server:
            out = server.infer([rng.standard_normal((4, 60))])
            assert np.isfinite(out).all()
            assert server.stats.server_retries == 1

    def test_nan_logits_without_retry_surface_as_typed_error(self, rng, cache):
        with make_server(
            cache=cache,
            backend_wrapper=lambda b: FaultInjectingBackend(b, [NaNOutput()]),
        ) as server:
            # A finite window passes admission; the NaN the backend returns
            # surfaces as a typed backend fault, not a silent NaN row.
            future = server.submit(rng.standard_normal((4, 60)))
            with pytest.raises(BackendError, match="non-finite logits"):
                future.result(timeout=10.0)
            assert server.stats.server_retries == 0

    def test_retry_exhaustion_surfaces_typed_error(self, rng, cache):
        always = {i: InjectError() for i in range(16)}
        with make_server(
            cache=cache,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
            backend_wrapper=lambda b: FaultInjectingBackend(b, always),
        ) as server:
            future = server.submit(rng.standard_normal((4, 60)))
            with pytest.raises(RetryExhausted) as info:
                future.result(timeout=10.0)
            assert info.value.attempts == 2
            assert isinstance(info.value.last_error, BackendError)

    def test_non_retryable_error_is_not_retried(self, rng, cache):
        wrapped = {}

        def wrapper(backend):
            wrapped["faulty"] = FaultInjectingBackend(
                backend, {i: InjectError(retryable=False) for i in range(16)}
            )
            return wrapped["faulty"]

        with make_server(
            cache=cache,
            retry_policy=RetryPolicy(max_attempts=5, base_delay_s=0.001),
            backend_wrapper=wrapper,
        ) as server:
            future = server.submit(rng.standard_normal((4, 60)))
            with pytest.raises(BackendError):
                future.result(timeout=10.0)
            assert server.stats.server_retries == 0
            assert wrapped["faulty"].calls == 1  # exactly one attempt

    def test_retry_never_overruns_the_deadline(self, rng, cache):
        always = {i: InjectError() for i in range(64)}
        with make_server(
            cache=cache,
            retry_policy=RetryPolicy(
                max_attempts=10, base_delay_s=0.2, jitter=0.0
            ),
            backend_wrapper=lambda b: FaultInjectingBackend(b, always),
        ) as server:
            future = server.submit(rng.standard_normal((4, 60)), deadline_s=0.05)
            start = time.monotonic()
            with pytest.raises(ServingError):
                future.result(timeout=10.0)
            # 10 attempts x 200 ms of backoff would be ~2 s; the deadline
            # cut the retry loop short instead.
            assert time.monotonic() - start < 1.0

    def test_breaker_opens_and_stops_hammering_the_backend(self, rng, cache):
        wrapped = {}

        def wrapper(backend):
            wrapped["faulty"] = FaultInjectingBackend(
                backend, {i: InjectError(retryable=False) for i in range(64)}
            )
            return wrapped["faulty"]

        with make_server(
            cache=cache,
            circuit_breaker=CircuitBreaker(failure_threshold=2, recovery_s=60.0),
            backend_wrapper=wrapper,
        ) as server:
            window = rng.standard_normal((4, 60))
            for _ in range(2):
                with pytest.raises(BackendError):
                    server.submit(window).result(timeout=10.0)
            calls_when_tripped = wrapped["faulty"].calls
            with pytest.raises(CircuitOpen):
                server.submit(window).result(timeout=10.0)
            # The open breaker refused the call before the backend ran.
            assert wrapped["faulty"].calls == calls_when_tripped
            stats = server.stats
            assert stats.status == "degraded"
            assert stats.by("breaker_state", "state") == {CircuitBreaker.OPEN: 1}

    def test_breaker_recovers_through_half_open_probe(self, rng, cache):
        with make_server(
            cache=cache,
            circuit_breaker=CircuitBreaker(failure_threshold=1, recovery_s=0.05),
            backend_wrapper=lambda b: FaultInjectingBackend(b, [InjectError()]),
        ) as server:
            window = rng.standard_normal((4, 60))
            with pytest.raises(BackendError):
                server.submit(window).result(timeout=10.0)
            assert server.breaker.state == CircuitBreaker.OPEN
            time.sleep(0.1)  # recovery elapses -> half-open probe allowed
            out = server.submit(window).result(timeout=10.0)
            assert np.isfinite(out).all()
            assert server.breaker.state == CircuitBreaker.CLOSED
            assert server.breaker.stats.breaker_opened == 1

    def test_open_int8_circuit_degrades_to_float_with_identical_labels(self, rng, cache):
        calibration = rng.standard_normal((32, 4, 60))
        windows = rng.standard_normal((6, 4, 60))
        with make_server(
            "int8",
            cache=cache,
            calibration=calibration,
            circuit_breaker=CircuitBreaker(failure_threshold=1, recovery_s=60.0),
            fallback=True,
            backend_wrapper=lambda b: FaultInjectingBackend(
                b, {i: InjectError(retryable=False) for i in range(64)}
            ),
        ) as server:
            logits = server.infer(windows, timeout=10.0)
            assert getattr(logits, "degraded", False)
            assert server.stats.server_degraded >= len(windows)
            stats = server.stats
            assert stats.status == "degraded"
            assert stats.server_degraded >= len(windows)
        # The degraded answers must be *exactly* the float backend's.
        reference = build_float_backend(
            build_model("bio1", patch_size=10, **GEOMETRY).eval()
        )
        np.testing.assert_array_equal(
            np.argmax(np.asarray(logits), axis=-1),
            np.argmax(reference.run(windows), axis=-1),
        )

    def test_fallback_requires_int8(self, cache):
        with pytest.raises(ValueError, match="fallback"):
            make_server("float", cache=cache, fallback=True)

    def test_stats_snapshot_is_quiet_on_a_clean_server(self, rng, cache):
        with make_server(cache=cache) as server:
            server.infer([rng.standard_normal((4, 60))])
            stats = server.stats
            assert server.num_workers == 1
        assert stats.status == "ok"
        assert stats.by("breaker_state", "state") == {}  # no breaker
        assert stats.server_retries == 0
        assert stats.server_degraded == 0
        assert "pool_alive" not in stats.series  # inline execution: one worker, no pool
        assert stats.get("sessions_created") == 0  # no session manager
        assert stats.requests == stats.batches == 1

    def test_one_snapshot_carries_breaker_sessions_and_pool(self, rng, cache):
        with make_server(
            cache=cache, num_workers=2, circuit_breaker=True
        ) as server:
            manager = server.open_session_manager(slide=20, smoothing=3)
            session = manager.create_session("clinic")
            session.run(rng.standard_normal((4, 140)), chunk_size=70)
            stats = server.stats
            assert server.num_workers == 2
            assert server.breaker.name == "bio1-float"
        assert stats.status == "ok"
        assert stats.by("breaker_state", "state") == {CircuitBreaker.CLOSED: 1}
        assert stats.breaker_successes >= 1
        assert stats.by("sessions_open", "tenant") == {"clinic": 1}
        assert stats.get("sessions_windows", tenant="clinic") == session.windows
        assert stats.pool_alive == 2


# --------------------------------------------------------------------- #
# Input validation at admission
# --------------------------------------------------------------------- #
class TestInputValidation:
    def test_rejects_nan_and_inf_windows(self, cache):
        with make_server(cache=cache) as server:
            bad = np.zeros((4, 60))
            bad[2, 7] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                server.submit(bad)
            bad[2, 7] = np.inf
            with pytest.raises(ValueError, match="non-finite"):
                server.infer([bad])

    def test_rejects_wrong_channel_count_with_clear_message(self, cache):
        with make_server(cache=cache) as server:
            with pytest.raises(ValueError, match="3 channel"):
                server.submit(np.zeros((3, 60)))

    def test_rejects_unsafe_dtypes(self, cache):
        with make_server(cache=cache) as server:
            with pytest.raises(ValueError, match="dtype"):
                server.submit(np.full((4, 60), "x"))
            with pytest.raises(ValueError, match="dtype"):
                server.submit(np.zeros((4, 60), dtype=np.complex128))

    def test_valid_integer_windows_still_accepted(self, cache):
        with make_server(cache=cache) as server:
            out = server.infer([np.zeros((4, 60), dtype=np.int16)])
            assert out.shape == (1, server.num_classes)


# --------------------------------------------------------------------- #
# Backend cache statistics
# --------------------------------------------------------------------- #
class TestCacheStats:
    def test_eviction_counting_and_snapshot(self, rng, cache):
        small = BackendCache(max_entries=2)
        for patch in (10, 20, 30):
            InferenceServer(
                "bio1",
                "float",
                patch_size=patch,
                model_kwargs=GEOMETRY,
                cache=small,
            ).close()
        stats = small.stats
        assert stats.cache_entries == 2
        assert stats.cache_misses == 3
        assert stats.cache_evictions == 1
        assert stats.cache_hits == 0
        # The snapshot is frozen — counters cannot be poked from outside.
        with pytest.raises(AttributeError):
            stats.cache_evictions = 99

    def test_clear_resets_counters(self):
        small = BackendCache(max_entries=1)
        small.get_or_build(("a",), StubBackend)
        small.get_or_build(("a",), StubBackend)
        small.get_or_build(("b",), StubBackend)
        assert small.stats.cache_hits == 1
        assert small.stats.cache_evictions == 1
        small.clear()
        stats = small.stats
        assert (
            stats.cache_entries,
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
        ) == (0, 0, 0, 0)


# --------------------------------------------------------------------- #
# The chaos soak (the acceptance scenario)
# --------------------------------------------------------------------- #
class TestChaos:
    def test_chaos_soak_loses_no_request_and_recovers(self, rng, cache):
        """Drive a pooled int8 server through a seeded fault schedule of
        crashes, hangs, latency spikes, transient errors and NaN logits at
        mixed priorities.  Contract: every future resolves (logits or typed
        error), degraded answers match the float backend exactly, and the
        worker pool ends the storm at full strength."""
        calibration = rng.standard_normal((32, 4, 60))
        windows = rng.standard_normal((48, 4, 60))

        schedule = {
            1: LatencySpike(0.01),
            3: InjectError(),  # transient -> retried
            5: NaNOutput(),  # non-finite logits -> retried
            7: InjectError(crash=True),  # kills a pool worker
            9: Hang(0.6),  # exceeds the soft timeout -> abandoned
            12: InjectError(),
            15: NaNOutput(),
            18: LatencySpike(0.01),
        }
        faulty = {}

        def wrapper(backend):
            faulty["backend"] = FaultInjectingBackend(backend, schedule)
            return faulty["backend"]

        server = make_server(
            "int8",
            cache=cache,
            calibration=calibration,
            num_workers=2,
            job_timeout_s=0.2,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            circuit_breaker=CircuitBreaker(failure_threshold=8, recovery_s=0.1),
            fallback=True,
            backend_wrapper=wrapper,
        )
        try:
            futures = [
                server.submit(
                    window,
                    priority=Priority.HIGH if i % 3 == 0 else Priority.LOW,
                )
                for i, window in enumerate(windows)
            ]
            results, typed_errors = [], []
            for future in futures:
                try:
                    results.append(future.result(timeout=30.0))
                except (ServingError, DeadlineExceeded, TimeoutError) as error:
                    typed_errors.append(error)
            # No request lost: everything resolved, nothing untyped.
            assert len(results) + len(typed_errors) == len(windows)
            for row in results:
                assert row.shape == (server.num_classes,)
                assert np.isfinite(row).all()
            # The schedule actually fired (including the crash and the hang).
            injected_types = {type(fault) for _, fault in faulty["backend"].injected}
            assert InjectError in injected_types
            # Supervision brought the pool back to full strength.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and server.stats.pool_alive < 2:
                time.sleep(0.01)
            # Degraded rows (if the breaker opened) match the float backend.
            reference = build_float_backend(
                build_model("bio1", patch_size=10, **GEOMETRY).eval()
            )
            for window, row in zip(windows, results):
                if getattr(row, "degraded", False):
                    assert int(np.argmax(row)) == int(
                        np.argmax(reference.run(window[None])[0])
                    )
            # Post-storm: the server serves cleanly again.
            clean = server.infer(windows[:4], timeout=30.0)
            assert np.isfinite(clean).all()
            stats = server.stats
            assert stats.pool_alive == 2
            assert stats.pool_restarts >= 1  # the crash (and/or hang) respawned
            assert stats.status in ("ok", "degraded")
        finally:
            server.close()

    def test_seeded_soak_from_rates_resolves_every_future(self, rng, cache):
        """A from_rates() pseudo-random storm (no hangs/crashes — pure
        latency/error/NaN churn) at two priorities, single worker: every
        future must resolve and the server must stay consistent."""
        windows = rng.standard_normal((64, 4, 60))
        server = make_server(
            cache=cache,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            backend_wrapper=lambda b: FaultInjectingBackend.from_rates(
                b,
                seed=13,
                calls=512,
                latency_rate=0.1,
                latency_s=0.002,
                error_rate=0.15,
                nan_rate=0.1,
            ),
        )
        try:
            futures = [
                server.submit(
                    window,
                    priority=Priority.HIGH if i % 2 else Priority.LOW,
                )
                for i, window in enumerate(windows)
            ]
            outcomes = 0
            for future in futures:
                try:
                    row = future.result(timeout=30.0)
                    assert np.isfinite(row).all()
                except ServingError:
                    pass
                outcomes += 1
            assert outcomes == len(windows)
            stats = server.stats
            assert stats.batcher_queue_depth == 0
            assert stats.server_retries >= 1  # the storm exercised the retry path
        finally:
            server.close()


# --------------------------------------------------------------------- #
# Chaos: the managed-session fleet under a fault storm
# --------------------------------------------------------------------- #
class TestSessionChaos:
    def test_fleet_survives_fault_storm_without_losing_state(self, rng, cache):
        """~50 managed sessions across 3 tenants streaming through an int8
        server under a seeded storm of latency spikes, transient errors,
        NaN logits and worker crashes, with one tenant under samples/sec
        quota pressure and periodic NaN-poisoned electrodes.

        Contract: every push resolves (decisions or a typed error — never
        a hang), no session loses state (every reaped session leaves a
        checkpoint consistent with its counters), reaped sessions raise
        :class:`SessionEvicted` immediately, and per-tenant stats conserve
        the decision counts exactly.
        """
        calibration = rng.standard_normal((32, 4, 60))
        server = make_server(
            "int8",
            cache=cache,
            calibration=calibration,
            num_workers=2,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            fallback=True,
            backend_wrapper=lambda b: FaultInjectingBackend.from_rates(
                b,
                seed=29,
                calls=8192,
                latency_rate=0.05,
                latency_s=0.001,
                error_rate=0.08,
                nan_rate=0.05,
                crash_rate=0.01,
            ),
        )
        clock = FakeClock()
        tenants = ["clinic", "lab", "batch"]
        try:
            manager = server.open_session_manager(
                slide=20, smoothing=3, idle_ttl_s=30.0, clock=clock
            )
            manager.configure_tenant("clinic", priority=Priority.HIGH)
            manager.configure_tenant("lab", priority=Priority.NORMAL)
            manager.configure_tenant(
                "batch", priority=Priority.LOW, samples_per_s=500.0, burst_s=1.0
            )
            sessions = [
                manager.create_session(tenants[i % 3]) for i in range(51)
            ]
            signals = [rng.standard_normal((4, 200)) for _ in sessions]
            decisions_ok = 0
            degraded_seen = 0
            quota_rejections = 0
            typed_failures = 0
            rounds = 5
            for round_index in range(rounds):
                lo = round_index * 40
                for i, session in enumerate(sessions):
                    chunk = signals[i][:, lo : lo + 40].copy()
                    if (round_index + i) % 7 == 0:
                        chunk[i % 4, 3] = np.nan  # poisoned electrode
                    try:
                        produced = session.push(chunk)
                    except QuotaExceeded:
                        quota_rejections += 1
                    except ServingError:
                        typed_failures += 1  # e.g. a WorkerCrash surfacing
                    else:
                        decisions_ok += len(produced)
                        degraded_seen += sum(d.degraded for d in produced)
                clock.advance(1.0)  # refill the batch tenant's bucket
            # The storm actually bit on every axis.
            assert quota_rejections > 0
            assert degraded_seen > 0
            # Supervision brings the pool back to strength after the storm.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and server.stats.pool_alive < 2:
                time.sleep(0.01)
            # One server snapshot holds both laws.  Conservation:
            # per-session counters == recorded decisions, per-tenant
            # series == sum of their sessions, fleet == total.
            stats = server.stats
            assert stats.pool_alive == 2
            assert decisions_ok == sum(s.windows for s in sessions)
            for name in tenants:
                mine = [s for s in sessions if s.tenant == name]
                assert stats.get("sessions_windows", tenant=name) == sum(
                    s.windows for s in mine
                )
                assert stats.get("sessions_degraded_windows", tenant=name) == sum(
                    s.degraded_windows for s in mine
                )
            assert stats.sessions_windows == decisions_ok
            assert stats.by("sessions_quota_rejections", "tenant") == {
                "batch": quota_rejections
            }
            # Reap the whole fleet deterministically; nothing may hang.
            clock.advance(31.0)
            assert manager.reap_idle() == len(sessions)
            started = time.monotonic()
            for session in sessions:
                with pytest.raises(SessionEvicted) as excinfo:
                    session.push(signals[0][:, :10])
                assert excinfo.value.reason == "idle"
                # No session lost state: the final checkpoint agrees with
                # the session's own successful-decision counters.
                final = manager.checkpoint(session.session_id)
                assert final.windows_classified == session.windows
                assert final.samples_seen >= session.samples
            assert time.monotonic() - started < 10.0  # typed errors, not hangs
            stats = manager.stats
            assert stats.by("sessions_retired", "reason") == {"idle": len(sessions)}
            assert stats.sessions_open == 0
            # One survivor restored from a checkpoint keeps streaming.
            revived = manager.restore(manager.checkpoint(sessions[0].session_id))
            assert revived.windows_classified == sessions[0].windows
            revived.push(signals[0][:, :40])
        finally:
            server.close()
        assert manager.closed
