"""Session-lifecycle tests: checkpoints, quotas, reaping, degradation.

The crash-safe contract is pinned **bitwise**: for every registry config
(float and int8 backends, LUT and elementwise op sets), a session
restored from a mid-stream checkpoint — round-tripped through JSON —
emits decisions identical to the uninterrupted session for the same tail
of signal.  On top of that, the :class:`SessionManager` tests drive the
fleet layer deterministically with an injectable clock: idle reaping,
per-tenant session and samples/sec quotas, LOW-tenant-first pressure
eviction, graceful drain that settles in-flight chunks, and
degraded-electrode masking that flags decisions instead of poisoning the
majority vote.
"""

import dataclasses
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.data import StreamWindower, sliding_window_count
from repro.serve import (
    SESSION_CHECKPOINT_VERSION,
    BackendCache,
    InferenceServer,
    ManagedSession,
    MajorityVoter,
    Overloaded,
    Priority,
    QuotaExceeded,
    ServingError,
    SessionCheckpoint,
    SessionEvicted,
    SessionManager,
    SessionManagerStats,
    StreamSession,
    TenantStats,
    restore_stream_session,
)

GEOMETRY = dict(num_channels=4, window_samples=60, seed=3)

#: Every registry-reachable (architecture, patch_size) pair; temponet has
#: no patch-size knob.
CONFIGS = [
    ("bio1", 10),
    ("bio1", 20),
    ("bio2", 10),
    ("bio2", 20),
    ("temponet", None),
]

#: Backend variants the bitwise pin must hold for.
VARIANTS = ["float", "int8"]


def config_id(config):
    arch, patch = config
    return arch if patch is None else f"{arch}-p{patch}"


class FakeClock:
    """Injectable monotonic clock for deterministic TTL/quota tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def toy_classify(windows: np.ndarray) -> np.ndarray:
    """Deterministic pure function of window content (8 classes)."""
    return (np.abs(np.sum(windows, axis=(1, 2))) * 997).astype(np.int64) % 8


def make_manager(**kwargs) -> SessionManager:
    defaults = dict(
        classify=toy_classify, window=60, num_channels=4, slide=20, smoothing=3
    )
    defaults.update(kwargs)
    return SessionManager(**defaults)


#: A checkpoint written by the v1 format's original writer: a
#: ``window=6, slide=2`` two-channel toy session cut after 15 samples of
#: :func:`golden_signal`.  Restoring it must keep working, key for key.
V1_CHECKPOINT_JSON = (
    '{"version": 1, "window": 6, "slide": 2, "num_channels": 2, "smoothing": 3, '
    '"buffer": [[0.125, 0.5, 0.875, 1.25, -1.0], [-1.0, -0.625, -0.25, 0.125, 0.5]], '
    '"buffer_dtype": "<f8", "base": 10, "samples_seen": 15, "windows_emitted": 5, '
    '"voter_recent": [1, 1, 3], "windows_classified": 5, "session_id": "s000007", '
    '"tenant": "clinic"}'
)

V1_KEYS = {
    "version",
    "window",
    "slide",
    "num_channels",
    "smoothing",
    "buffer",
    "buffer_dtype",
    "base",
    "samples_seen",
    "windows_emitted",
    "voter_recent",
    "windows_classified",
    "session_id",
    "tenant",
}


def golden_signal() -> np.ndarray:
    """The 25-sample stream :data:`V1_CHECKPOINT_JSON` was cut from."""
    return (np.arange(50, dtype=np.float64).reshape(2, 25) % 7) * 0.375 - 1.0


def janitor_threads() -> int:
    return sum(thread.name == "session-janitor" for thread in threading.enumerate())


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="module")
def shared_cache():
    return BackendCache()


def build_server(config, backend, cache) -> InferenceServer:
    arch, patch = config
    calibration = None
    if backend == "int8":
        calibration = np.random.default_rng(5).normal(size=(16, 4, 60))
    return InferenceServer(
        arch,
        backend,
        patch_size=patch,
        model_kwargs=GEOMETRY,
        calibration=calibration,
        cache=cache,
        max_batch_size=8,
    )


# --------------------------------------------------------------------- #
# Windower state export (the data-layer substrate of checkpoints)
# --------------------------------------------------------------------- #
class TestWindowerState:
    def test_state_round_trip_is_bitwise(self):
        rng = np.random.default_rng(2)
        signal = rng.normal(size=(3, 377))
        original = StreamWindower(40, 13, num_channels=3)
        original.push(signal[:, :190])
        clone = StreamWindower(40, 13, num_channels=3)
        clone.load_state(original.state())
        tail = signal[:, 190:]
        np.testing.assert_array_equal(original.push(tail), clone.push(tail))
        assert clone.windows_emitted == original.windows_emitted
        assert clone.samples_seen == original.samples_seen

    def test_state_buffer_is_a_copy(self):
        windower = StreamWindower(10, 10, num_channels=1)
        windower.push(np.ones((1, 7)))
        state = windower.state()
        state["buffer"][...] = 99.0
        # Mutating the snapshot never reaches the live buffer.
        assert windower.push(np.ones((1, 3))).shape[0] == 1

    @pytest.mark.parametrize("key,value", [("window", 99), ("slide", 99), ("num_channels", 99)])
    def test_load_state_rejects_geometry_mismatch(self, key, value):
        windower = StreamWindower(20, 5, num_channels=2)
        state = windower.state()
        state[key] = value
        fresh = StreamWindower(20, 5, num_channels=2)
        with pytest.raises(ValueError, match=key):
            fresh.load_state(state)

    def test_load_state_rejects_dtype_mismatch(self):
        state = StreamWindower(20, 5, num_channels=2).state()
        state["dtype"] = "<f4"
        with pytest.raises(ValueError, match="dtype"):
            StreamWindower(20, 5, num_channels=2).load_state(state)

    def test_empty_buffer_survives_list_round_trip(self):
        """A (C, 0) remainder loses its channel axis through ``tolist``;
        ``load_state`` must normalise it back instead of rejecting."""
        original = StreamWindower(10, 10, num_channels=4)
        original.push(np.zeros((4, 20)))  # exact multiple: empty remainder
        state = original.state()
        state["buffer"] = np.asarray(state["buffer"]).tolist()
        clone = StreamWindower(10, 10, num_channels=4)
        clone.load_state(state)
        assert clone.pending_samples == 0
        assert clone.push(np.zeros((4, 10))).shape == (1, 4, 10)


# --------------------------------------------------------------------- #
# SessionCheckpoint: capture / restore / serialization
# --------------------------------------------------------------------- #
class TestSessionCheckpoint:
    def make_session(self):
        return StreamSession(toy_classify, window=60, slide=20, num_channels=4, smoothing=3)

    def test_payload_json_round_trip_is_exact(self, rng):
        session = self.make_session()
        session.run(rng.normal(size=(4, 173)), chunk_size=31)
        checkpoint = SessionCheckpoint.capture(session, session_id="s42", tenant="a")
        clone = SessionCheckpoint.from_json(checkpoint.to_json())
        np.testing.assert_array_equal(clone.buffer, checkpoint.buffer)
        assert clone.buffer.dtype == checkpoint.buffer.dtype
        assert clone.to_payload() == checkpoint.to_payload()
        assert clone.session_id == "s42" and clone.tenant == "a"
        assert clone.version == SESSION_CHECKPOINT_VERSION

    def test_unknown_version_rejected(self, rng):
        session = self.make_session()
        payload = SessionCheckpoint.capture(session).to_payload()
        payload["version"] = SESSION_CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            SessionCheckpoint.from_payload(payload)
        stale = dataclasses.replace(
            SessionCheckpoint.capture(session), version=SESSION_CHECKPOINT_VERSION + 1
        )
        with pytest.raises(ValueError, match="version"):
            stale.restore_into(self.make_session())

    def test_restore_into_rejects_geometry_mismatch(self, rng):
        session = self.make_session()
        session.run(rng.normal(size=(4, 100)), chunk_size=25)
        checkpoint = SessionCheckpoint.capture(session)
        other = StreamSession(toy_classify, window=30, slide=20, num_channels=4, smoothing=3)
        with pytest.raises(ValueError, match="window"):
            checkpoint.restore_into(other)
        narrower = StreamSession(toy_classify, window=60, slide=20, num_channels=4, smoothing=5)
        with pytest.raises(ValueError, match="history"):
            checkpoint.restore_into(narrower)

    def test_restored_indices_continue_the_stream(self, rng):
        signal = rng.normal(size=(4, 260))
        session = self.make_session()
        head = session.run(signal[:, :130], chunk_size=19)
        checkpoint = SessionCheckpoint.capture(session)
        restored = restore_stream_session(checkpoint, toy_classify)
        assert restored.windows_classified == len(head)
        assert restored.decisions == []
        tail = restored.run(signal[:, 130:], chunk_size=19)
        assert [d.window_index for d in head + tail] == list(range(len(head) + len(tail)))

    def test_v1_wire_format_restores_bitwise(self):
        """A literal v1 payload still restores and continues the stream
        bitwise, and ``to_payload`` writes exactly the v1 keys and values
        (a round-trip test alone passes under any self-consistent schema)."""
        checkpoint = SessionCheckpoint.from_json(V1_CHECKPOINT_JSON)
        assert set(checkpoint.to_payload()) == V1_KEYS
        assert checkpoint.to_payload() == json.loads(V1_CHECKPOINT_JSON)
        assert checkpoint.to_json() == V1_CHECKPOINT_JSON
        assert (checkpoint.session_id, checkpoint.tenant) == ("s000007", "clinic")
        signal = golden_signal()
        expected = StreamSession(
            toy_classify, window=6, slide=2, num_channels=2, smoothing=3
        ).run(signal, chunk_size=4)
        restored = restore_stream_session(checkpoint, toy_classify)
        tail = restored.run(signal[:, 15:], chunk_size=4)
        assert tail == expected[checkpoint.windows_classified :]
        assert len(tail) == 5

    def test_decisions_are_outputs_not_state(self, rng):
        """Checkpointing twice around a push changes only the counters —
        recorded decisions never bloat the snapshot."""
        session = self.make_session()
        session.run(rng.normal(size=(4, 200)), chunk_size=40)
        payload = SessionCheckpoint.capture(session).to_payload()
        assert "decisions" not in payload


# --------------------------------------------------------------------- #
# The bitwise pin, per registry config and backend variant
# --------------------------------------------------------------------- #
@pytest.mark.slow  # full registry x backend matrix; tier-1 keeps the targeted unit tests
class TestCheckpointParityRegistry:
    CUTS = [73, 150, 301]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("config", CONFIGS, ids=config_id)
    def test_restored_equals_uninterrupted(self, config, variant, shared_cache):
        rng = np.random.default_rng(7)
        signal = rng.normal(size=(4, 400))
        with build_server(config, variant, shared_cache) as server:
            baseline = server.open_stream(slide=20, smoothing=3)
            expected = baseline.run(signal, chunk_size=17)
            assert len(expected) == sliding_window_count(400, 60, 20)

            def classify(windows):
                return server.predict(windows, priority=Priority.HIGH)

            for cut in self.CUTS:
                head = server.open_stream(slide=20, smoothing=3)
                head.run(signal[:, :cut], chunk_size=17)
                wire = SessionCheckpoint.capture(head).to_json()
                tail = restore_stream_session(SessionCheckpoint.from_json(wire), classify)
                tail.run(signal[:, cut:], chunk_size=17)
                assert head.decisions + tail.decisions == expected, (
                    f"cut={cut}: restored decisions diverge from uninterrupted run"
                )


# --------------------------------------------------------------------- #
# Manager lifecycle
# --------------------------------------------------------------------- #
class TestManagerLifecycle:
    def test_create_attach_close(self, rng):
        with make_manager() as manager:
            session = manager.create_session("alice")
            assert session.session_id == "s000001"
            assert len(manager) == 1 and session.session_id in manager
            assert manager.attach(session.session_id) is session
            with pytest.raises(KeyError):
                manager.attach("s999999")
            session.run(rng.normal(size=(4, 200)), chunk_size=50)
            final = manager.close_session(session.session_id)
            assert final.samples_seen == 200
            assert session.state == "closed"
            assert len(manager) == 0
            with pytest.raises(SessionEvicted):
                session.push(rng.normal(size=(4, 10)))
            with pytest.raises(SessionEvicted):
                manager.close_session(session.session_id)
            assert manager.stats.sessions_closed == 1

    def test_managed_decisions_match_raw_session(self, rng):
        signal = rng.normal(size=(4, 300))
        raw = StreamSession(toy_classify, window=60, slide=20, num_channels=4, smoothing=3)
        raw_decisions = raw.run(signal, chunk_size=37)
        with make_manager() as manager:
            managed = manager.create_session()
            assert managed.run(signal, chunk_size=37) == raw_decisions
            assert managed.windows == len(raw_decisions)
            assert managed.samples == 300

    def test_detach_checkpoints_without_closing(self, rng):
        with make_manager() as manager:
            session = manager.create_session("bob")
            session.run(rng.normal(size=(4, 150)), chunk_size=50)
            token = manager.detach(session.session_id)
            assert token.samples_seen == 150
            assert session.state == "active"  # still live, TTL still running
            session.push(rng.normal(size=(4, 50)))

    def test_idle_reaping_is_deterministic(self, rng):
        clock = FakeClock()
        with make_manager(idle_ttl_s=10.0, clock=clock) as manager:
            stale = manager.create_session("a")
            fresh = manager.create_session("b")
            stale.run(rng.normal(size=(4, 120)), chunk_size=60)
            clock.advance(9.0)
            fresh.push(rng.normal(size=(4, 30)))  # refreshes b's idle clock
            clock.advance(1.0)  # a idle 10s, b idle 1s
            assert manager.reap_idle() == 1
            assert stale.state == "evicted" and fresh.state == "active"
            with pytest.raises(SessionEvicted) as excinfo:
                stale.push(rng.normal(size=(4, 10)))
            assert excinfo.value.reason == "idle"
            assert excinfo.value.session_id == stale.session_id
            with pytest.raises(SessionEvicted):
                manager.attach(stale.session_id)
            # No state lost: the final checkpoint survives reaping.
            assert manager.checkpoint(stale.session_id).samples_seen == 120

    def test_restore_after_reaping_is_bitwise(self, rng):
        signal = rng.normal(size=(4, 400))
        control = StreamSession(toy_classify, window=60, slide=20, num_channels=4, smoothing=3)
        expected = control.run(signal, chunk_size=23)
        clock = FakeClock()
        with make_manager(idle_ttl_s=5.0, clock=clock) as manager:
            session = manager.create_session("a")
            head = session.run(signal[:, :170], chunk_size=23)
            clock.advance(6.0)
            assert manager.reap_idle() == 1
            revived = manager.restore(manager.checkpoint(session.session_id))
            assert revived.session_id != session.session_id
            assert revived.tenant == "a"
            tail = revived.run(signal[:, 170:], chunk_size=23)
            assert head + tail == expected

    def test_janitor_thread_reaps_on_real_clock(self, rng):
        with make_manager(idle_ttl_s=0.05, janitor_interval_s=0.01) as manager:
            session = manager.create_session()
            deadline = time.monotonic() + 2.0
            while session.state == "active" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert session.state == "evicted"
            assert manager.stats.reaped_idle == 1

    def test_session_count_quota(self):
        with make_manager(max_sessions_per_tenant=2) as manager:
            manager.create_session("t")
            manager.create_session("t")
            with pytest.raises(QuotaExceeded) as excinfo:
                manager.create_session("t")
            assert excinfo.value.tenant == "t"
            assert excinfo.value.quota == "sessions"
            manager.create_session("other")  # other tenants unaffected
            assert manager.stats.tenants["t"].quota_rejections == 1

    def test_samples_per_second_token_bucket(self, rng):
        clock = FakeClock()
        with make_manager(clock=clock) as manager:
            manager.configure_tenant("t", samples_per_s=100.0, burst_s=1.0)
            session = manager.create_session("t")
            session.push(rng.normal(size=(4, 100)))  # burst budget spent
            with pytest.raises(QuotaExceeded) as excinfo:
                session.push(rng.normal(size=(4, 50)))
            assert excinfo.value.quota == "samples_per_s"
            assert excinfo.value.tenant == "t"
            clock.advance(0.5)  # refills 50 tokens
            session.push(rng.normal(size=(4, 50)))
            stats = manager.stats.tenants["t"]
            assert stats.samples == 150
            assert stats.quota_rejections == 1

    def test_rejected_chunk_is_never_partially_ingested(self, rng):
        clock = FakeClock()
        with make_manager(clock=clock) as manager:
            manager.configure_tenant("t", samples_per_s=100.0, burst_s=1.0)
            session = manager.create_session("t")
            with pytest.raises(QuotaExceeded):
                session.push(rng.normal(size=(4, 150)))  # bigger than the budget
            assert session.samples_seen == 0  # all-or-nothing

    def test_pressure_evicts_low_priority_lru_first(self, rng):
        clock = FakeClock()
        with make_manager(max_sessions=2, clock=clock) as manager:
            manager.configure_tenant("vip", priority=Priority.HIGH)
            manager.configure_tenant("batch", priority=Priority.LOW)
            lru = manager.create_session("batch")
            mru = manager.create_session("batch")
            clock.advance(1.0)
            mru.push(rng.normal(size=(4, 30)))  # mru is now the fresher one
            vip = manager.create_session("vip")
            assert lru.state == "evicted" and mru.state == "active"
            with pytest.raises(SessionEvicted) as excinfo:
                lru.push(rng.normal(size=(4, 10)))
            assert excinfo.value.reason == "pressure"
            assert manager.stats.evicted_pressure == 1
            # A LOW tenant cannot evict HIGH/LOW peers to get in.
            with pytest.raises(QuotaExceeded):
                manager.create_session("batch")
            assert vip.state == "active"

    def test_drain_checkpoints_everything_and_stops_admission(self, rng):
        with make_manager() as manager:
            a = manager.create_session("a")
            b = manager.create_session("b")
            a.run(rng.normal(size=(4, 140)), chunk_size=70)
            checkpoints = manager.drain()
            assert set(checkpoints) == {a.session_id, b.session_id}
            assert checkpoints[a.session_id].samples_seen == 140
            assert a.state == "evicted" and b.state == "evicted"
            with pytest.raises(SessionEvicted) as excinfo:
                a.push(rng.normal(size=(4, 10)))
            assert excinfo.value.reason == "drain"
            with pytest.raises(Overloaded):
                manager.create_session("c")
            assert manager.drain() == {}  # idempotent

    def test_drain_settles_in_flight_chunks(self, rng):
        release = threading.Event()

        def slow_classify(windows):
            release.wait(timeout=5.0)
            return toy_classify(windows)

        manager = SessionManager(
            classify=slow_classify, window=60, num_channels=4, slide=20, smoothing=3
        )
        session = manager.create_session()
        result = {}

        def pusher():
            result["decisions"] = session.push(rng.normal(size=(4, 120)))

        thread = threading.Thread(target=pusher)
        thread.start()
        time.sleep(0.05)  # the push is parked inside classify
        release.set()
        checkpoints = manager.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        # The in-flight chunk completed and its windows are in the final
        # checkpoint — drain settled it instead of racing it.
        assert len(result["decisions"]) == sliding_window_count(120, 60, 20)
        assert checkpoints[session.session_id].windows_classified == len(result["decisions"])

    def test_degraded_nan_channel_is_masked_not_fatal(self, rng):
        signal = rng.normal(size=(4, 120))
        poisoned = signal.copy()
        poisoned[2, 17] = np.nan
        masked = signal.copy()
        masked[2, :] = 0.0  # what the manager should feed the classifier
        control = StreamSession(toy_classify, window=60, slide=20, num_channels=4, smoothing=3)
        expected = control.run(masked, chunk_size=120)
        with make_manager() as manager:
            session = manager.create_session("t")
            decisions = session.push(poisoned)
            assert len(decisions) == len(expected)
            assert all(d.degraded for d in decisions)
            assert [d.label for d in decisions] == [d.label for d in expected]
            assert [d.smoothed_label for d in decisions] == [
                d.smoothed_label for d in expected
            ]
            assert session.decisions == decisions  # recorded flags match
            assert manager.stats.tenants["t"].degraded_windows == len(decisions)

    def test_degraded_flatline_channel_detected(self, rng):
        signal = rng.normal(size=(4, 120))
        signal[1, :] = 0.25  # dead electrode: exact DC flatline
        with make_manager() as manager:
            session = manager.create_session()
            decisions = session.push(signal)
            assert decisions and all(d.degraded for d in decisions)

    def test_short_flatline_chunk_not_flagged(self, rng):
        with make_manager(dead_channel_min_samples=32) as manager:
            session = manager.create_session()
            chunk = rng.normal(size=(4, 16))
            chunk[0, :] = 1.0  # constant, but too short to call dead
            session.push(chunk)
            tail = rng.normal(size=(4, 104))
            decisions = session.push(tail)
            assert decisions and not any(d.degraded for d in decisions)

    def test_clean_chunks_are_not_degraded(self, rng):
        with make_manager() as manager:
            session = manager.create_session()
            decisions = session.run(rng.normal(size=(4, 200)), chunk_size=50)
            assert decisions and not any(d.degraded for d in decisions)
            assert session.degraded_windows == 0

    def test_malformed_chunk_keeps_canonical_error_and_charges_nothing(self, rng):
        clock = FakeClock()
        with make_manager(clock=clock) as manager:
            manager.configure_tenant("t", samples_per_s=100.0, burst_s=1.0)
            session = manager.create_session("t")
            with pytest.raises(ValueError, match="expects 4 channel"):
                session.push(rng.normal(size=(3, 50)))
            # The garbage chunk consumed no quota: the full burst remains.
            session.push(rng.normal(size=(4, 100)))

    def test_stats_snapshots_are_frozen(self, rng):
        with make_manager() as manager:
            session = manager.create_session("t")
            session.run(rng.normal(size=(4, 100)), chunk_size=50)
            stats = manager.stats
            assert isinstance(stats, SessionManagerStats)
            with pytest.raises(dataclasses.FrozenInstanceError):
                stats.sessions_open = 99
            with pytest.raises(dataclasses.FrozenInstanceError):
                stats.tenants["t"].windows = 99

    def test_tenant_stats_conserve_counts(self, rng):
        with make_manager() as manager:
            manager.configure_tenant("a", priority=Priority.HIGH)
            manager.configure_tenant("b", priority=Priority.LOW)
            sessions = [manager.create_session(t) for t in ("a", "a", "b")]
            total = 0
            for i, session in enumerate(sessions):
                total += len(session.run(rng.normal(size=(4, 100 + 20 * i)), chunk_size=40))
            stats = manager.stats
            assert sum(t.windows for t in stats.tenants.values()) == total
            assert sum(t.samples for t in stats.tenants.values()) == 100 + 120 + 140
            assert stats.sessions_created == 3

    def test_drain_returns_every_final_checkpoint_past_the_tombstone_ring(self, rng):
        with make_manager(max_tombstones=2) as manager:
            sessions = [manager.create_session(t) for t in ("a", "b", "c")]
            for i, session in enumerate(sessions):
                session.push(rng.normal(size=(4, 40 + 20 * i)))
            checkpoints = manager.drain()
            assert set(checkpoints) == {s.session_id for s in sessions}
            for i, session in enumerate(sessions):
                assert checkpoints[session.session_id].samples_seen == 40 + 20 * i
            with pytest.raises(KeyError):  # the ring still bounds retention
                manager.checkpoint(sessions[0].session_id)

    def test_racing_close_reap_and_drain_retire_each_session_once(self, rng):
        """Closers, reapers, the janitor and a drain race over the same
        sessions, with more threads than cores and a short switch
        interval: each session is retired exactly once, by one caller,
        and the fleet and tenant counters agree with who won."""
        clock = FakeClock()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_manager(idle_ttl_s=1.0, janitor_interval_s=0.001, clock=clock) as manager:
                sessions = [manager.create_session(f"t{i % 3}") for i in range(60)]
                for session in sessions:
                    session.push(rng.normal(size=(4, 60)))
                clock.advance(2.0)  # every session is now reapable
                closed, refused, reaped, drained = {}, [], [], {}

                def closer(mine):
                    for session in mine:
                        try:
                            closed[session.session_id] = manager.close_session(
                                session.session_id
                            )
                        except SessionEvicted:
                            refused.append(session.session_id)

                threads = [
                    threading.Thread(target=closer, args=(sessions[i::4],)) for i in range(4)
                ]
                threads += [
                    threading.Thread(target=lambda: reaped.append(manager.reap_idle()))
                    for _ in range(2)
                ]
                threads.append(threading.Thread(target=lambda: drained.update(manager.drain())))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                stats = manager.stats
                assert not set(closed) & set(drained)
                assert len(closed) + len(refused) == len(sessions)
                assert stats.sessions_closed == len(closed)
                assert stats.sessions_closed + stats.sessions_evicted == len(sessions)
                assert stats.reaped_idle >= sum(reaped)  # the janitor reaps too
                assert stats.reaped_idle + len(drained) + len(closed) == len(sessions)
                assert stats.sessions_open == 0
                assert all(t.sessions_open == 0 for t in stats.tenants.values())
                assert sum(t.sessions_evicted for t in stats.tenants.values()) == (
                    stats.sessions_evicted
                )
                for session in sessions:
                    assert session.state != "active"
                    assert manager.checkpoint(session.session_id).samples_seen == 60
        finally:
            sys.setswitchinterval(previous)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_manager(max_sessions_per_tenant=0),
            lambda: make_manager(samples_per_s=0.0),
            lambda: make_manager(samples_per_s=-5.0),
            lambda: make_manager().configure_tenant("t", samples_per_s=-5),
            lambda: make_manager().configure_tenant("t", samples_per_s=0),
            lambda: make_manager().configure_tenant("t", max_sessions=0),
            lambda: make_manager().configure_tenant("t", burst_s=0),
        ],
        ids=[
            "max_sessions_per_tenant=0",
            "samples_per_s=0",
            "samples_per_s=-5",
            "tenant-samples_per_s=-5",
            "tenant-samples_per_s=0",
            "tenant-max_sessions=0",
            "tenant-burst_s=0",
        ],
    )
    def test_unmeetable_quota_is_refused_at_configuration(self, build):
        with pytest.raises(ValueError, match="max_sessions|samples_per_s|burst_s"):
            build()

    def test_refused_tenant_quota_changes_nothing(self, rng):
        with make_manager() as manager:
            manager.configure_tenant("t", priority=Priority.HIGH, samples_per_s=100.0)
            with pytest.raises(ValueError):
                manager.configure_tenant("t", priority=Priority.LOW, burst_s=-1)
            assert manager.stats.tenants["t"].priority == Priority.HIGH
            manager.create_session("t").push(rng.normal(size=(4, 100)))

    def test_managed_session_is_a_stream_session(self, rng):
        with make_manager() as manager:
            session = manager.create_session()
            assert isinstance(session, StreamSession)
            decisions = session.run(rng.normal(size=(4, 120)), chunk_size=40)
            assert session.labels().tolist() == [d.smoothed_label for d in decisions]
            assert session.windows_classified == len(decisions) == session.windows

    def test_reset_is_locked_and_refused_once_retired(self, rng):
        with make_manager() as manager:
            session = manager.create_session()
            session.run(rng.normal(size=(4, 120)), chunk_size=40)
            entered = threading.Event()
            release = threading.Event()
            real_classify = session.classify

            def parked_classify(windows):
                entered.set()
                release.wait(timeout=5.0)
                return real_classify(windows)

            session.classify = parked_classify
            pusher = threading.Thread(target=session.push, args=(rng.normal(size=(4, 60)),))
            pusher.start()
            assert entered.wait(timeout=5.0)
            resetter = threading.Thread(target=session.reset)
            resetter.start()
            resetter.join(timeout=0.1)
            assert resetter.is_alive()  # waits for the in-flight push
            release.set()
            pusher.join(timeout=5.0)
            resetter.join(timeout=5.0)
            assert not pusher.is_alive() and not resetter.is_alive()
            assert session.decisions == [] and session.samples_seen == 0
            manager.close_session(session.session_id)
            with pytest.raises(SessionEvicted) as excinfo:
                session.reset()
            assert excinfo.value.reason == "closed"

    def test_serverless_manager_requires_geometry(self):
        with pytest.raises(ValueError, match="classify"):
            SessionManager()
        with pytest.raises(ValueError, match="slide"):
            SessionManager(classify=toy_classify, window=60, num_channels=4).create_session()


# --------------------------------------------------------------------- #
# Server integration
# --------------------------------------------------------------------- #
class TestServerIntegration:
    def make_server(self, cache):
        return InferenceServer(
            "bio1",
            "float",
            patch_size=10,
            model_kwargs=GEOMETRY,
            cache=cache,
            max_batch_size=8,
        )

    def test_server_stats_surface_session_stats(self, rng, shared_cache):
        server = self.make_server(shared_cache)
        try:
            assert server.stats.sessions is None  # no manager attached yet
            manager = server.open_session_manager(slide=20, smoothing=3)
            session = manager.create_session("clinic")
            session.run(rng.normal(size=(4, 200)), chunk_size=50)
            snapshot = server.stats.sessions
            assert isinstance(snapshot, SessionManagerStats)
            assert snapshot.sessions_open == 1
            assert snapshot.tenants["clinic"].windows == len(session.decisions)
        finally:
            server.close()

    def test_server_close_drains_manager(self, rng, shared_cache):
        server = self.make_server(shared_cache)
        manager = server.open_session_manager(slide=20)
        session = manager.create_session()
        session.run(rng.normal(size=(4, 140)), chunk_size=70)
        server.close()
        assert manager.closed
        assert session.state == "evicted"
        with pytest.raises(SessionEvicted) as excinfo:
            session.push(rng.normal(size=(4, 10)))
        assert excinfo.value.reason == "drain"
        # State survived the shutdown.
        assert manager.checkpoint(session.session_id).samples_seen == 140

    def test_one_live_manager_per_server(self, shared_cache):
        with self.make_server(shared_cache) as server:
            first = server.open_session_manager(slide=20)
            with pytest.raises(RuntimeError, match="session manager"):
                server.open_session_manager(slide=20)
            first.close()
            server.open_session_manager(slide=30)  # closed manager is replaceable

    def test_refused_manager_leaves_no_janitor_thread(self, shared_cache):
        with self.make_server(shared_cache) as server:
            first = server.open_session_manager(slide=20)
            before = janitor_threads()
            with pytest.raises(RuntimeError, match="session manager"):
                server.open_session_manager(slide=20, idle_ttl_s=60.0)
            assert janitor_threads() == before
            first.close()

    def test_manager_restore_through_server_is_bitwise(self, rng, shared_cache):
        signal = rng.normal(size=(4, 360))
        with self.make_server(shared_cache) as server:
            baseline = server.open_stream(slide=20, smoothing=3)
            expected = baseline.run(signal, chunk_size=29)
            manager = server.open_session_manager(slide=20, smoothing=3)
            session = manager.create_session()
            head = session.run(signal[:, :151], chunk_size=29)
            wire = manager.close_session(session.session_id).to_json()
            revived = manager.restore(SessionCheckpoint.from_json(wire))
            tail = revived.run(signal[:, 151:], chunk_size=29)
            assert head + tail == expected
