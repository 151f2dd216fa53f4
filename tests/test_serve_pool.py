"""Multi-former batcher and priority/deadline request-model tests.

``DynamicBatcher(num_workers=N)`` runs ``N`` forming threads over one
priority queue, each executing the batch it formed.  Their contract
mirrors the single former's: no request is lost, a failing batch fails
only its own futures, and ``close()`` drains everything already queued
and joins every former.  With ``N > 1`` the formers are supervised: a
``WorkerCrash`` kills its former and a replacement starts, a former stuck
past ``job_timeout_s`` is abandoned (its batch fails with
``BackendTimeout``, its late result is discarded), and replacements draw
from a ``max_restarts`` budget.  The priority model's contract is ordering
(lower priority values form batches first, FIFO within a level) and
deadline hygiene (an expired request resolves with ``DeadlineExceeded``
without occupying a batch slot or failing its batch-mates).
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    BackendCache,
    BackendTimeout,
    DeadlineExceeded,
    DynamicBatcher,
    InferenceServer,
    Overloaded,
    Priority,
    Snapshot,
    WorkerCrash,
)


def echo_batch(batch, deadline=None):
    return np.asarray(batch)


def _wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# --------------------------------------------------------------------- #
# N formers: overlap, drain and identity under concurrency
# --------------------------------------------------------------------- #
class TestFormers:
    def test_jobs_actually_overlap_across_workers(self):
        barrier = threading.Barrier(3, timeout=5.0)

        def rendezvous(batch, deadline=None):
            barrier.wait()
            return np.asarray(batch)

        with DynamicBatcher(rendezvous, max_batch_size=1, num_workers=3) as batcher:
            futures = [batcher.submit(np.array([i])) for i in range(3)]
            # Each batch blocks until all three run at once: only possible
            # if three formers execute concurrently.
            assert [int(f.result(timeout=10.0)[0]) for f in futures] == [0, 1, 2]
        assert not barrier.broken

    def test_every_request_answered_by_itself(self):
        with DynamicBatcher(echo_batch, max_batch_size=4, num_workers=4) as batcher:
            futures = [batcher.submit(np.array([i])) for i in range(64)]
            results = [int(f.result(timeout=10.0)[0]) for f in futures]
        assert results == list(range(64))

    def test_close_drains_queue_and_inflight_batches(self):
        def slow_echo(batch, deadline=None):
            time.sleep(0.01)
            return np.asarray(batch)

        batcher = DynamicBatcher(slow_echo, max_batch_size=2, num_workers=3)
        futures = [batcher.submit(np.array([i])) for i in range(30)]
        assert batcher.close() is True
        # close() returned only after every formed batch executed.
        assert all(f.done() for f in futures)
        assert [int(f.result(timeout=0)[0]) for f in futures] == list(range(30))
        assert batcher.stats.pool_jobs == batcher.stats.batcher_batches

    def test_batch_grows_while_every_worker_is_busy(self):
        """Work conservation: requests that arrive one by one while both
        formers are busy in the backend wait in the priority queue, and
        the first former to come free takes them all as one batch."""
        release = threading.Event()
        sizes = []

        def gated(batch, deadline=None):
            sizes.append(len(batch))
            release.wait(timeout=10.0)
            return np.asarray(batch)

        with DynamicBatcher(gated, max_batch_size=8, num_workers=2) as batcher:
            try:
                parked = []
                for value in (-1, -2):
                    parked.append(batcher.submit(np.array([value])))
                    assert _wait_until(parked[-1].running)
                arrivals = []
                for value in range(6):
                    arrivals.append(batcher.submit(np.array([value])))
                    time.sleep(0.005)
            finally:
                release.set()
            results = [int(f.result(timeout=10.0)[0]) for f in parked + arrivals]
        assert results == [-1, -2, 0, 1, 2, 3, 4, 5]
        assert sizes == [1, 1, 6]

    def test_server_runs_two_requests_in_the_float_backend_at_once(self):
        """The server-level overlap check, whatever the core count: each
        call of the real float backend first waits at a two-party barrier,
        so both single-window batches must be inside ``run`` at once.
        Formers that serialised their batches break the barrier after 5 s
        and fail both requests."""
        barrier = threading.Barrier(2, timeout=5.0)

        class Rendezvous:
            def __init__(self, inner):
                self.inner = inner

            def run(self, windows):
                barrier.wait()
                return self.inner.run(windows)

        windows = np.random.default_rng(0).standard_normal((2, 4, 60))
        with InferenceServer(
            "bio1",
            "float",
            patch_size=10,
            model_kwargs=dict(num_channels=4, window_samples=60, seed=3),
            cache=BackendCache(),
            num_workers=2,
            max_batch_size=1,
            backend_wrapper=Rendezvous,
        ) as server:
            futures = [server.submit(window) for window in windows]
            rows = [future.result(timeout=30.0) for future in futures]
            for window, row in zip(windows, rows):
                np.testing.assert_array_equal(row, server.backend.run(window[None])[0])
        assert not barrier.broken
        # One batch ran on each former.
        assert server.stats.by("pool_jobs", "worker") == {0: 1, 1: 1}

    def test_backend_error_contained_to_one_batch(self):
        calls = []
        lock = threading.Lock()

        def flaky(batch, deadline=None):
            with lock:
                calls.append(batch.shape[0])
            if int(batch[0, 0]) == 0:
                raise ValueError("poisoned batch")
            return np.asarray(batch)

        with DynamicBatcher(flaky, max_batch_size=1, num_workers=2) as batcher:
            bad = batcher.submit(np.array([0]))
            good = [batcher.submit(np.array([i])) for i in range(1, 6)]
            with pytest.raises(ValueError, match="poisoned"):
                bad.result(timeout=10.0)
            assert [int(f.result(timeout=10.0)[0]) for f in good] == [1, 2, 3, 4, 5]
        stats = batcher.stats
        assert stats.pool_failures == 1
        assert stats.pool_jobs == 6
        assert stats.pool_crashes == 0  # an ordinary error never kills a former

    def test_stats_snapshot_is_immutable_and_balanced(self):
        def slow_echo(batch, deadline=None):
            time.sleep(0.002)
            return np.asarray(batch)

        with DynamicBatcher(slow_echo, max_batch_size=1, num_workers=2) as batcher:
            for f in [batcher.submit(np.array([i])) for i in range(10)]:
                f.result(timeout=10.0)
            stats = batcher.stats
            assert isinstance(stats, Snapshot)
            with pytest.raises(AttributeError):
                stats.pool_jobs = 0
            per_worker = stats.by("pool_jobs", "worker")
            assert sum(per_worker.values()) == stats.pool_jobs == 10
            assert set(per_worker) <= {0, 1}
            assert stats.pool_alive == 2
            assert stats.pool_restarts == 0

    def test_stress_more_formers_than_cores_lose_no_request(self):
        """Six formers, four submitting threads and a tiny GIL switch
        interval: every request is answered once, by its own row, and the
        counters the formers share add up."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DynamicBatcher(echo_batch, max_batch_size=4, num_workers=6) as batcher:
                futures = {}
                lock = threading.Lock()

                def client(offset):
                    for i in range(offset, offset + 200):
                        future = batcher.submit(np.array([i]), priority=i % 3)
                        with lock:
                            futures[i] = future

                clients = [threading.Thread(target=client, args=(k * 1000,)) for k in range(4)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                for i, future in futures.items():
                    assert int(future.result(timeout=30.0)[0]) == i
        finally:
            sys.setswitchinterval(previous)
        stats = batcher.stats
        assert len(futures) == stats.batcher_requests == 800
        assert sum(stats.by("pool_jobs", "worker").values()) == stats.batcher_batches
        assert stats.batcher_queue_depth == 0

    def test_single_former_survives_crash_and_shows_no_pool_series(self):
        def crash_on_zero(batch, deadline=None):
            if int(batch[0, 0]) == 0:
                raise WorkerCrash("native kernel segfaulted")
            return np.asarray(batch)

        with DynamicBatcher(crash_on_zero, max_batch_size=1) as batcher:
            with pytest.raises(WorkerCrash):
                batcher.submit(np.array([0])).result(timeout=10.0)
            # The one former failed the batch and serves on.
            assert int(batcher.submit(np.array([7])).result(timeout=10.0)[0]) == 7
            stats = batcher.stats
        assert not any(name.startswith("pool_") for name in stats.series)

    def test_rejects_bad_supervision_settings(self):
        with pytest.raises(ValueError, match="num_workers"):
            DynamicBatcher(echo_batch, num_workers=0)
        with pytest.raises(ValueError, match="job_timeout_s"):
            DynamicBatcher(echo_batch, job_timeout_s=1.0)
        with pytest.raises(ValueError, match="job_timeout_s"):
            DynamicBatcher(echo_batch, num_workers=2, job_timeout_s=0.0)
        with pytest.raises(ValueError, match="max_restarts"):
            DynamicBatcher(echo_batch, num_workers=2, max_restarts=-1)


# --------------------------------------------------------------------- #
# Priority ordering and deadlines (single-worker batcher for determinism)
# --------------------------------------------------------------------- #
class RecordingBackend:
    def __init__(self, delay_s=0.0):
        self.batches = []
        self.delay_s = delay_s
        self.lock = threading.Lock()

    def __call__(self, batch, deadline=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        with self.lock:
            self.batches.append(np.asarray(batch).copy())
        return batch


class TestPriorityAndDeadlines:
    def test_high_priority_forms_batches_before_queued_low(self):
        backend = RecordingBackend(delay_s=0.02)
        with DynamicBatcher(backend, max_batch_size=4) as batcher:
            blocker = batcher.submit(np.array([-1]))  # occupies the worker
            time.sleep(0.005)  # let the forming thread start the blocker batch
            bulk = [
                batcher.submit(np.array([i]), priority=Priority.LOW) for i in range(8)
            ]
            urgent = batcher.submit(np.array([100]), priority=Priority.HIGH)
            for future in [blocker, urgent, *bulk]:
                future.result(timeout=10.0)
        executed = [int(row[0]) for batch in backend.batches for row in batch]
        # The urgent request ran ahead of every bulk request, even though
        # all of the bulk work was queued before it.
        assert executed.index(100) < executed.index(0)
        # Same-priority bulk traffic kept FIFO order among itself.
        bulk_order = [v for v in executed if 0 <= v < 100]
        assert bulk_order == sorted(bulk_order)

    def test_preemption_holds_with_several_formers(self):
        """Formers take requests straight from the priority queue, so with
        both formers busy a later HIGH request still runs ahead of the
        LOW bulk work queued before it: at most the two in-flight batches
        (plus scheduling slack) run first."""
        backend = RecordingBackend(delay_s=0.01)
        with DynamicBatcher(backend, max_batch_size=1, num_workers=2) as batcher:
            bulk = [
                batcher.submit(np.array([i]), priority=Priority.LOW)
                for i in range(20)
            ]
            time.sleep(0.005)  # let both formers take a batch
            urgent = batcher.submit(np.array([100]), priority=Priority.HIGH)
            urgent.result(timeout=10.0)
            still_pending = sum(not future.done() for future in bulk)
            for future in bulk:
                future.result(timeout=10.0)
        assert still_pending > len(bulk) // 2
        executed = [int(row[0]) for batch in backend.batches for row in batch]
        assert executed.index(100) < len(bulk) // 2

    def test_priority_ties_are_fifo(self):
        backend = RecordingBackend(delay_s=0.005)
        with DynamicBatcher(backend, max_batch_size=3) as batcher:
            futures = [
                batcher.submit(np.array([i]), priority=Priority.NORMAL) for i in range(12)
            ]
            for future in futures:
                future.result(timeout=10.0)
        executed = [int(row[0]) for batch in backend.batches for row in batch]
        assert executed == list(range(12))

    def test_expired_request_resolves_with_deadline_exceeded(self):
        backend = RecordingBackend(delay_s=0.05)
        with DynamicBatcher(backend, max_batch_size=4) as batcher:
            blocker = batcher.submit(np.array([-1]))  # worker busy for 50 ms
            time.sleep(0.01)  # ensure the blocker batch formed without us
            doomed = batcher.submit(np.array([0]), deadline_s=0.001)
            fine = batcher.submit(np.array([1]))
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10.0)
            # Batch-mates are unaffected by the expiry.
            assert int(fine.result(timeout=10.0)[0]) == 1
            blocker.result(timeout=10.0)
        executed = {int(row[0]) for batch in backend.batches for row in batch}
        assert 0 not in executed  # never occupied a batch slot
        assert batcher.stats.batcher_expired == 1

    def test_no_deadline_never_expires(self):
        with DynamicBatcher(echo_batch, max_batch_size=2) as batcher:
            assert int(batcher.submit(np.array([7])).result(timeout=10.0)[0]) == 7
        assert batcher.stats.batcher_expired == 0

    def test_negative_deadline_rejected(self):
        with DynamicBatcher(echo_batch) as batcher:
            with pytest.raises(ValueError, match="deadline_s"):
                batcher.submit(np.array([1]), deadline_s=-0.5)

    def test_per_priority_stats(self):
        with DynamicBatcher(echo_batch, max_batch_size=4) as batcher:
            futures = [
                batcher.submit(np.array([i]), priority=Priority.HIGH) for i in range(3)
            ] + [
                batcher.submit(np.array([i]), priority=Priority.LOW) for i in range(5)
            ]
            for future in futures:
                future.result(timeout=10.0)
        stats = batcher.stats
        assert stats.by("batcher_requests", "priority") == {
            int(Priority.HIGH): 3,
            int(Priority.LOW): 5,
        }
        assert stats.batcher_requests == 8


# --------------------------------------------------------------------- #
# Supervision: crash respawn, soft timeouts, restart budgets
# --------------------------------------------------------------------- #
class FaultyBackend:
    """Echoes its batch, except that a row valued ``crash`` raises
    ``WorkerCrash`` and a row valued ``hang`` stalls until ``release``."""

    def __init__(self, crash=None, hang=None):
        self.crash = crash
        self.hang = hang
        self.release = threading.Event()
        self.threads = []  # the former thread of every call, in call order
        self.lock = threading.Lock()

    def __call__(self, batch, deadline=None):
        with self.lock:
            self.threads.append(threading.current_thread())
        value = int(batch[0, 0])
        if value == self.crash:
            raise WorkerCrash("native kernel segfaulted")
        if value == self.hang:
            self.release.wait(timeout=10.0)
        return np.asarray(batch)


class TestSupervision:
    def test_crashed_worker_is_respawned(self):
        backend = FaultyBackend(crash=0)
        with DynamicBatcher(backend, max_batch_size=1, num_workers=2) as batcher:
            doomed = batcher.submit(np.array([0]))
            with pytest.raises(WorkerCrash):
                doomed.result(timeout=10.0)
            # The crashed former's slot has a fresh former.
            assert _wait_until(lambda: batcher.stats.pool_restarts == 1)
            assert batcher.stats.pool_alive == 2
            assert _wait_until(lambda: not backend.threads[0].is_alive())
            # The replacement serves traffic.
            futures = [batcher.submit(np.array([i])) for i in range(1, 9)]
            assert [int(f.result(timeout=10.0)[0]) for f in futures] == list(range(1, 9))
        stats = batcher.stats
        assert stats.pool_crashes == 1
        assert stats.pool_failures == 1

    def test_hung_job_fails_fast_and_worker_is_abandoned(self):
        backend = FaultyBackend(hang=0)
        batcher = DynamicBatcher(backend, max_batch_size=1, num_workers=2, job_timeout_s=0.05)
        try:
            stuck = batcher.submit(np.array([0]))
            start = time.monotonic()
            with pytest.raises(BackendTimeout):
                stuck.result(timeout=10.0)
            # The caller got its answer near the soft timeout, not after
            # the full 10 s hang.
            assert time.monotonic() - start < 5.0
            stats = batcher.stats
            assert stats.pool_timeouts == 1
            assert stats.pool_restarts == 1
            assert stats.pool_alive == 2  # the hung thread no longer counts
            # A fresh former owns the slot; quick batches still flow.
            assert int(batcher.submit(np.array([5])).result(timeout=10.0)[0]) == 5
        finally:
            backend.release.set()  # unstick the abandoned thread
            assert batcher.close() is True

    def test_late_result_of_abandoned_job_is_discarded(self):
        backend = FaultyBackend(hang=0)
        batcher = DynamicBatcher(backend, max_batch_size=1, num_workers=2, job_timeout_s=0.05)
        try:
            stuck = batcher.submit(np.array([0]))
            with pytest.raises(BackendTimeout):
                stuck.result(timeout=10.0)
            backend.release.set()  # the abandoned thread now finishes...
            backend.threads[0].join(timeout=5.0)
            assert not backend.threads[0].is_alive()
            # ...but its late result cannot overwrite the timeout verdict,
            # nor count as served.
            with pytest.raises(BackendTimeout):
                stuck.result(timeout=0)
            stats = batcher.stats
            assert stats.batcher_requests == 0
            assert stats.pool_jobs == 0
        finally:
            backend.release.set()
            batcher.close()

    def test_restart_budget_exhaustion_shrinks_the_pool(self):
        backend = FaultyBackend(crash=0)
        with DynamicBatcher(backend, max_batch_size=1, num_workers=2, max_restarts=1) as batcher:
            first = batcher.submit(np.array([0]))
            with pytest.raises(WorkerCrash):
                first.result(timeout=10.0)
            assert _wait_until(lambda: batcher.stats.pool_restarts == 1)
            second = batcher.submit(np.array([0]))
            with pytest.raises(WorkerCrash):
                second.result(timeout=10.0)
            # Budget spent: the second dead slot stays empty.
            assert _wait_until(lambda: batcher.stats.pool_alive == 1)
            assert batcher.stats.pool_restarts == 1
            # The surviving former still serves.
            assert int(batcher.submit(np.array([7])).result(timeout=10.0)[0]) == 7

    def test_close_fails_requests_stranded_by_a_spent_budget(self):
        backend = FaultyBackend(crash=0)
        batcher = DynamicBatcher(backend, max_batch_size=1, num_workers=2, max_restarts=0)
        for _ in range(2):
            with pytest.raises(WorkerCrash):
                batcher.submit(np.array([0])).result(timeout=10.0)
        assert _wait_until(lambda: batcher.stats.pool_alive == 0)
        stranded = batcher.submit(np.array([1]))
        assert batcher.close() is True
        with pytest.raises(RuntimeError, match="no former left"):
            stranded.result(timeout=0)

    def test_supervised_pool_counters_stay_balanced(self):
        backend = FaultyBackend(crash=-1)
        with DynamicBatcher(backend, max_batch_size=1, num_workers=3) as batcher:
            futures = [batcher.submit(np.array([i])) for i in range(10)]
            doomed = batcher.submit(np.array([-1]))
            more = [batcher.submit(np.array([i])) for i in range(10, 20)]
            assert [int(f.result(timeout=10.0)[0]) for f in futures] == list(range(10))
            with pytest.raises(WorkerCrash):
                doomed.result(timeout=10.0)
            assert [int(f.result(timeout=10.0)[0]) for f in more] == list(range(10, 20))
        stats = batcher.stats
        assert sum(stats.by("pool_jobs", "worker").values()) == stats.pool_jobs == 21
        assert stats.pool_failures == stats.pool_crashes == stats.pool_restarts == 1
        assert stats.batcher_requests == 20


# --------------------------------------------------------------------- #
# Former lifecycle: joined on close, abandoned ones retire
# --------------------------------------------------------------------- #
class TestFormerLifecycle:
    def test_close_joins_every_former_of_a_two_worker_server(self):
        server = InferenceServer(
            "bio1",
            "float",
            patch_size=10,
            model_kwargs=dict(num_channels=4, window_samples=60, seed=3),
            cache=BackendCache(),
            num_workers=2,
        )
        prefix = f"{server.batcher.name}-former"
        formers = [t for t in threading.enumerate() if t.name.startswith(prefix)]
        assert len(formers) == 2
        server.infer(np.random.default_rng(1).standard_normal((6, 4, 60)))
        server.close()
        assert not any(thread.is_alive() for thread in formers)
        assert not any(t.name.startswith(prefix) for t in threading.enumerate())

    def test_abandoned_former_takes_no_further_request(self):
        backend = FaultyBackend(hang=0)
        batcher = DynamicBatcher(backend, max_batch_size=1, num_workers=2, job_timeout_s=0.05)
        try:
            with pytest.raises(BackendTimeout):
                batcher.submit(np.array([0])).result(timeout=10.0)
            hung = backend.threads[0]
            backend.release.set()  # the hung call returns...
            hung.join(timeout=5.0)
            assert not hung.is_alive()  # ...and its former retires
            futures = [batcher.submit(np.array([i])) for i in range(1, 21)]
            assert [int(f.result(timeout=10.0)[0]) for f in futures] == list(range(1, 21))
            assert hung not in backend.threads[1:]
        finally:
            backend.release.set()
            assert batcher.close() is True


# --------------------------------------------------------------------- #
# Admission control and load shedding
# --------------------------------------------------------------------- #
class TestLoadShedding:
    def _blocked_batcher(self, max_queue_depth):
        """A batcher whose (single) forming thread is stuck in the backend,
        so submissions pile up in the queue deterministically."""
        release = threading.Event()
        entered = threading.Event()

        def blocking_backend(batch, deadline=None):
            entered.set()
            release.wait(timeout=10.0)
            return np.asarray(batch)

        batcher = DynamicBatcher(
            blocking_backend,
            max_batch_size=1,
            max_queue_depth=max_queue_depth,
        )
        plug = batcher.submit(np.array([99]))  # occupies the forming thread
        assert entered.wait(timeout=10.0)
        return batcher, release, plug

    def test_full_queue_rejects_equal_priority_synchronously(self):
        batcher, release, plug = self._blocked_batcher(max_queue_depth=2)
        try:
            queued = [batcher.submit(np.array([i]), priority=Priority.LOW) for i in range(2)]
            with pytest.raises(Overloaded):
                batcher.submit(np.array([5]), priority=Priority.LOW)
            release.set()
            assert [int(f.result(timeout=10.0)[0]) for f in queued] == [0, 1]
            plug.result(timeout=10.0)
        finally:
            release.set()
            batcher.close()
        stats = batcher.stats
        assert stats.by("batcher_rejected", "priority") == {int(Priority.LOW): 1}
        assert stats.batcher_shed == 0

    def test_high_priority_sheds_newest_low_when_full(self):
        batcher, release, plug = self._blocked_batcher(max_queue_depth=2)
        try:
            low_old = batcher.submit(np.array([1]), priority=Priority.LOW)
            low_new = batcher.submit(np.array([2]), priority=Priority.LOW)
            high = batcher.submit(np.array([3]), priority=Priority.HIGH)
            # The newest LOW was evicted to admit the HIGH request...
            with pytest.raises(Overloaded):
                low_new.result(timeout=10.0)
            release.set()
            # ...and both survivors are served.
            assert int(high.result(timeout=10.0)[0]) == 3
            assert int(low_old.result(timeout=10.0)[0]) == 1
            plug.result(timeout=10.0)
        finally:
            release.set()
            batcher.close()
        stats = batcher.stats
        assert stats.by("batcher_shed", "priority") == {int(Priority.LOW): 1}
        assert stats.batcher_rejected == 0

    def test_low_never_sheds_high(self):
        batcher, release, plug = self._blocked_batcher(max_queue_depth=2)
        try:
            highs = [batcher.submit(np.array([i]), priority=Priority.HIGH) for i in range(2)]
            with pytest.raises(Overloaded):
                batcher.submit(np.array([9]), priority=Priority.LOW)
            release.set()
            assert [int(f.result(timeout=10.0)[0]) for f in highs] == [0, 1]
            plug.result(timeout=10.0)
        finally:
            release.set()
            batcher.close()
        assert batcher.stats.batcher_rejected == 1
        assert batcher.stats.batcher_shed == 0

    def test_queue_depth_stat_tracks_pending(self):
        batcher, release, plug = self._blocked_batcher(max_queue_depth=8)
        try:
            for i in range(3):
                batcher.submit(np.array([i]))
            assert batcher.stats.batcher_queue_depth == 3
            release.set()
        finally:
            release.set()
            batcher.close()
        assert batcher.stats.batcher_queue_depth == 0

    def test_queue_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            DynamicBatcher(echo_batch, max_queue_depth=0)

    def test_deadline_expiry_under_sustained_saturation(self):
        """The satellite scenario: a saturating mixed-priority storm on a
        slow backend.  HIGH requests (generous deadlines) must all be
        served; LOW requests (tight deadlines, shed first) end up served,
        expired or shed — and every single future resolves."""
        backend = RecordingBackend(delay_s=0.01)
        with DynamicBatcher(
            backend, max_batch_size=2, max_queue_depth=8
        ) as batcher:
            high, low, rejected = [], [], 0
            for i in range(60):
                try:
                    if i % 3 == 0:
                        high.append(batcher.submit(np.array([i]), priority=Priority.HIGH, deadline_s=30.0))
                    else:
                        low.append(batcher.submit(np.array([i]), priority=Priority.LOW, deadline_s=0.02))
                except Overloaded:
                    rejected += 1
            served_low = expired_low = shed_low = 0
            for future in high:
                future.result(timeout=30.0)  # every HIGH answered
            for future in low:
                try:
                    future.result(timeout=30.0)
                    served_low += 1
                except DeadlineExceeded:
                    expired_low += 1
                except Overloaded:
                    shed_low += 1
        # No request is unaccounted for.
        assert served_low + expired_low + shed_low == len(low)
        assert expired_low + shed_low > 0  # the storm actually saturated
        stats = batcher.stats
        assert stats.get("batcher_shed", priority=Priority.LOW) == stats.batcher_shed == shed_low
        assert stats.batcher_rejected == rejected
        assert stats.get("batcher_expired", priority=Priority.LOW) == expired_low
        assert stats.batcher_expired == expired_low
        assert stats.batcher_requests == len(high) + served_low
        assert stats.batcher_queue_depth == 0
        # Priority accounting matches what was actually served.
        assert stats.get("batcher_requests", priority=Priority.HIGH) == len(high)
        assert stats.get("batcher_requests", priority=Priority.LOW) == served_low
