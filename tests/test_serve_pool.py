"""WorkerPool and priority/deadline request-model tests.

The pool's contract mirrors the batcher's: no submitted job is lost, a
failing job fails only its own future, and ``close()`` drains everything
already queued.  The priority model's contract is ordering (lower priority
values form batches first, FIFO within a level) and deadline hygiene (an
expired request resolves with ``DeadlineExceeded`` without occupying a
batch slot or failing its batch-mates).
"""

import threading
import time
from concurrent.futures import Future

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
    WorkerPool,
)


# --------------------------------------------------------------------- #
# WorkerPool core behaviour
# --------------------------------------------------------------------- #
class TestWorkerPool:
    def test_jobs_run_and_results_propagate(self):
        with WorkerPool(num_workers=3) as pool:
            futures = [pool.submit(lambda i=i: i * i) for i in range(20)]
            assert [f.result(timeout=10.0) for f in futures] == [i * i for i in range(20)]
        assert pool.stats.pool_jobs == 20

    def test_jobs_actually_overlap_across_workers(self):
        barrier = threading.Barrier(3, timeout=5.0)
        with WorkerPool(num_workers=3) as pool:
            futures = [pool.submit(barrier.wait) for _ in range(3)]
            # Each job blocks until all three run at once: only possible if
            # three workers execute concurrently.
            for future in futures:
                future.result(timeout=10.0)

    def test_failing_job_fails_only_its_own_future(self):
        def boom():
            raise RuntimeError("job exploded")

        with WorkerPool(num_workers=2) as pool:
            bad = pool.submit(boom)
            good = [pool.submit(lambda i=i: i) for i in range(5)]
            with pytest.raises(RuntimeError, match="job exploded"):
                bad.result(timeout=10.0)
            assert [f.result(timeout=10.0) for f in good] == list(range(5))
        stats = pool.stats
        assert stats.pool_failures == 1
        assert stats.pool_jobs == 6

    def test_close_drains_queued_jobs(self):
        done = []
        pool = WorkerPool(num_workers=2)
        futures = [pool.submit(lambda i=i: (time.sleep(0.005), done.append(i))[0]) for i in range(12)]
        pool.close()
        for future in futures:
            future.result(timeout=1.0)  # already done: close() drained
        assert sorted(done) == list(range(12))

    def test_submit_after_close_raises(self):
        pool = WorkerPool(num_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(lambda: None)

    def test_cancelled_queued_job_is_skipped(self):
        with WorkerPool(num_workers=1) as pool:
            blocker = pool.submit(lambda: time.sleep(0.05))
            victim = pool.submit(lambda: pytest.fail("cancelled job must not run"))
            survivor = pool.submit(lambda: "ok")
            assert victim.cancel() or victim.result(timeout=10.0) is None
            assert survivor.result(timeout=10.0) == "ok"
            blocker.result(timeout=10.0)

    def test_stats_snapshot_is_immutable_and_balanced(self):
        with WorkerPool(num_workers=2) as pool:
            for f in [pool.submit(lambda: time.sleep(0.002)) for _ in range(10)]:
                f.result(timeout=10.0)
            stats = pool.stats
            assert isinstance(stats, Snapshot)
            with pytest.raises(AttributeError):
                stats.pool_jobs = 0
            per_worker = stats.by("pool_jobs", "worker")
            assert sum(per_worker.values()) == stats.pool_jobs == 10
            assert set(per_worker) <= {0, 1}
            assert max(per_worker.values()) <= 10

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            WorkerPool(num_workers=0)


# --------------------------------------------------------------------- #
# Batcher on a pool: drain and identity under concurrency
# --------------------------------------------------------------------- #
def echo_batch(batch, deadline=None):
    return np.asarray(batch)


class TestBatcherOnPool:
    def test_every_request_answered_by_itself(self):
        with WorkerPool(num_workers=4) as pool:
            with DynamicBatcher(echo_batch, max_batch_size=4, pool=pool) as batcher:
                futures = [batcher.submit(np.array([i])) for i in range(64)]
                results = [int(f.result(timeout=10.0)[0]) for f in futures]
        assert results == list(range(64))

    def test_close_drains_queue_and_inflight_pool_jobs(self):
        def slow_echo(batch, deadline=None):
            time.sleep(0.01)
            return np.asarray(batch)

        pool = WorkerPool(num_workers=3)
        batcher = DynamicBatcher(slow_echo, max_batch_size=2, pool=pool)
        futures = [batcher.submit(np.array([i])) for i in range(30)]
        batcher.close()
        # close() returned only after every dispatched batch executed.
        assert all(f.done() for f in futures)
        assert [int(f.result(timeout=0)[0]) for f in futures] == list(range(30))
        assert pool.stats.pool_jobs == batcher.stats.batcher_batches
        assert not pool.closed  # borrowed pools are never closed by the batcher
        pool.close()

    def test_borrowed_pool_closed_early_falls_back_to_inline(self):
        """Regression: a closed borrowed pool must not kill the forming
        thread — batches fall back to inline execution instead."""
        pool = WorkerPool(num_workers=2)
        with DynamicBatcher(echo_batch, max_batch_size=4, pool=pool) as batcher:
            first = batcher.submit(np.array([1]))
            assert int(first.result(timeout=10.0)[0]) == 1
            pool.close()  # owner shuts the shared pool down early
            late = [batcher.submit(np.array([i])) for i in range(2, 6)]
            assert [int(f.result(timeout=10.0)[0]) for f in late] == [2, 3, 4, 5]

    def test_batch_grows_while_every_worker_is_busy(self):
        """Work conservation: the forming thread takes a dispatch slot
        before it forms, so requests that arrive one by one while both
        workers are busy all join the next batch."""
        release = threading.Event()
        sizes = []

        def gated(batch, deadline=None):
            sizes.append(len(batch))
            release.wait(timeout=10.0)
            return np.asarray(batch)

        with WorkerPool(num_workers=2) as pool:
            with DynamicBatcher(gated, max_batch_size=8, pool=pool) as batcher:
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
        so both single-window batches must be inside ``run`` at once.  A
        pool that serialised its jobs (or a forming thread that waited out
        each one) breaks the barrier after 5 s and fails both requests."""
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
        # close() waited out both pool jobs: one ran on each worker.
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

        with WorkerPool(num_workers=2) as pool:
            with DynamicBatcher(flaky, max_batch_size=1, pool=pool) as batcher:
                bad = batcher.submit(np.array([0]))
                good = [batcher.submit(np.array([i])) for i in range(1, 6)]
                with pytest.raises(ValueError, match="poisoned"):
                    bad.result(timeout=10.0)
                assert [int(f.result(timeout=10.0)[0]) for f in good] == [1, 2, 3, 4, 5]


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

    def test_preemption_survives_pool_dispatch(self):
        """Regression: unbounded dispatch used to drain every queued LOW
        request into the pool's FIFO job queue, so a later HIGH request
        waited behind all of them.  Dispatch is throttled to the worker
        count, so excess traffic waits in the priority queue instead."""
        backend = RecordingBackend(delay_s=0.01)
        with WorkerPool(num_workers=2) as pool:
            with DynamicBatcher(backend, max_batch_size=1, pool=pool) as batcher:
                bulk = [
                    batcher.submit(np.array([i]), priority=Priority.LOW)
                    for i in range(20)
                ]
                time.sleep(0.005)  # let dispatch fill both workers
                urgent = batcher.submit(np.array([100]), priority=Priority.HIGH)
                urgent.result(timeout=10.0)
                still_pending = sum(not future.done() for future in bulk)
                for future in bulk:
                    future.result(timeout=10.0)
        # The HIGH request landed while most of the earlier-submitted LOW
        # bulk work was still waiting: at most the two in-flight batches
        # (plus scheduling slack) could run ahead of it.
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
# Supervision: crash detection, soft timeouts, restart budgets
# --------------------------------------------------------------------- #
def _wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestSupervision:
    def test_crashed_worker_is_respawned(self):
        def crash():
            raise WorkerCrash("native kernel segfaulted")

        with WorkerPool(num_workers=2, supervise_interval_s=0.005) as pool:
            doomed = pool.submit(crash)
            with pytest.raises(WorkerCrash):
                doomed.result(timeout=10.0)
            # Supervision notices the dead thread and refills the slot.
            assert _wait_until(lambda: pool.stats.pool_alive == 2)
            assert _wait_until(lambda: pool.stats.pool_restarts >= 1)
            # The respawned worker actually serves traffic.
            assert pool.submit(lambda: 41 + 1).result(timeout=10.0) == 42
        stats = pool.stats
        assert stats.pool_crashes >= 1
        assert stats.pool_failures >= 1

    def test_hung_job_fails_fast_and_worker_is_abandoned(self):
        release = threading.Event()

        def hang():
            release.wait(timeout=10.0)
            return "late"

        pool = WorkerPool(num_workers=2, job_timeout_s=0.05, supervise_interval_s=0.005)
        try:
            stuck = pool.submit(hang)
            start = time.monotonic()
            with pytest.raises(BackendTimeout):
                stuck.result(timeout=10.0)
            # The caller got its answer near the soft timeout, not after
            # the full 10 s hang.
            assert time.monotonic() - start < 5.0
            assert _wait_until(lambda: pool.stats.pool_alive == 2)
            assert pool.stats.pool_timeouts == 1
            # A fresh worker owns the slot; quick jobs still flow.
            assert pool.submit(lambda: "ok").result(timeout=10.0) == "ok"
        finally:
            release.set()  # unstick the abandoned thread so close() is clean
            pool.close()

    def test_late_result_of_abandoned_job_is_discarded(self):
        release = threading.Event()

        def hang():
            release.wait(timeout=10.0)
            return "late"

        pool = WorkerPool(num_workers=1, job_timeout_s=0.05, supervise_interval_s=0.005)
        try:
            stuck = pool.submit(hang)
            with pytest.raises(BackendTimeout):
                stuck.result(timeout=10.0)
            release.set()  # the abandoned thread now finishes...
            time.sleep(0.1)
            # ...but its late result cannot overwrite the timeout verdict.
            with pytest.raises(BackendTimeout):
                stuck.result(timeout=0)
        finally:
            release.set()
            pool.close()

    def test_restart_budget_exhaustion_shrinks_the_pool(self):
        def crash():
            raise WorkerCrash("again")

        with WorkerPool(num_workers=2, max_restarts=1, supervise_interval_s=0.005) as pool:
            first = pool.submit(crash)
            with pytest.raises(WorkerCrash):
                first.result(timeout=10.0)
            assert _wait_until(lambda: pool.stats.pool_restarts == 1)
            second = pool.submit(crash)
            with pytest.raises(WorkerCrash):
                second.result(timeout=10.0)
            # Budget spent: the second dead slot stays dead.
            assert _wait_until(lambda: pool.stats.pool_alive == 1)
            assert pool.stats.pool_restarts == 1
            # The surviving worker still serves.
            assert pool.submit(lambda: 7).result(timeout=10.0) == 7

    def test_supervised_pool_counters_stay_balanced(self):
        def crash():
            raise WorkerCrash("boom")

        with WorkerPool(num_workers=3, supervise_interval_s=0.005) as pool:
            futures = [pool.submit(lambda i=i: i) for i in range(10)]
            doomed = pool.submit(crash)
            more = [pool.submit(lambda i=i: -i) for i in range(10)]
            assert [f.result(timeout=10.0) for f in futures] == list(range(10))
            with pytest.raises(WorkerCrash):
                doomed.result(timeout=10.0)
            assert [f.result(timeout=10.0) for f in more] == [-i for i in range(10)]
        stats = pool.stats
        assert sum(stats.by("pool_jobs", "worker").values()) == stats.pool_jobs == 21
        assert stats.pool_failures == 1


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
