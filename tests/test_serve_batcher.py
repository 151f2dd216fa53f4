"""Property-style tests of the dynamic micro-batcher.

The batcher's contract: whatever the arrival pattern, no request is
dropped, none is duplicated, every caller gets exactly its own result, and
no micro-batch exceeds ``max_batch_size``.  The identity checks work by
serving an "echo" function whose output row encodes the input row, so any
reordering or duplication inside the batcher would corrupt the mapping.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import DynamicBatcher


def echo_batch(batch: np.ndarray, deadline=None) -> np.ndarray:
    """Identity backend: request payloads come straight back."""
    return np.asarray(batch)


class RecordingBackend:
    """Echo backend that records every micro-batch it executes."""

    def __init__(self, delay_s: float = 0.0):
        self.batches = []
        self.delay_s = delay_s
        self.lock = threading.Lock()

    def __call__(self, batch, deadline=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        with self.lock:
            self.batches.append(np.asarray(batch).copy())
        return batch


# --------------------------------------------------------------------- #
# Core invariants under random arrival patterns
# --------------------------------------------------------------------- #
@given(
    payloads=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=64),
    max_batch_size=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=25, deadline=None)
def test_no_drop_no_duplicate_no_reorder(payloads, max_batch_size):
    backend = RecordingBackend()
    with DynamicBatcher(backend, max_batch_size=max_batch_size) as batcher:
        futures = [batcher.submit(np.array([value], dtype=np.int64)) for value in payloads]
        results = [int(future.result(timeout=10.0)[0]) for future in futures]
    # Every caller got exactly its own payload back, in submission order.
    assert results == payloads
    # No batch exceeded the cap and nothing was dropped or duplicated.
    assert all(batch.shape[0] <= max_batch_size for batch in backend.batches)
    flattened = [int(row[0]) for batch in backend.batches for row in batch]
    assert flattened == payloads  # single consumer => batches follow FIFO order


@given(
    payloads=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=40),
    num_threads=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=15, deadline=None)
def test_concurrent_producers_each_get_their_own_result(payloads, num_threads):
    backend = RecordingBackend(delay_s=0.0005)
    outcomes = {}
    lock = threading.Lock()

    with DynamicBatcher(backend, max_batch_size=4) as batcher:

        def producer(chunk):
            for value in chunk:
                result = batcher.submit(np.array([value], dtype=np.int64)).result(timeout=10.0)
                with lock:
                    outcomes[value] = int(result[0])

        unique = list(dict.fromkeys(payloads))
        chunks = [unique[index::num_threads] for index in range(num_threads)]
        threads = [threading.Thread(target=producer, args=(chunk,)) for chunk in chunks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # Identity preserved under concurrency: every request answered by itself.
    assert outcomes == {value: value for value in dict.fromkeys(payloads)}
    assert all(batch.shape[0] <= 4 for batch in backend.batches)


# --------------------------------------------------------------------- #
# Batch-size and work-conservation invariants
# --------------------------------------------------------------------- #
def test_full_batches_form_when_requests_are_queued():
    backend = RecordingBackend(delay_s=0.01)
    with DynamicBatcher(backend, max_batch_size=8) as batcher:
        futures = [batcher.submit(np.array([i])) for i in range(32)]
        for future in futures:
            future.result(timeout=10.0)
    # With the worker busy, the queue backs up and batches fill to the cap;
    # the first batch may be smaller (it formed while the queue was empty).
    assert max(batch.shape[0] for batch in backend.batches) == 8
    assert batcher.stats.batcher_requests == 32
    assert sum(batch.shape[0] for batch in backend.batches) == 32


def test_lone_request_dispatches_at_once():
    backend = RecordingBackend()
    with DynamicBatcher(backend, max_batch_size=64) as batcher:
        start = time.monotonic()
        result = batcher.submit(np.array([42])).result(timeout=10.0)
        elapsed = time.monotonic() - start
    assert int(result[0]) == 42
    # A lone request must not wait for batch-mates (generous upper bound
    # to stay robust on loaded CI machines).
    assert elapsed < 5.0
    assert backend.batches[0].shape[0] == 1


# --------------------------------------------------------------------- #
# Parking the forming thread, so that a test decides what one batch holds
# --------------------------------------------------------------------- #
class GatedBackend(RecordingBackend):
    """Echo backend that blocks every batch until ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()

    def __call__(self, batch, deadline=None):
        self.release.wait(timeout=10.0)
        return super().__call__(batch)


def occupy(batcher):
    """Park the forming thread in the (gated) backend on a batch of one."""
    blocker = batcher.submit(np.array([-1]))
    deadline = time.monotonic() + 5.0
    while not blocker.running() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert blocker.running()
    return blocker


def test_neither_map_nor_submit_waits_for_batch_mates():
    backend = RecordingBackend()
    with DynamicBatcher(backend, max_batch_size=16) as batcher:
        start = time.monotonic()
        assert int(batcher.map([np.array([7])], timeout=10.0)[0][0]) == 7
        assert time.monotonic() - start < 0.25
        start = time.monotonic()
        assert int(batcher.submit(np.array([8])).result(timeout=10.0)[0]) == 8
        assert time.monotonic() - start < 0.25
    assert [batch[:, 0].tolist() for batch in backend.batches] == [[7], [8]]


def test_forming_takes_queued_requests_up_to_the_cap():
    backend = GatedBackend()
    with DynamicBatcher(backend, max_batch_size=4) as batcher:
        blocker = occupy(batcher)
        queued = [batcher.submit(np.array([i])) for i in range(6)]
        backend.release.set()
        results = [int(f.result(timeout=10.0)[0]) for f in [blocker] + queued]
    assert results == [-1, 0, 1, 2, 3, 4, 5]
    assert [batch[:, 0].tolist() for batch in backend.batches] == [
        [-1],
        [0, 1, 2, 3],  # everything already queued, up to the cap
        [4, 5],
    ]


@pytest.mark.parametrize("fate", ["expired", "shed"])
def test_request_that_never_runs_does_not_stall_its_batch(fate):
    from repro.serve import DeadlineExceeded, Overloaded, Priority

    backend = GatedBackend()
    with DynamicBatcher(backend, max_batch_size=8, max_queue_depth=2) as batcher:
        blocker = occupy(batcher)
        mates = [1]
        futures = [batcher.submit(np.array([1]), priority=Priority.HIGH)]
        if fate == "expired":
            doomed = batcher.submit(np.array([2]), deadline_s=0.001)
            time.sleep(0.01)
            error = DeadlineExceeded
        else:
            doomed = batcher.submit(np.array([2]), priority=Priority.LOW)
            # The queue is full: this HIGH request sheds the LOW one.
            mates.append(3)
            futures.append(batcher.submit(np.array([3]), priority=Priority.HIGH))
            error = Overloaded
        start = time.monotonic()
        backend.release.set()
        assert [int(f.result(timeout=10.0)[0]) for f in futures] == mates
        assert time.monotonic() - start < 0.25
        with pytest.raises(error):
            doomed.result(timeout=10.0)
        blocker.result(timeout=10.0)
    assert [batch[:, 0].tolist() for batch in backend.batches] == [[-1], mates]


def test_max_batch_size_one_serves_requests_individually():
    backend = RecordingBackend()
    with DynamicBatcher(backend, max_batch_size=1) as batcher:
        batcher.map([np.array([i]) for i in range(7)], timeout=10.0)
    assert all(batch.shape[0] == 1 for batch in backend.batches)
    assert batcher.stats.by("batcher_batches", "size") == {1: 7}


# --------------------------------------------------------------------- #
# Lifecycle and failure propagation
# --------------------------------------------------------------------- #
def test_close_drains_pending_requests():
    backend = RecordingBackend(delay_s=0.005)
    batcher = DynamicBatcher(backend, max_batch_size=4)
    futures = [batcher.submit(np.array([i])) for i in range(20)]
    batcher.close()
    results = [int(future.result(timeout=1.0)[0]) for future in futures]
    assert results == list(range(20))


def test_submit_after_close_raises():
    batcher = DynamicBatcher(echo_batch)
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(np.array([1.0]))


def test_close_reports_clean_drain():
    batcher = DynamicBatcher(echo_batch, max_batch_size=4)
    futures = [batcher.submit(np.array([i])) for i in range(5)]
    assert batcher.close(timeout=10.0) is True
    assert all(future.done() for future in futures)
    # Idempotent: closing an already-drained batcher still reports success.
    assert batcher.close(timeout=1.0) is True


def test_close_spends_a_single_timeout_budget():
    """Regression: ``close(timeout=t)`` used to give the worker join *and*
    the pool-future wait a full ``t`` each, so a wedged pipeline blocked
    for up to ``2 * t``.  Both phases now share one deadline, and an
    incomplete drain is reported instead of silently swallowed."""
    from repro.serve import WorkerPool

    release = threading.Event()

    def stuck_backend(batch, deadline=None):
        release.wait(timeout=30.0)
        return np.asarray(batch)

    pool = WorkerPool(num_workers=1)
    try:
        batcher = DynamicBatcher(
            stuck_backend, max_batch_size=1, pool=pool
        )
        # Two single-request batches: the first occupies the only pool
        # worker (stuck in the backend), the second wedges the forming
        # thread on the dispatch throttle — so close() faces both a live
        # worker *and* an in-flight pool future, the exact shape that used
        # to spend the timeout twice.
        first = batcher.submit(np.array([1.0]))
        second = batcher.submit(np.array([2.0]))
        deadline = time.monotonic() + 5.0
        while not first.running() and time.monotonic() < deadline:
            time.sleep(0.001)
        start = time.monotonic()
        drained = batcher.close(timeout=0.4)
        elapsed = time.monotonic() - start
        assert drained is False  # the backend is stuck -> drain incomplete
        assert elapsed < 0.75  # one shared budget, not 2 x 0.4 s
        release.set()
        assert int(first.result(timeout=10.0)[0]) == 1
        assert int(second.result(timeout=10.0)[0]) == 2
        assert batcher.close(timeout=10.0) is True
    finally:
        release.set()
        pool.close()


def test_backend_error_propagates_to_every_future():
    def broken(batch, deadline=None):
        raise ValueError("backend exploded")

    with DynamicBatcher(broken, max_batch_size=4) as batcher:
        futures = [batcher.submit(np.array([i])) for i in range(3)]
        for future in futures:
            with pytest.raises(ValueError, match="backend exploded"):
                future.result(timeout=10.0)


def test_row_count_mismatch_detected():
    def lossy(batch, deadline=None):
        return np.asarray(batch)[:-1] if len(batch) > 1 else np.asarray(batch)

    with DynamicBatcher(lossy, max_batch_size=8) as batcher:
        futures = [batcher.submit(np.array([i])) for i in range(4)]
        # Every future either fails loudly (its batch lost a row) or echoes
        # its own payload; a silent wrong answer is impossible.
        for index, future in enumerate(futures):
            try:
                result = future.result(timeout=10.0)
            except RuntimeError as error:
                assert "rows" in str(error)
            else:
                assert int(result[0]) == index


def test_cancelled_request_is_dropped_and_worker_survives():
    backend = RecordingBackend(delay_s=0.02)
    with DynamicBatcher(backend, max_batch_size=1) as batcher:
        first = batcher.submit(np.array([0]))  # occupies the worker
        queued = [batcher.submit(np.array([i])) for i in range(1, 6)]
        victim = queued[2]
        victim.cancel()
        survivors = [f for f in queued if f is not victim]
        results = [int(f.result(timeout=10.0)[0]) for f in [first] + survivors]
        assert results == [0, 1, 2, 4, 5]
        assert victim.cancelled() or int(victim.result(timeout=10.0)[0]) == 3
        # The worker must still be serving after the cancellation.
        assert int(batcher.submit(np.array([99])).result(timeout=10.0)[0]) == 99
    cancelled_payloads = {3} if victim.cancelled() else set()
    executed = {int(row[0]) for batch in backend.batches for row in batch}
    assert executed == {0, 1, 2, 3, 4, 5, 99} - cancelled_payloads


def test_map_of_zero_windows_returns_empty_result():
    """Regression: ``map([])`` used to crash in ``np.stack([])``."""
    with DynamicBatcher(echo_batch) as batcher:
        result = batcher.map([])
    assert isinstance(result, np.ndarray)
    assert result.shape[0] == 0


def test_malformed_request_fails_alone_not_its_batchmates():
    """Regression: one bad payload used to poison the whole micro-batch."""
    backend = RecordingBackend(delay_s=0.01)
    with DynamicBatcher(
        backend, max_batch_size=8, input_shape=(1,)
    ) as batcher:
        blocker = batcher.submit(np.array([0]))  # occupy the worker
        good = [batcher.submit(np.array([i])) for i in range(1, 5)]
        bad = batcher.submit(np.zeros((3, 3)))  # wrong shape, same batch
        more_good = [batcher.submit(np.array([i])) for i in range(5, 8)]
        with pytest.raises(ValueError, match="shape"):
            bad.result(timeout=10.0)
        results = [int(f.result(timeout=10.0)[0]) for f in [blocker] + good + more_good]
    assert results == list(range(8))
    assert batcher.stats.batcher_malformed == 1
    assert batcher.stats.batcher_requests == 8


def test_majority_shape_defines_reference_when_unconfigured():
    """Without ``input_shape``, the batch's majority shape wins — a bad
    payload landing *first* in its micro-batch still fails alone."""
    backend = GatedBackend()
    # The parked forming thread finds all three requests below queued, so
    # they land in one micro-batch once the backend is released.
    with DynamicBatcher(backend, max_batch_size=3) as batcher:
        blocker = occupy(batcher)
        bad = batcher.submit(np.zeros((2, 2)))  # first of its batch, minority
        good = [batcher.submit(np.array([float(i)])) for i in (1, 2)]
        backend.release.set()
        blocker.result(timeout=10.0)
        with pytest.raises(ValueError, match="shape"):
            bad.result(timeout=10.0)
        assert [int(f.result(timeout=10.0)[0]) for f in good] == [1, 2]
    assert batcher.stats.batcher_malformed == 1


def test_shape_tie_breaks_toward_earliest_submission():
    backend = GatedBackend()
    with DynamicBatcher(backend, max_batch_size=2) as batcher:
        blocker = occupy(batcher)
        first = batcher.submit(np.zeros((2, 2)))
        second = batcher.submit(np.array([1.0]))
        backend.release.set()
        blocker.result(timeout=10.0)
        assert first.result(timeout=10.0).shape == (2, 2)
        with pytest.raises(ValueError, match="shape"):
            second.result(timeout=10.0)


def test_stats_is_an_immutable_snapshot():
    """Regression: ``stats`` used to hand out the live mutable counters."""
    with DynamicBatcher(echo_batch, max_batch_size=4) as batcher:
        batcher.map([np.array([i]) for i in range(6)], timeout=10.0)
        before = batcher.stats
        assert before is not batcher.stats  # fresh snapshot per read
        with pytest.raises(AttributeError):
            before.batcher_requests = 10_000  # frozen dataclass
        with pytest.raises(TypeError):
            before.series["batcher_requests"][(("priority", 0),)] = 10_000  # read-only
        batcher.map([np.array([9])], timeout=10.0)
        after = batcher.stats
    assert before.batcher_requests == 6  # old snapshot unaffected by new traffic
    assert after.batcher_requests == 7


def test_map_returns_stacked_results_in_order():
    with DynamicBatcher(echo_batch, max_batch_size=4) as batcher:
        payloads = [np.array([float(i), float(-i)]) for i in range(10)]
        stacked = batcher.map(payloads, timeout=10.0)
    np.testing.assert_array_equal(stacked, np.stack(payloads))


def test_stats_track_batches():
    with DynamicBatcher(echo_batch, max_batch_size=4) as batcher:
        batcher.map([np.array([i]) for i in range(9)], timeout=10.0)
    stats = batcher.stats
    sizes = stats.by("batcher_batches", "size")
    assert stats.batcher_requests == 9
    assert sum(size * count for size, count in sizes.items()) == 9
    assert 1 <= max(sizes) <= 4
    assert stats.batcher_batches >= 3  # 9 requests cannot fit in fewer than 3 batches
    assert 0.0 < stats.batcher_requests / stats.batcher_batches <= 4.0
