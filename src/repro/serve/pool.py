"""Multi-worker execution pool and the request priority/deadline model.

PR 1's :class:`~repro.serve.batcher.DynamicBatcher` executed every
micro-batch inline on its single forming thread, so batch formation and
backend execution were serialised.  This module supplies the scale-out
half of the serving stack:

* :class:`Priority` / :class:`DeadlineExceeded` — the request model shared
  by the batcher and the server: lower priority values run first (so
  :data:`Priority.HIGH` streaming traffic preempts :data:`Priority.LOW`
  bulk scoring), and a request whose deadline lapses while queued resolves
  with :class:`DeadlineExceeded` instead of occupying a batch slot;
* :class:`WorkerPool` — ``N`` daemon threads draining a job queue of
  formed micro-batches.  Threads (not processes) are the right unit here:
  both backends are NumPy-bound and release the GIL inside their BLAS
  kernels, and threads share the process-wide
  :class:`~repro.serve.server.BackendCache` for free.

The pool is **supervised**: a monitor thread watches every worker slot,
respawning workers that died (a :class:`~repro.serve.faults.WorkerCrash`
escaping a native kernel) and abandoning jobs stuck past the pool's soft
``job_timeout_s`` — the stuck job's future fails with
:class:`~repro.serve.faults.BackendTimeout`, a fresh worker takes over the
slot, and the hung thread's late result (if it ever unsticks) is
discarded.  Respawns draw from a ``max_restarts`` budget so a
deterministically crashing backend cannot respawn-loop forever; once the
budget is spent the slot stays dead and :class:`PoolStats` shows the
capacity loss.

The pool is deliberately generic (``submit(fn) -> Future``): the batcher
hands it zero-argument batch closures, but any backend maintenance job
(cache warm-up, calibration refresh) can ride the same workers.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, List, Optional, Tuple

from .faults import BackendTimeout, WorkerCrash

__all__ = ["DeadlineExceeded", "PoolStats", "Priority", "WorkerPool"]


class Priority(IntEnum):
    """Request urgency classes; lower values are served first.

    The gaps leave room for caller-defined intermediate levels — any int
    is accepted wherever a ``Priority`` is, and ties are broken FIFO by
    submission order.
    """

    HIGH = 0
    NORMAL = 10
    LOW = 20


class DeadlineExceeded(TimeoutError):
    """A request's deadline lapsed before a worker could serve it.

    Raised *through the request's future* (never into batch-mates): the
    expired request is dropped from batch formation so its slot goes to a
    request that can still meet its deadline.
    """


@dataclass(frozen=True)
class PoolStats:
    """Immutable snapshot of a :class:`WorkerPool`'s counters."""

    num_workers: int
    jobs: int = 0
    failures: int = 0
    per_worker: Tuple[int, ...] = field(default_factory=tuple)
    restarts: int = 0
    timeouts: int = 0
    crashes: int = 0
    alive: int = 0

    @property
    def busiest_worker(self) -> int:
        """Jobs executed by the most-loaded worker slot."""
        return max(self.per_worker) if self.per_worker else 0


_SHUTDOWN = object()


class _Slot:
    """One worker slot: the live thread plus its in-flight job bookkeeping."""

    __slots__ = ("thread", "future", "started_at")

    def __init__(self, thread: Optional[threading.Thread]) -> None:
        self.thread = thread
        self.future: Optional[Future] = None
        self.started_at: Optional[float] = None


class WorkerPool:
    """``N`` supervised threads executing submitted jobs.

    Parameters
    ----------
    num_workers:
        Concurrent worker threads.  ``1`` reproduces single-worker
        execution semantics (jobs run serially in submission order).
    name:
        Thread-name prefix, for debuggability under ``threading.enumerate``.
    job_timeout_s:
        Soft per-job timeout.  A thread cannot be killed, so a job stuck
        past this budget is *abandoned*: its future fails with
        :class:`~repro.serve.faults.BackendTimeout`, the slot respawns a
        fresh worker, and the hung thread's eventual result is discarded.
        ``None`` (default) disables timeout supervision (crash supervision
        stays on).
    max_restarts:
        Total respawn budget across all slots (crashes + timeouts).  Once
        spent, a dying slot stays dead — capacity degrades rather than
        respawn-looping on a deterministic fault.
    supervise_interval_s:
        Supervisor polling period; also bounds timeout-detection latency.

    Invariants (tested in ``tests/test_serve_pool.py`` and
    ``tests/test_serve_faults.py``):

    * every submitted job either runs or (if cancelled while queued) is
      skipped — a job's future always completes once claimed, even when
      its worker crashes or hangs;
    * ``close()`` drains every job already queued before returning;
    * a job that raises fails only its own future, never the worker —
      except :class:`~repro.serve.faults.WorkerCrash`, which kills the
      worker by design and is healed by supervision.
    """

    def __init__(
        self,
        num_workers: int = 2,
        name: str = "pool",
        *,
        job_timeout_s: Optional[float] = None,
        max_restarts: int = 16,
        supervise_interval_s: float = 0.02,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be > 0")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if supervise_interval_s <= 0:
            raise ValueError("supervise_interval_s must be > 0")
        self.num_workers = int(num_workers)
        self.name = name or "pool"
        self.job_timeout_s = job_timeout_s
        self.max_restarts = int(max_restarts)
        self.supervise_interval_s = float(supervise_interval_s)
        if job_timeout_s is not None:
            # Detect hangs well inside the timeout budget.
            self.supervise_interval_s = min(self.supervise_interval_s, job_timeout_s / 4.0)
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self._jobs = 0
        self._failures = 0
        self._restarts = 0
        self._timeouts = 0
        self._crashes = 0
        self._spawned = 0
        self._per_worker = [0] * self.num_workers
        self._slots: List[_Slot] = [_Slot(None) for _ in range(self.num_workers)]
        for index in range(self.num_workers):
            self._spawn(index)
        self._stop_supervisor = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name=f"{self.name}-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, job: Callable[[], object]) -> Future:
        """Enqueue a zero-argument job; the future resolves to its result."""
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self.name} is closed")
            self._queue.put((job, future))
        return future

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting jobs, drain the queue, and join every worker."""
        with self._lock:
            if not self._closed:
                self._closed = True
                # One sentinel per thread ever spawned: abandoned workers
                # may still be draining, and an extra sentinel left in the
                # queue is harmless while a missing one would hang a join.
                for _ in range(self._spawned):
                    self._queue.put(_SHUTDOWN)
        self._stop_supervisor.set()
        self._supervisor.join(timeout=timeout)
        for slot in self._slots:
            if slot.thread is not None:
                slot.thread.join(timeout=timeout)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (no new submissions)."""
        return self._closed

    @property
    def stats(self) -> PoolStats:
        """Frozen snapshot of the pool's job and supervision counters."""
        with self._lock:
            alive = sum(
                1 for slot in self._slots if slot.thread is not None and slot.thread.is_alive()
            )
            return PoolStats(
                num_workers=self.num_workers,
                jobs=self._jobs,
                failures=self._failures,
                per_worker=tuple(self._per_worker),
                restarts=self._restarts,
                timeouts=self._timeouts,
                crashes=self._crashes,
                alive=alive,
            )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WorkerPool(name='{self.name}', num_workers={self.num_workers}, "
            f"job_timeout_s={self.job_timeout_s})"
        )

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> None:
        """Start a fresh worker thread on slot ``index`` (lock held or init)."""
        thread = threading.Thread(
            target=self._run,
            args=(index,),
            name=f"{self.name}-{index}.{self._spawned}",
            daemon=True,
        )
        slot = self._slots[index]
        slot.thread = thread
        slot.future = None
        slot.started_at = None
        self._spawned += 1
        thread.start()

    def _respawn(self, index: int) -> bool:
        """Replace slot ``index``'s worker, spending one restart (lock held).

        Returns ``False`` when the restart budget is exhausted — the slot
        is left dead and the pool's capacity permanently shrinks by one.
        """
        slot = self._slots[index]
        if self._restarts >= self.max_restarts:
            slot.thread = None
            slot.future = None
            slot.started_at = None
            return False
        self._restarts += 1
        self._spawn(index)
        return True

    def _supervise(self) -> None:
        """Monitor loop: respawn crashed workers, abandon stuck jobs."""
        while not self._stop_supervisor.wait(self.supervise_interval_s):
            timed_out: List[Tuple[Future, float]] = []
            with self._lock:
                if self._closed:
                    break
                now = time.monotonic()
                for index, slot in enumerate(self._slots):
                    if slot.thread is None:
                        continue  # budget exhausted earlier; slot stays dead
                    if not slot.thread.is_alive():
                        self._crashes += 1
                        self._respawn(index)
                    elif (
                        self.job_timeout_s is not None
                        and slot.future is not None
                        and slot.started_at is not None
                        and now - slot.started_at > self.job_timeout_s
                    ):
                        self._timeouts += 1
                        timed_out.append((slot.future, now - slot.started_at))
                        # Abandon: the hung thread keeps running (daemon),
                        # but the slot gets a fresh worker and the hung
                        # thread's late result will be discarded.
                        self._respawn(index)
            for future, elapsed in timed_out:
                try:
                    future.set_exception(
                        BackendTimeout(
                            f"{self.name}: job exceeded its soft timeout "
                            f"({elapsed:.3f}s > {self.job_timeout_s}s); worker abandoned"
                        )
                    )
                except InvalidStateError:
                    pass  # the job finished in the detection window

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #
    def _abandoned(self, index: int) -> bool:
        """Whether the calling thread no longer owns slot ``index``."""
        return self._slots[index].thread is not threading.current_thread()

    def _run(self, index: int) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                # Workers exit one sentinel each; real jobs queued before
                # close() were already ahead of every sentinel (FIFO), so
                # nothing claimable is left behind.
                break
            with self._lock:
                if self._abandoned(index):
                    # This worker was abandoned while blocked on get():
                    # hand the job back for the replacement and bow out.
                    self._queue.put(item)
                    return
            job, future = item
            if not future.set_running_or_notify_cancel():
                continue
            slot = self._slots[index]
            with self._lock:
                slot.future = future
                slot.started_at = time.monotonic()
            crashed = False
            error: Optional[BaseException] = None
            result: object = None
            try:
                result = job()
            except WorkerCrash as exc:
                error = exc
                crashed = True
            except BaseException as exc:  # noqa: BLE001 — forwarded to caller
                error = exc
            with self._lock:
                abandoned = self._abandoned(index)
                if not abandoned:
                    slot.future = None
                    slot.started_at = None
                self._jobs += 1
                self._per_worker[index] += 1
                if error is not None:
                    self._failures += 1
            try:
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(result)
            except InvalidStateError:
                # The supervisor abandoned this job (soft timeout) and
                # already failed its future; the late outcome is discarded.
                pass
            if crashed:
                # Emulated native crash: the worker dies with the job and
                # supervision respawns the slot (within the budget).  A bare
                # return (not re-raise) so the intentional death does not
                # spray the default threading excepthook over stderr — the
                # supervisor counts the dead thread as a crash either way.
                return
            if abandoned:
                return
