"""Priority-aware dynamic micro-batching of concurrent inference requests.

Serving traffic arrives one window at a time, but every backend in this
repository (the NumPy ``repro.nn`` forward pass as well as the integer
graph executor) amortises its per-call Python overhead over the batch axis.
The :class:`DynamicBatcher` sits between the two: callers submit single
windows and receive futures; a background forming thread drains the
request queue into micro-batches of at most ``max_batch_size`` windows.
Formation is work-conserving: the thread blocks for the first request,
adds only the requests already queued, and dispatches at once — it never
waits for batch-mates that may not come.  A batch grows only while the
backend (or, with a pool, every dispatch slot) is busy, because that is
when requests pile up in the queue.

Requests carry a :class:`~repro.serve.pool.Priority` and an optional
deadline.  The queue is a priority queue (FIFO within one priority level),
so high-priority streaming traffic is batched ahead of already-queued
low-priority bulk scoring, and a request whose deadline lapses resolves
with :class:`~repro.serve.pool.DeadlineExceeded` instead of occupying a
batch slot.  Formed batches either execute inline (the single-worker
default) or are dispatched to a :class:`~repro.serve.pool.WorkerPool`,
which overlaps batch formation with backend execution across ``N``
threads.

Overload is handled by **admission control**, not unbounded queueing:
with ``max_queue_depth`` set, a submission that finds the queue full
either sheds the newest request of the *worst* queued priority level
(when the newcomer outranks it — its future resolves with
:class:`~repro.serve.faults.Overloaded`) or is itself rejected with a
fast synchronous :class:`~repro.serve.faults.Overloaded` raise.  LOW
traffic is always shed before HIGH.

Invariants (enforced by the property tests in ``tests/test_serve_batcher.py``):

* **no request is dropped** — every submitted future completes, even when
  the batcher is closed with requests still queued, when a dispatched
  pool job crashes, or when its worker is abandoned on a soft timeout;
* **no request is duplicated** — each future resolves exactly once;
* **order is preserved per priority level** — within one priority, rows of
  a micro-batch follow submission order, and each caller receives exactly
  the output row of its own input;
* **batches never exceed** ``max_batch_size``;
* **no batch poisoning** — a malformed or expired request fails (only) its
  own future; its batch-mates still execute.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import Counter, deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import wait as wait_futures
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .faults import Overloaded, WorkerCrash
from .metrics import MetricsRegistry, Snapshot
from .pool import DeadlineExceeded, Priority, WorkerPool

__all__ = ["DynamicBatcher"]

_SHUTDOWN = object()
# The shutdown sentinel sorts after every real priority, so by the time the
# forming thread pops it the priority queue holds no live requests.
_SHUTDOWN_PRIORITY = float("inf")


class _Request:
    __slots__ = ("payload", "future", "priority", "deadline", "shed")

    def __init__(
        self,
        payload: np.ndarray,
        future: Future,
        priority: int,
        deadline: Optional[float],
    ) -> None:
        self.payload = payload
        self.future = future
        self.priority = priority
        self.deadline = deadline  # absolute time.monotonic() instant
        self.shed = False  # resolved with Overloaded while queued


class DynamicBatcher:
    """Aggregate single-window requests into micro-batches for ``run_batch``.

    Parameters
    ----------
    run_batch:
        Called as ``run_batch(stacked, deadline=earliest)``: maps a stacked
        ``(batch, ...)`` array to a ``(batch, ...)`` array of per-request
        results (row ``i`` answers request ``i``).  ``earliest`` is the
        soonest absolute ``time.monotonic()`` deadline among the batch's
        live requests, or ``None`` — the server's retry path stops
        retrying once the batch can no longer make it.
    max_batch_size:
        Hard upper bound on the micro-batch size.
    input_shape:
        Expected per-request payload shape.  When given, a mismatching
        payload fails its own future with ``ValueError`` at batch-stack
        time; when omitted, the majority payload shape of each micro-batch
        defines the reference (ties break toward the earliest submission).
        Either way one malformed request can never fail its batch-mates.
    pool:
        Optional :class:`~repro.serve.pool.WorkerPool`.  When given, formed
        batches are dispatched to the pool (overlapping formation with
        execution, and batches with each other across workers); when
        ``None``, batches execute inline on the forming thread — the exact
        single-worker semantics of the pre-pool batcher.  The pool is
        *borrowed*: closing the batcher drains its own dispatched jobs but
        never closes the pool.
    max_queue_depth:
        Admission-control bound on *queued* (not yet batch-formed)
        requests.  A submission over the bound sheds the newest queued
        request of the numerically largest (least urgent) priority level
        when the newcomer strictly outranks it — the victim's future
        resolves with :class:`~repro.serve.faults.Overloaded` — and is
        otherwise itself rejected with a synchronous ``Overloaded`` raise.
        ``None`` (default) keeps the historical unbounded queue.

    ``stats`` is a :class:`~repro.serve.metrics.Snapshot` of ``metrics``:
    ``batcher_requests{priority}`` (windows served),
    ``batcher_batches{size}`` (formed batches by size),
    ``batcher_expired`` / ``batcher_malformed`` / ``batcher_shed`` /
    ``batcher_rejected`` (each ``{priority}``) and the gauge
    ``batcher_queue_depth``.
    """

    def __init__(
        self,
        run_batch: Callable[..., np.ndarray],
        max_batch_size: int = 16,
        name: str = "",
        input_shape: Optional[Tuple[int, ...]] = None,
        pool: Optional[WorkerPool] = None,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.run_batch = run_batch
        self.max_batch_size = int(max_batch_size)
        self.name = name or "batcher"
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.pool = pool
        self.max_queue_depth = max_queue_depth
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._ticket = itertools.count()  # FIFO tie-break within a priority
        self._lock = threading.Lock()
        self._closed = False
        self.metrics = MetricsRegistry(
            "batcher_requests",
            "batcher_batches",
            "batcher_expired",
            "batcher_malformed",
            "batcher_shed",
            "batcher_rejected",
        )
        self.metrics.gauge("batcher_queue_depth", self._queue_depth)
        # Queued-but-not-yet-popped requests per priority level, FIFO by
        # ticket.  The forming thread pops the *left* end (oldest of the
        # most urgent level); shedding pops the *right* end (newest of the
        # least urgent level) — so deque[0] of a level is always the next
        # request the priority queue will deliver from that level.
        self._pending_by_priority: Dict[int, Deque[_Request]] = {}
        self._pending: List[Future] = []  # in-flight pool jobs
        # Dispatch throttle: at most num_workers batches may be in flight,
        # so excess requests wait in the *priority* queue (where HIGH can
        # still jump ahead) instead of piling up as formed batches in the
        # pool's FIFO job queue — unbounded dispatch would defeat
        # preemption whenever a pool is attached.
        self._dispatch_slots = (
            threading.Semaphore(pool.num_workers) if pool is not None else None
        )
        self._worker = threading.Thread(
            target=self._run, name=f"{self.name}-former", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        window: np.ndarray,
        priority: int = Priority.NORMAL,
        deadline_s: Optional[float] = None,
    ) -> Future:
        """Enqueue one window; the future resolves to its result row.

        ``priority`` orders batch formation (lower first, FIFO within a
        level).  ``deadline_s`` is a relative budget: if the request is
        still queued after that many seconds it resolves with
        :class:`~repro.serve.pool.DeadlineExceeded` instead of executing.

        With ``max_queue_depth`` set, a submission into a full queue
        either sheds the newest least-urgent queued request (when this
        request strictly outranks it) or raises
        :class:`~repro.serve.faults.Overloaded` synchronously.
        """
        if deadline_s is not None and deadline_s < 0:
            raise ValueError("deadline_s must be >= 0")
        deadline = time.monotonic() + deadline_s if deadline_s is not None else None
        future: Future = Future()
        request = _Request(np.asarray(window), future, int(priority), deadline)
        victim: Optional[_Request] = None
        # Enqueue under the lock so a concurrent close() either sees this
        # request before its shutdown sentinel (and drains it) or rejects
        # the submission — a request can never slip in after the drain.
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self.name} is closed")
            if self.max_queue_depth is not None:
                depth = sum(len(d) for d in self._pending_by_priority.values())
                if depth >= self.max_queue_depth:
                    worst = max(
                        (p for p, d in self._pending_by_priority.items() if d),
                        default=None,
                    )
                    if worst is None or worst <= request.priority:
                        # Nothing queued is less urgent: fast rejection.
                        self.metrics.inc("batcher_rejected", priority=request.priority)
                        raise Overloaded(
                            f"{self.name}: queue full "
                            f"({depth}/{self.max_queue_depth}); request rejected"
                        )
                    victim = self._pending_by_priority[worst].pop()
                    victim.shed = True
                    self.metrics.inc("batcher_shed", priority=worst)
            self._pending_by_priority.setdefault(request.priority, deque()).append(request)
            self._queue.put((request.priority, next(self._ticket), request))
        if victim is not None and victim.future.set_running_or_notify_cancel():
            # Resolve outside the lock: future callbacks run inline.
            victim.future.set_exception(
                Overloaded(
                    f"{self.name}: shed while queued to admit priority "
                    f"{request.priority} traffic (queue full)"
                )
            )
        return future

    def map(
        self,
        windows: Sequence[np.ndarray],
        timeout: Optional[float] = None,
        priority: int = Priority.NORMAL,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Submit ``windows`` and block for the stacked results (in order).

        Zero windows is a valid (empty) workload: the result is an empty
        ``(0,)`` array rather than an obscure ``np.stack([])`` failure.
        (With no requests the batcher cannot know the backend's result-row
        shape; callers that do know it should reshape — e.g.
        ``InferenceServer.infer`` returns ``(0, num_classes)``.)
        """
        futures = [
            self.submit(window, priority=priority, deadline_s=deadline_s)
            for window in windows
        ]
        if not futures:
            return np.empty((0,), dtype=np.float64)
        return np.stack([future.result(timeout=timeout) for future in futures])

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> Snapshot:
        """An immutable snapshot of :attr:`metrics`."""
        return self.metrics.snapshot()

    def _queue_depth(self) -> int:
        """Requests queued and not yet formed into a batch."""
        with self._lock:
            return sum(len(d) for d in self._pending_by_priority.values())

    def close(self, timeout: Optional[float] = 10.0) -> bool:
        """Stop accepting requests, drain the queue, and join the worker.

        When a pool is attached, also blocks until every batch this batcher
        already dispatched has finished executing (the pool itself stays
        open — it may be shared).

        ``timeout`` is a *single* budget for the whole shutdown: the worker
        join and the wait on in-flight pool futures share one deadline
        (earlier revisions spent the full timeout on each phase, so
        ``close(timeout=10)`` could block for 20 s).  Returns ``True`` when
        everything drained within the budget, ``False`` when the worker is
        still alive or pool futures are still running at the deadline — the
        caller can then retry, extend the budget, or report the leak.
        """
        with self._lock:
            already = self._closed
            if not already:
                self._closed = True
                self._queue.put((_SHUTDOWN_PRIORITY, next(self._ticket), _SHUTDOWN))
        deadline = None if timeout is None else time.monotonic() + timeout
        self._worker.join(timeout=timeout)
        drained = not self._worker.is_alive()
        with self._lock:
            pending = list(self._pending)
        if pending:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            done = wait_futures(pending, timeout=remaining)
            drained = drained and not done.not_done
        return drained

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (no new submissions)."""
        return self._closed

    def __enter__(self) -> "DynamicBatcher":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Batch formation
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            if self._dispatch_slots is not None:
                # Take the slot before forming: while every worker is busy,
                # arrivals keep joining the next batch in the priority queue
                # (where HIGH can still jump ahead) instead of a batch of one
                # blocking here.
                self._dispatch_slots.acquire()
            batch: List[_Request] = []
            _, _, item = self._queue.get()
            while item is not _SHUTDOWN:
                self._admit(item, batch)
                if len(batch) == self.max_batch_size:
                    break
                try:
                    _, _, item = self._queue.get_nowait()
                except queue.Empty:
                    break
            self._dispatch(batch)
            # Nothing live sorts after the sentinel, and submit() rejects
            # once close() has queued it: the queue is drained.
            if item is _SHUTDOWN:
                return

    def _admit(self, request: _Request, batch: List[_Request]) -> None:
        """Add ``request`` to the forming batch, or expire it in place.

        A past-deadline request is resolved immediately with
        ``DeadlineExceeded`` so it never occupies a batch slot that a
        still-viable request could use.  A request shed by admission
        control was already resolved with ``Overloaded`` and removed from
        the pending books — it is skipped silently here.
        """
        with self._lock:
            pending = self._pending_by_priority.get(request.priority)
            if pending and pending[0] is request:
                pending.popleft()
        if request.shed:
            return
        if request.deadline is not None and time.monotonic() > request.deadline:
            if request.future.set_running_or_notify_cancel():
                self.metrics.inc("batcher_expired", priority=request.priority)
                request.future.set_exception(
                    DeadlineExceeded(
                        f"{self.name}: request expired after waiting past its deadline"
                    )
                )
            return
        batch.append(request)

    def _dispatch(self, batch: List[_Request]) -> None:
        """Execute ``batch`` inline, or hand it to the pool on the dispatch
        slot :meth:`_run` acquired for it."""
        if not batch:
            if self._dispatch_slots is not None:
                self._dispatch_slots.release()
            return
        if self.pool is None:
            self._execute(batch)
            return
        try:
            job = self.pool.submit(lambda: self._execute(batch, propagate_crash=True))
        except RuntimeError:
            # A borrowed pool was closed while this batcher is still live.
            # Fall back to inline execution: the forming thread must never
            # die with futures unresolved (the no-request-dropped invariant
            # outranks pool dispatch).
            self._dispatch_slots.release()
            self._execute(batch)
            return
        job.add_done_callback(lambda done, batch=batch: self._job_done(batch, done))
        with self._lock:
            # Prune settled jobs so long-lived batchers hold O(workers)
            # futures, not one per batch ever dispatched.
            self._pending = [f for f in self._pending if not f.done()]
            self._pending.append(job)

    def _job_done(self, batch: List[_Request], job: Future) -> None:
        """Release the dispatch slot and settle any futures the job left.

        ``_execute`` resolves every request future itself, so on a clean
        job there is nothing to do.  But a job that *failed at the pool
        level* — its worker crashed mid-batch, or supervision abandoned it
        on a soft timeout — died between claiming the request futures and
        resolving them.  Forwarding the job's error here is what upholds
        the no-request-dropped invariant under worker faults.
        """
        self._dispatch_slots.release()
        if job.cancelled():
            error: BaseException = RuntimeError(f"{self.name}: batch job cancelled")
        else:
            error = job.exception()
        if error is None:
            return
        for request in batch:
            try:
                # Legal from PENDING or RUNNING; InvalidStateError means the
                # future already settled (normally, or a hung worker unstuck
                # and resolved it first) or was cancelled.
                request.future.set_exception(error)
            except InvalidStateError:
                pass

    # ------------------------------------------------------------------ #
    # Batch execution (forming thread or pool worker)
    # ------------------------------------------------------------------ #
    def _execute(self, batch: List[_Request], propagate_crash: bool = False) -> None:
        # Claim every future before running: a future that was cancelled
        # while queued is dropped here, and a claimed (RUNNING) future can
        # no longer be cancelled, so set_result/set_exception below cannot
        # race a caller's cancel() into InvalidStateError.
        claimed = [request for request in batch if request.future.set_running_or_notify_cancel()]
        alive: List[_Request] = []
        expired: List[_Request] = []
        for request in claimed:
            # Re-check the deadline at execution time: a request can expire
            # between batch formation and a pool worker picking the job up.
            if request.deadline is not None and time.monotonic() > request.deadline:
                expired.append(request)
            else:
                alive.append(request)
        reference = self.input_shape
        if reference is None and alive:
            # Majority shape of the batch (ties -> earliest submission):
            # one malformed request can never outvote its batch-mates, no
            # matter where it lands in the batch.
            counts: dict = {}
            for request in alive:
                shape = np.shape(request.payload)
                counts[shape] = counts.get(shape, 0) + 1
            best = max(counts.values())
            reference = next(
                shape
                for shape in (np.shape(request.payload) for request in alive)
                if counts[shape] == best
            )
        live: List[_Request] = []
        malformed: List[_Request] = []
        for request in alive:
            if np.shape(request.payload) != reference:
                malformed.append(request)
            else:
                live.append(request)
        # Count each rejection *before* resolving its future, so a caller
        # that awaits a rejected future and then reads ``stats`` always
        # observes its own request accounted for.
        for request in expired:
            self.metrics.inc("batcher_expired", priority=request.priority)
            request.future.set_exception(
                DeadlineExceeded(f"{self.name}: request expired before its batch executed")
            )
        for request in malformed:
            self.metrics.inc("batcher_malformed", priority=request.priority)
            request.future.set_exception(
                ValueError(
                    f"{self.name}: request payload has shape "
                    f"{np.shape(request.payload)}, expected {reference}"
                )
            )
        if not live:
            return
        try:
            stacked = np.stack([request.payload for request in live])
            earliest = min(
                (r.deadline for r in live if r.deadline is not None), default=None
            )
            raw = self.run_batch(stacked, deadline=earliest)
            # asanyarray, not asarray: the server's degradation path marks
            # fallback answers with an ndarray subclass (DegradedLogits),
            # and rows handed to callers must keep that flag.
            results = np.asanyarray(raw)
            if results.shape[0] != len(live):
                raise RuntimeError(
                    f"run_batch returned {results.shape[0]} rows for a "
                    f"batch of {len(live)}"
                )
        except BaseException as error:  # noqa: BLE001 — forwarded to callers
            for request in live:
                try:
                    request.future.set_exception(error)
                except InvalidStateError:
                    pass  # already failed by timeout abandonment
            if propagate_crash and isinstance(error, WorkerCrash):
                # Let the emulated crash take the pool worker down (the
                # supervisor respawns it).  Inline execution never
                # propagates: the forming thread must survive everything.
                raise
            return
        for priority, count in Counter(request.priority for request in live).items():
            self.metrics.inc("batcher_requests", count, priority=priority)
        self.metrics.inc("batcher_batches", size=len(live))
        for row, request in enumerate(live):
            try:
                request.future.set_result(results[row])
            except InvalidStateError:
                # Supervision abandoned this batch on a soft timeout and
                # already failed the future; the late row is discarded.
                pass
