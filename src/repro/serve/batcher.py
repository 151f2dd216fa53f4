"""Priority-aware dynamic micro-batching of concurrent inference requests.

Serving traffic arrives one window at a time, but every backend in this
repository (the NumPy ``repro.nn`` forward pass as well as the integer
graph executor) amortises its per-call Python overhead over the batch axis.
The :class:`DynamicBatcher` sits between the two: callers submit single
windows and receive futures; ``num_workers`` forming threads drain the one
request queue into micro-batches of at most ``max_batch_size`` windows,
and each runs the batch it formed inline.  Formation is work-conserving: a
former blocks for the first request, adds only the requests already
queued, and executes at once — it never waits for batch-mates that may
not come.  A batch grows only while every former is busy in the backend,
because that is when requests pile up in the queue.  ``num_workers=1`` is
the same loop on one thread.

Requests carry a :class:`~repro.serve.pool.Priority` and an optional
deadline.  The queue is a priority queue (FIFO within one priority level),
so high-priority streaming traffic is batched ahead of already-queued
low-priority bulk scoring, and a request whose deadline lapses resolves
with :class:`~repro.serve.pool.DeadlineExceeded` instead of occupying a
batch slot.  Nothing sits between forming a batch and running it, so a
request waits in the priority queue until a former is free to run it.

With ``num_workers > 1`` the formers are **supervised**: a
:class:`~repro.serve.faults.WorkerCrash` escaping ``run_batch`` kills its
former and a replacement starts, and with ``job_timeout_s`` set a watchdog
abandons a former stuck past that budget — its batch fails with
:class:`~repro.serve.faults.BackendTimeout`, a replacement starts, and the
late result is discarded.  Replacements draw from a ``max_restarts``
budget; once it is spent a dying former is not replaced and the
``pool_alive`` gauge shows the capacity loss.  A single former never dies
on ``WorkerCrash``: it fails the batch and serves on.

Overload is handled by **admission control**, not unbounded queueing:
with ``max_queue_depth`` set, a submission that finds the queue full
either sheds the newest request of the *worst* queued priority level
(when the newcomer outranks it — its future resolves with
:class:`~repro.serve.faults.Overloaded`) or is itself rejected with a
fast synchronous :class:`~repro.serve.faults.Overloaded` raise.  LOW
traffic is always shed before HIGH.

Invariants (enforced by the property tests in ``tests/test_serve_batcher.py``):

* **no request is dropped** — every submitted future completes, even when
  the batcher is closed with requests still queued, when a former
  crashes, or when it is abandoned on a soft timeout;
* **no request is duplicated** — each future resolves exactly once;
* **order is preserved per priority level** — within one priority, rows of
  a micro-batch follow submission order, and each caller receives exactly
  the output row of its own input;
* **batches never exceed** ``max_batch_size``;
* **no batch poisoning** — a malformed or expired request fails (only) its
  own future; its batch-mates still execute.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from concurrent.futures import Future
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .faults import BackendTimeout, Overloaded, WorkerCrash
from .metrics import MetricsRegistry, Snapshot
from .pool import DeadlineExceeded, Priority

__all__ = ["DynamicBatcher"]

class _Request:
    __slots__ = ("payload", "future", "priority", "deadline")

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


class _Former:
    """One forming slot: the thread that owns it and the batch it runs."""

    __slots__ = ("thread", "batch", "started_at")

    def __init__(self) -> None:
        self.thread: Optional[threading.Thread] = None
        self.batch: Optional[List[_Request]] = None  # in run_batch, if any
        self.started_at = 0.0


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
    num_workers:
        Forming threads, each running the batches it forms, so up to this
        many batches execute at once (both backends release the GIL in
        their BLAS kernels).  ``1`` (default) is one unsupervised former.
    max_queue_depth:
        Admission-control bound on *queued* (not yet batch-formed)
        requests.  A submission over the bound sheds the newest queued
        request of the numerically largest (least urgent) priority level
        when the newcomer strictly outranks it — the victim's future
        resolves with :class:`~repro.serve.faults.Overloaded` — and is
        otherwise itself rejected with a synchronous ``Overloaded`` raise.
        ``None`` (default) keeps the historical unbounded queue.
    job_timeout_s:
        Soft per-batch timeout (``num_workers > 1`` only).  A thread cannot
        be killed, so a former stuck in ``run_batch`` past this budget is
        *abandoned*: its batch fails with
        :class:`~repro.serve.faults.BackendTimeout`, a replacement former
        starts, and the stuck thread exits, its result discarded, once its
        call returns.  ``None`` (default) starts no watchdog.
    max_restarts:
        Total replacement budget across all formers (crashes + timeouts).
        Once spent, a dying former is not replaced — capacity degrades
        rather than respawn-looping on a deterministic fault.

    ``stats`` is a :class:`~repro.serve.metrics.Snapshot` of ``metrics``:
    ``batcher_requests{priority}`` (windows served),
    ``batcher_batches{size}`` (formed batches by size),
    ``batcher_expired`` / ``batcher_malformed`` / ``batcher_shed`` /
    ``batcher_rejected`` (each ``{priority}``) and the gauge
    ``batcher_queue_depth``.  With ``num_workers > 1`` it also holds the
    supervision series: ``pool_jobs{worker}`` (backend calls completed, by
    former slot), ``pool_failures`` (calls that raised), ``pool_crashes``,
    ``pool_timeouts`` and the gauges ``pool_alive`` and ``pool_restarts``
    (the spent restart budget).
    """

    def __init__(
        self,
        run_batch: Callable[..., np.ndarray],
        max_batch_size: int = 16,
        name: str = "",
        input_shape: Optional[Tuple[int, ...]] = None,
        num_workers: int = 1,
        max_queue_depth: Optional[int] = None,
        job_timeout_s: Optional[float] = None,
        max_restarts: int = 16,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if job_timeout_s is not None and num_workers == 1:
            raise ValueError(
                "job_timeout_s requires num_workers > 1: a single former has no "
                "replacement to take over while it is stuck"
            )
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be > 0")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.run_batch = run_batch
        self.max_batch_size = int(max_batch_size)
        self.name = name or "batcher"
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.num_workers = int(num_workers)
        self.max_queue_depth = max_queue_depth
        self.job_timeout_s = job_timeout_s
        self.max_restarts = int(max_restarts)
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)  # a request queued, or closed
        self._closed = False
        self._restarts = 0
        counters = [
            "batcher_requests",
            "batcher_batches",
            "batcher_expired",
            "batcher_malformed",
            "batcher_shed",
            "batcher_rejected",
        ]
        if self.num_workers > 1:
            counters += ["pool_jobs", "pool_failures", "pool_crashes", "pool_timeouts"]
        self.metrics = MetricsRegistry(*counters)
        self.metrics.gauge("batcher_queue_depth", self._queue_depth)
        if self.num_workers > 1:
            self.metrics.gauge("pool_alive", self._alive)
            self.metrics.gauge("pool_restarts", lambda: self._restarts)
        # The queue: requests not yet formed into a batch, per priority
        # level, FIFO.  Formers pop the *left* end (oldest of the most
        # urgent level); shedding pops the *right* end (newest of the least
        # urgent level).
        self._pending: Dict[int, Deque[_Request]] = {}
        self._formers = [_Former() for _ in range(self.num_workers)]
        for slot in range(self.num_workers):
            self._spawn(slot)
        self._stop_watchdog = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        if job_timeout_s is not None:
            self._watchdog = threading.Thread(
                target=self._watch, name=f"{self.name}-watchdog", daemon=True
            )
            self._watchdog.start()

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
        # request (and drains it) or rejects the submission — a request can
        # never slip in after the drain.
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self.name} is closed")
            if self.max_queue_depth is not None:
                depth = sum(len(d) for d in self._pending.values())
                if depth >= self.max_queue_depth:
                    worst = max((p for p, d in self._pending.items() if d), default=None)
                    if worst is None or worst <= request.priority:
                        # Nothing queued is less urgent: fast rejection.
                        self.metrics.inc("batcher_rejected", priority=request.priority)
                        raise Overloaded(
                            f"{self.name}: queue full "
                            f"({depth}/{self.max_queue_depth}); request rejected"
                        )
                    victim = self._pending[worst].pop()
                    self.metrics.inc("batcher_shed", priority=worst)
            self._pending.setdefault(request.priority, deque()).append(request)
            self._ready.notify()
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
            return sum(len(d) for d in self._pending.values())

    def _alive(self) -> int:
        """Former slots whose owning thread is running."""
        with self._lock:
            return sum(
                1 for former in self._formers
                if former.thread is not None and former.thread.is_alive()
            )

    def close(self, timeout: Optional[float] = 10.0) -> bool:
        """Stop accepting requests, drain the queue, and join every former.

        ``timeout`` is a *single* budget for the whole shutdown, shared by
        every join.  A former started during the drain (a replacement for
        one that crashed or was abandoned) is joined too; an abandoned
        former is not waited for — its batch already failed.  Returns
        ``True`` when everything drained within the budget, ``False`` when
        a former is still running at the deadline — the caller can then
        retry, extend the budget, or report the leak.
        """
        with self._lock:
            self._closed = True
            self._ready.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                owners = [
                    former.thread for former in self._formers
                    if former.thread is not None and former.thread.is_alive()
                ]
            if not owners:
                break
            remaining = 0.05 if deadline is None else deadline - time.monotonic()
            if remaining <= 0:
                return False
            # Join in short slices: the slot may change hands while we wait.
            owners[0].join(min(remaining, 0.05))
        # With the restart budget spent every slot may be empty, and then no
        # former drained the queue: fail what is left rather than strand it.
        with self._lock:
            leftovers = [request for level in self._pending.values() for request in level]
            self._pending.clear()
        for request in leftovers:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    RuntimeError(f"{self.name}: closed with no former left to serve the request")
                )
        self._stop_watchdog.set()
        if self._watchdog is not None:
            self._watchdog.join()
        return True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (no new submissions)."""
        return self._closed

    def __enter__(self) -> "DynamicBatcher":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Formers and their supervision
    # ------------------------------------------------------------------ #
    def _spawn(self, slot: int) -> None:
        """Start a fresh former owning ``slot`` (lock held, or from __init__)."""
        former = self._formers[slot]
        former.batch = None
        former.thread = threading.Thread(
            target=self._run, args=(slot,), name=f"{self.name}-former-{slot}", daemon=True
        )
        former.thread.start()

    def _respawn(self, slot: int) -> None:
        """Replace ``slot``'s former, spending one restart (lock held).

        Once the budget is spent the slot is left empty and the batcher's
        capacity permanently shrinks by one former.
        """
        if self._restarts >= self.max_restarts:
            self._formers[slot].thread = None
            self._formers[slot].batch = None
            return
        self._restarts += 1
        self._spawn(slot)

    def _watch(self) -> None:
        """Abandon formers stuck in ``run_batch`` past ``job_timeout_s``."""
        timeout = self.job_timeout_s
        while not self._stop_watchdog.wait(timeout / 4.0):
            now = time.monotonic()
            stuck: List[Tuple[List[_Request], float]] = []
            with self._lock:
                for slot, former in enumerate(self._formers):
                    if former.batch is not None and now - former.started_at > timeout:
                        self.metrics.inc("pool_timeouts")
                        stuck.append((former.batch, now - former.started_at))
                        # The hung thread keeps running (daemon); it no
                        # longer owns the slot, so its late result is
                        # discarded and it exits once its call returns.
                        self._respawn(slot)
            for batch, elapsed in stuck:
                error = BackendTimeout(
                    f"{self.name}: batch exceeded its soft timeout "
                    f"({elapsed:.3f}s > {timeout}s); former abandoned"
                )
                for request in batch:
                    request.future.set_exception(error)

    def _run(self, slot: int) -> None:
        """Form a batch, run it inline, repeat — until the batcher is closed
        and drained, this former crashes, or the watchdog abandons it."""
        while True:
            batch, drained = self._form()
            try:
                self._execute(batch, slot)
            except WorkerCrash:
                # An emulated native crash takes this former down with the
                # batch (already failed); a replacement takes its slot.
                with self._lock:
                    self.metrics.inc("pool_crashes")
                    self._respawn(slot)
                return
            if drained or self._formers[slot].thread is not threading.current_thread():
                return

    def _form(self) -> Tuple[List[_Request], bool]:
        """Wait for a request, then take at most ``max_batch_size`` of those
        queued: the most urgent level first, FIFO within one.

        A past-deadline request is resolved with ``DeadlineExceeded`` here
        instead, so it never occupies a batch slot that a still-viable
        request could use.  Returns the batch and whether the batcher is
        closed with nothing left queued.
        """
        batch: List[_Request] = []
        expired: List[_Request] = []
        with self._lock:
            while not self._closed and not any(self._pending.values()):
                self._ready.wait()
            now = time.monotonic()
            for priority in sorted(p for p, d in self._pending.items() if d):
                level = self._pending[priority]
                while level and len(batch) < self.max_batch_size:
                    request = level.popleft()
                    if request.deadline is not None and now > request.deadline:
                        expired.append(request)
                    else:
                        batch.append(request)
            drained = self._closed and not any(self._pending.values())
        # Resolve outside the lock: future callbacks run inline.
        for request in expired:
            if request.future.set_running_or_notify_cancel():
                self.metrics.inc("batcher_expired", priority=request.priority)
                request.future.set_exception(
                    DeadlineExceeded(
                        f"{self.name}: request expired after waiting past its deadline"
                    )
                )
        return batch, drained

    def _finish(self, slot: int, failed: bool) -> bool:
        """Take ``slot``'s batch back from the watchdog after ``run_batch``.

        ``False`` when this former was abandoned meanwhile: its batch
        already failed with ``BackendTimeout`` and the outcome is discarded.
        """
        with self._lock:
            former = self._formers[slot]
            if former.thread is not threading.current_thread():
                return False
            former.batch = None
        if self.num_workers > 1:
            self.metrics.inc("pool_jobs", worker=slot)
            if failed:
                self.metrics.inc("pool_failures")
        return True

    # ------------------------------------------------------------------ #
    # Batch execution (on the former that formed the batch)
    # ------------------------------------------------------------------ #
    def _execute(self, batch: List[_Request], slot: int) -> None:
        # Claim every future before running: a future that was cancelled
        # while queued is dropped here, and a claimed (RUNNING) future can
        # no longer be cancelled, so set_result/set_exception below cannot
        # race a caller's cancel() into InvalidStateError.
        alive = [request for request in batch if request.future.set_running_or_notify_cancel()]
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
        former = self._formers[slot]
        with self._lock:
            former.started_at = time.monotonic()
            former.batch = live
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
            if not self._finish(slot, failed=True):
                return
            for request in live:
                request.future.set_exception(error)
            if self.num_workers > 1 and isinstance(error, WorkerCrash):
                # Let the emulated crash take this former down (_run
                # replaces it).  A single former never propagates: it must
                # survive everything.
                raise
            return
        if not self._finish(slot, failed=False):
            return
        for priority, count in Counter(request.priority for request in live).items():
            self.metrics.inc("batcher_requests", count, priority=priority)
        self.metrics.inc("batcher_batches", size=len(live))
        for row, request in enumerate(live):
            request.future.set_result(results[row])
