"""The serving facade: one API over both inference engines.

:class:`InferenceServer` owns a :class:`~repro.serve.backends.Backend` and a
:class:`~repro.serve.batcher.DynamicBatcher` (``num_workers`` forming
threads), and exposes the call styles a gesture-recognition service needs:

* ``submit(window, priority=..., deadline_s=...)`` — asynchronous
  single-window requests (the batcher aggregates concurrent callers into
  micro-batches, in priority order);
* ``infer(windows)`` / ``predict(windows)`` — synchronous batch inference
  routed through the same micro-batching path, at bulk (low) priority by
  default;
* ``infer_async(windows)`` + ``as_completed(futures)`` — the async-friendly
  bulk path: futures out, completion-order consumption in;
* ``open_stream(...)`` — a :class:`~repro.serve.stream.StreamSession` bound
  to this server, classifying at high priority so live streams preempt
  queued bulk scoring.

The dispatch path is fault-tolerant (see :mod:`repro.serve.faults`):
inputs are validated at admission (non-finite samples, unsafe dtypes and
wrong geometry fail fast with ``ValueError``), backend calls can be
retried under a :class:`~repro.serve.faults.RetryPolicy` (retryable
faults only, within the request deadline), a
:class:`~repro.serve.faults.CircuitBreaker` stops hammering a failing
backend, and an open int8 circuit can degrade to the float backend —
answers served by the fallback are flagged with
:class:`~repro.serve.faults.DegradedLogits`.  ``server.stats`` is the
one snapshot of all of it: the series of the server, batcher (with its
formers' supervision), breaker and session manager (see
:mod:`repro.serve.metrics`) plus a coarse ``status`` verdict.

Backends are constructed through a process-wide cache keyed by
``(architecture, patch_size, backend, lowering config, calibration)``
(plus the full registry kwargs), so many concurrent sessions of the same
deployed architecture share one model/executor — the serving analogue of
the deploy toolchain's one-binary-many-inferences model — while int8
backends lowered with different configs (calibration percentile) or
calibration windows stay distinct.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import as_completed as _as_completed
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..deploy.passes import LoweringConfig
from ..models.registry import build_model, model_cache_key
from ..nn.module import Module
from .backends import Backend, build_float_backend, build_int8_backend
from .batcher import DynamicBatcher
from .faults import (
    BackendError,
    CircuitBreaker,
    CircuitOpen,
    DegradedLogits,
    RetryExhausted,
    RetryPolicy,
    ServingError,
    WorkerCrash,
)
from .metrics import MetricsRegistry, Snapshot
from .pool import Priority
from .sessions import SessionManager
from .stream import StreamSession

__all__ = [
    "BackendCache",
    "InferenceServer",
    "ServerStats",
    "get_default_cache",
]

_BACKENDS = ("float", "int8")


def _calibration_key(calibration: Optional[np.ndarray]) -> Optional[Tuple]:
    """The cache identity of int8 calibration windows: a SHA-256 digest of
    their bytes, with their shape and dtype.  ``None`` (the seeded default
    batch) stays ``None``."""
    if calibration is None:
        return None
    windows = np.ascontiguousarray(calibration)
    digest = hashlib.sha256(windows.tobytes()).hexdigest()
    return digest, windows.shape, windows.dtype.str


class BackendCache:
    """LRU cache of constructed serving backends.

    Keys are ``(model_cache_key(architecture, **kwargs), backend,
    lowering config, calibration digest)`` tuples: two servers asking for
    the same architecture / patch size / backend / lowering config /
    calibration windows get the *same* backend object (same weights, same
    quantisation constants, same op set).

    ``stats`` is a :class:`~repro.serve.metrics.Snapshot` of ``metrics``:
    ``cache_hits``, ``cache_misses``, ``cache_evictions`` and the gauge
    ``cache_entries``.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Tuple, Backend]" = OrderedDict()
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry("cache_hits", "cache_misses", "cache_evictions")
        self.metrics.gauge("cache_entries", self.__len__)

    def get_or_build(self, key: Tuple, factory: Callable[[], Backend]) -> Backend:
        """Return the cached backend for ``key``, building it on first use."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.metrics.inc("cache_hits")
                return self._entries[key]
        # Build outside the lock (lowering can take a while); worst case two
        # threads build the same backend and the first insert wins.
        backend = factory()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self.metrics.inc("cache_hits")
                return existing
            self.metrics.inc("cache_misses")
            self._entries[key] = backend
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.metrics.inc("cache_evictions")
            return backend

    @property
    def stats(self) -> Snapshot:
        """An immutable snapshot of :attr:`metrics`."""
        return self.metrics.snapshot()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every cached backend and reset every counter."""
        with self._lock:
            self._entries.clear()
            self.metrics.reset()


_DEFAULT_CACHE = BackendCache()


def get_default_cache() -> BackendCache:
    """The process-wide backend cache used when none is passed explicitly."""
    return _DEFAULT_CACHE


@dataclass(frozen=True)
class ServerStats(Snapshot):
    """One :class:`InferenceServer`'s snapshot: the series of its parts, merged.

    The server's own ``server_retries`` and ``server_degraded`` (rows
    answered by the fallback) plus the batcher's (its ``pool_*`` series only
    with ``num_workers > 1``), the breaker's (absent without one) and the
    attached session manager's series.  Each part is read once.
    """

    @property
    def requests(self) -> int:
        """Total windows served (across all priorities)."""
        return self.get("batcher_requests")

    @property
    def batches(self) -> int:
        """Micro-batches the batcher formed."""
        return self.get("batcher_batches")

    @property
    def status(self) -> str:
        """``"degraded"`` if the breaker is not closed, a request was
        answered by the fallback, or a worker restarted; else ``"ok"``."""
        degraded = (
            any(state != CircuitBreaker.CLOSED for state in self.by("breaker_state", "state"))
            or self.get("server_degraded") > 0
            or self.get("pool_restarts") > 0
        )
        return "degraded" if degraded else "ok"


class InferenceServer:
    """Serve sEMG gesture classification over a float or int8 backend.

    Parameters
    ----------
    model:
        Either a registry name (``"bio1"``, ``"bio2"``, ``"temponet"``) or an
        already constructed/trained :class:`~repro.nn.module.Module`.
    backend:
        ``"float"`` (the traced graph in float, bitwise equal to the
        ``repro.nn`` forward) or ``"int8"`` (the same graph lowered to
        integers, the GAP8 numerics).  The backend is that graph's
        executor; both snapshot the model's weights when they are built.
    patch_size:
        Bioformer front-end filter dimension; forwarded to the registry and
        part of the cache key.  Ignored for TEMPONet; a constructed
        ``Module`` rejects it with ``ValueError``.
    model_kwargs:
        Extra registry arguments (``num_channels``, ``window_samples``,
        ``num_classes``, ``seed``, ...); a constructed ``Module`` rejects
        them with ``ValueError``.
    calibration:
        Representative windows for int8 lowering (``None``: the seeded
        default batch of :func:`~repro.serve.backends.build_int8_backend`);
        a float server rejects them with ``ValueError``.  A digest of their
        bytes, shape and dtype is part of the cache key, so equal windows
        share one backend and different windows get their own.
    lowering:
        The :class:`~repro.deploy.passes.LoweringConfig` of the int8 backend
        (``LoweringConfig()`` when omitted); a float server rejects it with
        ``ValueError``.  The config is part of the cache key too: the
        frozen config itself is the key's lowering entry, so
        omitting it and passing ``LoweringConfig()`` share one cached
        backend and different configs are cached side by side.
    max_batch_size:
        Micro-batch cap (see :class:`~repro.serve.batcher.DynamicBatcher`).
    num_workers:
        Forming threads of the batcher, each executing the micro-batches
        it forms, so ``N`` batches run concurrently (both backends release
        the GIL in their BLAS kernels).  ``> 1`` supervises them: a crashed
        former is replaced (see :class:`~repro.serve.batcher.DynamicBatcher`).
    cache:
        Backend cache to use; defaults to the process-wide cache.  Models
        passed as live ``Module`` objects are cached per object identity.
    job_timeout_s:
        Soft per-batch timeout: a batch stuck past this budget fails with
        :class:`~repro.serve.faults.BackendTimeout` and its former is
        abandoned and replaced.  Requires ``num_workers > 1``; a single
        former rejects it with ``ValueError``.
    retry_policy:
        Optional :class:`~repro.serve.faults.RetryPolicy`.  Retryable
        backend faults (and non-finite logits) are re-attempted with
        deterministic backoff — but never past the earliest deadline in
        the batch.  ``None`` (default) disables retries.
    circuit_breaker:
        ``True`` for a default :class:`~repro.serve.faults.CircuitBreaker`,
        or a preconfigured instance (e.g. with a custom clock or error-rate
        threshold).  ``None``/``False`` (default) disables breaking.
    fallback:
        ``True`` (int8 backend only) builds the float backend of the same
        model as a degradation target: when the int8 circuit is open or
        retries are exhausted, requests are answered by the float backend
        instead of failing, flagged as
        :class:`~repro.serve.faults.DegradedLogits`.
    max_queue_depth:
        Admission-control bound forwarded to the batcher: beyond this many
        queued requests, LOW-priority traffic is shed first and
        outranked submissions are rejected with
        :class:`~repro.serve.faults.Overloaded` instead of queueing
        without bound.
    backend_wrapper:
        Callable applied to the constructed backend before serving —
        the seam the fault-injection harness uses
        (``backend_wrapper=lambda b: FaultInjectingBackend(b, schedule)``).
        The wrapper is private to this server; the cache keeps the clean
        backend.
    """

    def __init__(
        self,
        model: Union[str, Module],
        backend: str = "float",
        *,
        patch_size: Optional[int] = None,
        model_kwargs: Optional[Dict] = None,
        calibration: Optional[np.ndarray] = None,
        max_batch_size: int = 16,
        num_workers: int = 1,
        cache: Optional[BackendCache] = None,
        lowering: Optional[LoweringConfig] = None,
        job_timeout_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        circuit_breaker: Union[CircuitBreaker, bool, None] = None,
        fallback: bool = False,
        max_queue_depth: Optional[int] = None,
        backend_wrapper: Optional[Callable[[Backend], Backend]] = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got '{backend}'")
        if fallback and backend != "int8":
            raise ValueError("fallback degradation requires backend='int8'")
        if lowering is not None and backend != "int8":
            raise ValueError("a lowering config requires backend='int8'")
        if calibration is not None and backend != "int8":
            raise ValueError("calibration windows require backend='int8'")
        self.backend_name = backend
        self.cache = cache if cache is not None else get_default_cache()
        model_kwargs = dict(model_kwargs or {})
        if patch_size is not None:
            model_kwargs["patch_size"] = patch_size
        if isinstance(model, str):
            self.architecture = model.lower()
            identity: Tuple = model_cache_key(model, **model_kwargs)
        elif model_kwargs:
            raise ValueError("patch_size and model_kwargs apply to registry names, not to a Module")
        else:
            self.architecture = getattr(model, "name", type(model).__name__)
            # Key on the module object itself (identity hash): holding it in
            # the cache key pins the model alive, so a recycled id() can
            # never alias a dead model's cached backend.
            identity = ("module", model)

        def build(kind: str) -> Backend:
            built = model if isinstance(model, Module) else build_model(model, **model_kwargs)
            if kind == "float":
                return build_float_backend(built)
            return build_int8_backend(built, calibration, config=lowering)

        # The lowering config and the calibration windows both change the
        # served numerics, so both are part of the cache identity: the
        # frozen config itself, and a digest of the windows.
        lowering_variant: object = ()
        if backend == "int8":
            lowering_variant = lowering if lowering is not None else LoweringConfig()
        self.cache_key = (identity, backend, lowering_variant, _calibration_key(calibration))
        self.backend: Backend = self.cache.get_or_build(self.cache_key, lambda: build(backend))
        # The dispatch target: the cached backend, optionally wrapped (the
        # wrapper — e.g. a FaultInjectingBackend — stays private to this
        # server; the cache keeps the clean backend).
        self._primary: Backend = (
            backend_wrapper(self.backend) if backend_wrapper is not None else self.backend
        )
        self._fallback: Optional[Backend] = (
            self.cache.get_or_build((identity, "float", (), None), lambda: build("float"))
            if fallback
            else None
        )
        self.retry_policy = retry_policy
        if circuit_breaker is True:
            self.breaker: Optional[CircuitBreaker] = CircuitBreaker(
                name=f"{self.architecture}-{backend}"
            )
        elif isinstance(circuit_breaker, CircuitBreaker):
            self.breaker = circuit_breaker
        else:
            self.breaker = None
        self.metrics = MetricsRegistry("server_retries", "server_degraded")
        self._session_manager = None
        self.batcher = DynamicBatcher(
            self._run_batch,
            max_batch_size=max_batch_size,
            name=f"{self.architecture}-{backend}",
            input_shape=self.backend.input_shape,
            num_workers=num_workers,
            max_queue_depth=max_queue_depth,
            job_timeout_s=job_timeout_s,
        )

    # ------------------------------------------------------------------ #
    # Fault-tolerant dispatch (runs on the batcher's forming threads)
    # ------------------------------------------------------------------ #
    def _run_batch(
        self, stacked: np.ndarray, deadline: Optional[float] = None
    ) -> np.ndarray:
        """Execute one micro-batch with retry/breaker/degradation semantics.

        ``deadline`` is the earliest absolute deadline among the batch's
        requests (from the batcher) — retries never sleep past it.
        """
        breaker = self.breaker
        policy = self.retry_policy
        if breaker is not None and not breaker.allow():
            return self._degrade_or_raise(
                stacked,
                CircuitOpen(
                    f"{self.architecture}-{self.backend_name}: circuit open, "
                    f"call not attempted"
                ),
            )
        attempts = 0
        while True:
            attempts += 1
            try:
                out = np.asarray(self._primary.run(stacked), dtype=np.float64)
                if not np.all(np.isfinite(out)):
                    raise BackendError(
                        f"{self.backend_name} backend produced non-finite logits",
                        retryable=True,
                    )
            except BaseException as error:  # noqa: BLE001 — classified below
                if breaker is not None:
                    breaker.record_failure()
                if isinstance(error, WorkerCrash):
                    # A crash takes the executing thread down with it — a
                    # retry loop running *on* that thread would not survive
                    # a real native crash, so propagate immediately: the
                    # batcher resolves the batch's futures with the typed
                    # error and, with num_workers > 1, lets the former die
                    # for supervision to replace.
                    raise
                if isinstance(error, ServingError):
                    wrapped: BaseException = error
                elif isinstance(error, TimeoutError):
                    wrapped = BackendError(str(error), retryable=True)
                    wrapped.__cause__ = error
                else:
                    wrapped = BackendError(
                        f"{type(error).__name__}: {error}", retryable=False
                    )
                    wrapped.__cause__ = error
                retry = (
                    policy is not None
                    and attempts < policy.max_attempts
                    and policy.retryable(wrapped)
                )
                delay = policy.delay_s(attempts) if retry else 0.0
                if retry and deadline is not None and time.monotonic() + delay >= deadline:
                    retry = False  # the batch cannot make its deadline anyway
                if not retry:
                    if policy is not None and attempts > 1:
                        wrapped = RetryExhausted(
                            f"{attempts} attempt(s) failed; last: {wrapped}",
                            last_error=wrapped,
                            attempts=attempts,
                        )
                    return self._degrade_or_raise(stacked, wrapped)
                self.metrics.inc("server_retries")
                time.sleep(delay)
            else:
                if breaker is not None:
                    breaker.record_success()
                return out

    def _degrade_or_raise(
        self, stacked: np.ndarray, error: BaseException
    ) -> np.ndarray:
        """Answer from the fallback backend, or raise the typed error."""
        if self._fallback is None:
            raise error
        out = np.asarray(self._fallback.run(stacked), dtype=np.float64)
        self.metrics.inc("server_degraded", int(stacked.shape[0]))
        return DegradedLogits.wrap(out)

    # ------------------------------------------------------------------ #
    # Input validation
    # ------------------------------------------------------------------ #
    def _validate_window(self, window: np.ndarray) -> np.ndarray:
        """Admission-time validation: dtype, geometry, finiteness."""
        arr = np.asarray(window)
        if arr.dtype == object or not np.can_cast(arr.dtype, np.float64):
            raise ValueError(
                f"window dtype {arr.dtype} cannot be safely cast to float64"
            )
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != self.input_shape:
            channels = self.input_shape[0]
            if arr.ndim == 2 and arr.shape[0] != channels:
                raise ValueError(
                    f"window has {arr.shape[0]} channel(s), expected {channels}: "
                    f"expected a window of shape {self.input_shape}, got {arr.shape}"
                )
            raise ValueError(
                f"expected a window of shape {self.input_shape}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(
                "window contains non-finite (NaN/Inf) samples; refusing to "
                "quantize/classify it"
            )
        return arr

    # ------------------------------------------------------------------ #
    # Inference API
    # ------------------------------------------------------------------ #
    @property
    def input_shape(self) -> Tuple[int, int]:
        """Expected per-window shape ``(channels, samples)``."""
        return self.backend.input_shape

    @property
    def num_classes(self) -> int:
        """Number of gesture classes in the logits."""
        return self.backend.num_classes

    def submit(
        self,
        window: np.ndarray,
        priority: int = Priority.NORMAL,
        deadline_s: Optional[float] = None,
    ) -> Future:
        """Asynchronously classify one ``(channels, samples)`` window.

        Returns a future resolving to the ``(num_classes,)`` logits row.
        ``priority`` orders batch formation (lower first); a request still
        queued after ``deadline_s`` seconds resolves with
        :class:`~repro.serve.pool.DeadlineExceeded`.  Invalid input —
        wrong geometry, a dtype that cannot cast safely to float64, or
        non-finite samples — raises ``ValueError`` here, before the
        request reaches the queue or the quantizer.  Under admission
        control a full queue raises
        :class:`~repro.serve.faults.Overloaded` synchronously.
        """
        window = self._validate_window(window)
        return self.batcher.submit(window, priority=priority, deadline_s=deadline_s)

    def infer_async(
        self,
        windows: Sequence[np.ndarray],
        priority: int = Priority.LOW,
        deadline_s: Optional[float] = None,
    ) -> List[Future]:
        """Submit ``windows`` without blocking; one future per window.

        The bulk-scoring companion of :meth:`submit`: defaults to
        :data:`Priority.LOW` so queued bulk work yields to live streams.
        Consume in submission order by iterating, or in completion order
        via :meth:`as_completed`.  Every window passes the same admission
        validation as :meth:`submit`.
        """
        stacked = np.asanyarray(windows)
        if stacked.dtype != object and stacked.ndim == 2:
            stacked = stacked[None, ...]
        return [
            self.submit(window, priority=priority, deadline_s=deadline_s)
            for window in stacked
        ]

    @staticmethod
    def as_completed(
        futures: Iterable[Future], timeout: Optional[float] = None
    ) -> Iterator[Future]:
        """Yield ``futures`` as they finish (``concurrent.futures`` order)."""
        return _as_completed(futures, timeout=timeout)

    def infer(
        self,
        windows: Sequence[np.ndarray],
        timeout: Optional[float] = 60.0,
        priority: int = Priority.LOW,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Classify windows through the micro-batching path; returns logits.

        ``windows`` is ``(batch, channels, samples)`` (or a sequence of
        single windows); the result preserves input order.  Zero windows is
        a valid workload and yields an empty ``(0, num_classes)`` result.
        """
        stacked = np.asanyarray(windows)
        if len(stacked) == 0:
            return np.empty((0, self.num_classes), dtype=np.float64)
        futures = self.infer_async(stacked, priority=priority, deadline_s=deadline_s)
        rows = [future.result(timeout=timeout) for future in futures]
        out = np.stack(rows)
        if any(getattr(row, "degraded", False) for row in rows):
            # np.stack drops ndarray subclasses; restore the fallback flag
            # if any row was answered by the degraded path.
            out = DegradedLogits.wrap(out)
        return out

    def predict(
        self,
        windows: Sequence[np.ndarray],
        timeout: Optional[float] = 60.0,
        priority: int = Priority.LOW,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Class indices for ``windows`` (micro-batched, order preserving)."""
        logits = self.infer(windows, timeout=timeout, priority=priority, deadline_s=deadline_s)
        return np.argmax(logits, axis=-1)

    def open_stream(
        self,
        slide: int,
        *,
        smoothing: int = 5,
        preprocessor: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        priority: int = Priority.HIGH,
        deadline_s: Optional[float] = None,
    ) -> StreamSession:
        """A :class:`StreamSession` classifying through this server.

        Stream windows classify at ``priority`` (default
        :data:`Priority.HIGH`) so a live session's traffic is batched ahead
        of queued bulk :meth:`infer` scoring.
        """
        channels, samples = self.input_shape

        def classify(windows: np.ndarray) -> np.ndarray:
            return self.predict(windows, priority=priority, deadline_s=deadline_s)

        return StreamSession(
            classify,
            window=samples,
            slide=slide,
            num_channels=channels,
            preprocessor=preprocessor,
            smoothing=smoothing,
        )

    def open_session_manager(self, **kwargs) -> SessionManager:
        """A :class:`~repro.serve.sessions.SessionManager` over this server.

        The fleet layer above :meth:`open_stream`: managed sessions get
        ids, idle-TTL reaping, per-tenant quotas/eviction and bitwise
        checkpoint/restore (see :mod:`repro.serve.sessions`).  The
        manager's ``sessions_*`` series join :attr:`stats`, and
        :meth:`close` drains it (settling in-flight chunks and
        tombstoning final checkpoints) before the batcher stops.  At most
        one live manager per server.
        """
        return SessionManager(self, **kwargs)

    def _attach_session_manager(self, manager) -> None:
        """Register ``manager`` as this server's session owner."""
        if self._session_manager is not None and not self._session_manager.closed:
            raise RuntimeError(
                "this server already has a live session manager; close it first"
            )
        self._session_manager = manager

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        """Forming threads, each executing the batches it forms."""
        return self.batcher.num_workers

    @property
    def stats(self) -> ServerStats:
        """The server's one snapshot (see :class:`ServerStats`)."""
        parts = (self, self.batcher, self.breaker, self._session_manager)
        return ServerStats.merge(
            *(part.metrics.snapshot() for part in parts if part is not None)
        )

    def close(self) -> None:
        """Drain pending requests and stop the batcher's formers.

        An attached session manager is drained *first* — its in-flight
        chunks still need the batcher — so every managed session settles
        and leaves a final checkpoint before serving stops.
        """
        if self._session_manager is not None:
            self._session_manager.close()
        self.batcher.close()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"InferenceServer(architecture='{self.architecture}', "
            f"backend='{self.backend_name}', input={self.input_shape}, "
            f"workers={self.num_workers})"
        )
