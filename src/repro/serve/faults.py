"""Fault-tolerance primitives for the serving stack.

The serving tier is meant to run continuously at the edge: a hung backend,
a crashed worker thread, a burst of malformed traffic or a slow consumer
must degrade service *predictably* instead of silently eating capacity.
This module supplies the substrate every resilience feature builds on:

* a **typed error taxonomy** (:class:`ServingError` and subclasses) so
  callers can distinguish "the backend broke" (:class:`BackendError`),
  "the service refused the request" (:class:`Overloaded`), "we gave up
  after retrying" (:class:`RetryExhausted`) and "the breaker is open"
  (:class:`CircuitOpen`) without string-matching messages;
* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic* jitter (seeded, so a retry schedule is reproducible in
  tests), applied only to retryable faults and only while the request's
  deadline still has room;
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, tripping on consecutive failures or on the error rate over a
  sliding outcome window, with an injectable clock for deterministic tests;
* :class:`FaultInjectingBackend` — a :class:`~repro.serve.backends.Backend`
  wrapper that injects latency spikes, typed exceptions, hangs, worker
  crashes and NaN outputs by a *seeded schedule*, so every resilience
  feature above is testable without real flaky hardware.

A server merges its breaker's ``stats`` into its one snapshot,
``InferenceServer.stats``.

Everything here is engine-agnostic: nothing imports the batcher, the pool
or the server, so those layers can import freely from this module.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .metrics import MetricsRegistry, Snapshot

__all__ = [
    "BackendError",
    "BackendTimeout",
    "CircuitBreaker",
    "CircuitOpen",
    "DegradedLogits",
    "FaultInjectingBackend",
    "Hang",
    "InjectError",
    "LatencySpike",
    "NaNOutput",
    "Overloaded",
    "QuotaExceeded",
    "RetryExhausted",
    "RetryPolicy",
    "ServingError",
    "SessionEvicted",
    "WorkerCrash",
]


# --------------------------------------------------------------------- #
# Error taxonomy
# --------------------------------------------------------------------- #
class ServingError(RuntimeError):
    """Base class of every typed serving-tier failure."""


class BackendError(ServingError):
    """The backend failed to produce logits for a batch.

    ``retryable`` tells the dispatch path whether re-running the same
    batch can plausibly succeed (a transient glitch) or not (a
    deterministic bug — retrying would just burn the deadline).
    """

    def __init__(self, message: str, *, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = bool(retryable)


class BackendTimeout(BackendError, TimeoutError):
    """A backend call exceeded its soft timeout (the job was abandoned).

    The stuck thread cannot be killed, only abandoned: the pool fails the
    job's future with this error and respawns a replacement worker, and
    the late result (if the thread ever unsticks) is discarded.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, retryable=True)


class WorkerCrash(BackendError):
    """A fault that takes the whole worker thread down with it.

    Emulates a segfaulting native kernel: the pool fails the job's future
    and lets the thread die, relying on supervision to respawn it.  Marked
    retryable — a respawned worker can serve the retried batch.
    """

    def __init__(self, message: str = "worker crashed") -> None:
        super().__init__(message, retryable=True)


class Overloaded(ServingError):
    """The service refused the request to protect itself.

    Raised synchronously at submission (fast rejection) or delivered
    through a queued request's future when it is shed to make room for
    higher-priority traffic.  Clients should back off, not retry hot.
    """


class RetryExhausted(ServingError):
    """Every permitted retry attempt failed; carries the last error."""

    def __init__(self, message: str, last_error: Optional[BaseException] = None, attempts: int = 0) -> None:
        super().__init__(message)
        self.last_error = last_error
        self.attempts = int(attempts)


class CircuitOpen(ServingError):
    """The backend's circuit breaker is open — the call was not attempted."""


class QuotaExceeded(ServingError):
    """A tenant's quota refused the operation (session count or samples/s).

    ``tenant`` names the tenant whose budget was exhausted and ``quota``
    the budget itself (``"sessions"`` or ``"samples_per_s"``), so a
    multi-tenant client can tell "open fewer sessions" apart from "slow
    down" without string-matching the message.
    """

    def __init__(
        self, message: str, *, tenant: Optional[str] = None, quota: str = ""
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.quota = quota


class SessionEvicted(ServingError):
    """The managed session no longer exists — it was reaped or evicted.

    Raised by every operation on a session the manager has taken away
    (idle-TTL reaping, memory-pressure eviction, drain).  ``reason`` is
    ``"idle"``, ``"pressure"`` or ``"drain"``; the manager keeps the
    session's final :class:`~repro.serve.sessions.SessionCheckpoint`, so
    an evicted session's state is recoverable, never lost.
    """

    def __init__(
        self, message: str, *, session_id: Optional[str] = None, reason: str = ""
    ) -> None:
        super().__init__(message)
        self.session_id = session_id
        self.reason = reason


# --------------------------------------------------------------------- #
# Degradation flag
# --------------------------------------------------------------------- #
class DegradedLogits(np.ndarray):
    """Logits produced by the *fallback* backend, not the requested one.

    An ndarray subclass so the flag survives stacking-free row handout:
    slicing a ``DegradedLogits`` batch yields ``DegradedLogits`` rows, and
    ``getattr(result, "degraded", False)`` identifies a degraded answer
    without changing any numeric behaviour.
    """

    degraded = True

    @classmethod
    def wrap(cls, array: np.ndarray) -> "DegradedLogits":
        return np.asarray(array).view(cls)


# --------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts *total* tries (1 = no retry).  The delay before
    retry ``k`` (k = 1 for the first retry) is::

        min(max_delay_s, base_delay_s * multiplier**(k - 1)) * jitter_factor

    where ``jitter_factor`` is drawn deterministically from ``seed`` and
    the attempt index, uniform in ``[1 - jitter, 1]`` — the schedule is
    reproducible run to run, yet concurrent retry storms still decorrelate
    when callers use distinct seeds.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    max_delay_s: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is worth retrying at all."""
        if isinstance(error, BackendError):
            return error.retryable
        return isinstance(error, TimeoutError)

    def delay_s(self, retry_index: int) -> float:
        """Deterministic backoff before retry ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        base = min(self.max_delay_s, self.base_delay_s * self.multiplier ** (retry_index - 1))
        if self.jitter == 0.0:
            return base
        fraction = np.random.default_rng((self.seed, retry_index)).random()
        return base * (1.0 - self.jitter * fraction)


# --------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------- #
class CircuitBreaker:
    """Closed → open → half-open breaker guarding one backend.

    * **closed** — calls flow; failures are counted.  The breaker trips
      (opens) after ``failure_threshold`` *consecutive* failures, or when
      the error rate over the last ``window`` outcomes reaches
      ``error_rate_threshold`` (once the window is full).
    * **open** — :meth:`allow` refuses every call for ``recovery_s``
      seconds, then transitions to half-open.
    * **half-open** — up to ``half_open_max`` probe calls are allowed
      through; one success closes the breaker, one failure re-opens it
      (restarting the recovery clock).

    ``clock`` is injectable so the state machine is testable without real
    sleeps.  All methods are thread-safe.

    ``stats`` is a :class:`~repro.serve.metrics.Snapshot` of ``metrics``:
    ``breaker_successes``, ``breaker_failures``, ``breaker_opened`` (trips),
    ``breaker_rejected`` (calls refused) and the gauges
    ``breaker_state{state}`` (1 for the current state),
    ``breaker_consecutive_failures`` and ``breaker_window_error_rate``.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        name: str = "backend",
        *,
        failure_threshold: int = 5,
        error_rate_threshold: Optional[float] = None,
        window: int = 20,
        recovery_s: float = 1.0,
        half_open_max: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if error_rate_threshold is not None and not 0.0 < error_rate_threshold <= 1.0:
            raise ValueError("error_rate_threshold must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        if recovery_s < 0:
            raise ValueError("recovery_s must be >= 0")
        if half_open_max < 1:
            raise ValueError("half_open_max must be >= 1")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.error_rate_threshold = error_rate_threshold
        self.window = int(window)
        self.recovery_s = float(recovery_s)
        self.half_open_max = int(half_open_max)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=self.window)  # True = failure
        self._consecutive = 0
        self._opened_at = 0.0
        self._half_open_inflight = 0
        self.metrics = MetricsRegistry(
            "breaker_successes", "breaker_failures", "breaker_opened", "breaker_rejected"
        )
        self.metrics.gauge("breaker_state", lambda: {self.state: 1}, label="state")
        self.metrics.gauge("breaker_consecutive_failures", lambda: self._consecutive)
        self.metrics.gauge("breaker_window_error_rate", self._window_error_rate)

    # -- state machine ------------------------------------------------- #
    def allow(self) -> bool:
        """Whether a call may proceed right now (may transition the state)."""
        with self._lock:
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.recovery_s:
                    self._state = self.HALF_OPEN
                    self._half_open_inflight = 0
                else:
                    self.metrics.inc("breaker_rejected")
                    return False
            if self._state == self.HALF_OPEN:
                if self._half_open_inflight >= self.half_open_max:
                    self.metrics.inc("breaker_rejected")
                    return False
                self._half_open_inflight += 1
            return True

    def record_success(self) -> None:
        """Report a successful call (closes a half-open breaker)."""
        with self._lock:
            self.metrics.inc("breaker_successes")
            self._consecutive = 0
            self._outcomes.append(False)
            if self._state == self.HALF_OPEN:
                self._state = self.CLOSED
                self._half_open_inflight = 0

    def record_failure(self) -> None:
        """Report a failed call (may trip the breaker)."""
        with self._lock:
            self.metrics.inc("breaker_failures")
            self._consecutive += 1
            self._outcomes.append(True)
            if self._state == self.HALF_OPEN:
                self._trip()
                return
            if self._state != self.CLOSED:
                return
            rate_tripped = (
                self.error_rate_threshold is not None
                and len(self._outcomes) == self.window
                and sum(self._outcomes) / self.window >= self.error_rate_threshold
            )
            if self._consecutive >= self.failure_threshold or rate_tripped:
                self._trip()

    def _trip(self) -> None:
        self._state = self.OPEN
        self.metrics.inc("breaker_opened")
        self._opened_at = self._clock()
        self._half_open_inflight = 0

    # -- introspection ------------------------------------------------- #
    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed recovery timeout."""
        with self._lock:
            if self._state == self.OPEN and self._clock() - self._opened_at >= self.recovery_s:
                return self.HALF_OPEN
            return self._state

    @property
    def stats(self) -> Snapshot:
        """An immutable snapshot of :attr:`metrics`."""
        return self.metrics.snapshot()

    def _window_error_rate(self) -> float:
        """Failure share of the outcome window (0 while it is empty)."""
        with self._lock:
            total = len(self._outcomes)
            return sum(self._outcomes) / total if total else 0.0

    def __repr__(self) -> str:
        return f"CircuitBreaker(name='{self.name}', state='{self.state}')"


# --------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LatencySpike:
    """Sleep ``seconds`` before serving the call normally."""

    seconds: float


@dataclass(frozen=True)
class Hang:
    """Stall ``seconds`` *inside* the backend, then serve the call.

    Models an unresponsive device/driver: with a pool soft timeout shorter
    than ``seconds`` the job is abandoned and the eventual late result is
    discarded, which is exactly the production behaviour under test.
    """

    seconds: float


@dataclass(frozen=True)
class InjectError:
    """Raise a typed error instead of serving the call.

    ``crash=True`` raises :class:`WorkerCrash`, which the pool treats as
    thread-fatal (the worker dies and must be respawned); otherwise a
    plain :class:`BackendError` with the given ``retryable`` flag.
    """

    message: str = "injected backend error"
    retryable: bool = True
    crash: bool = False


@dataclass(frozen=True)
class NaNOutput:
    """Serve the call but replace the logits with non-finite values."""

    value: float = float("nan")


Fault = Union[LatencySpike, Hang, InjectError, NaNOutput]


class FaultInjectingBackend:
    """A backend wrapper that injects faults on a deterministic schedule.

    ``schedule`` maps the 0-based *call index* of :meth:`run` to a fault
    (calls past the end of a sequence schedule, or absent from a mapping
    schedule, run clean).  Build one explicitly for scripted scenarios, or
    with :meth:`from_rates` for a seeded pseudo-random soak.

    The wrapper is itself a valid :class:`~repro.serve.backends.Backend`,
    so it drops into :class:`~repro.serve.server.InferenceServer` via the
    ``backend_wrapper`` hook and into any test harness that talks the
    protocol.  ``injected`` records ``(call_index, fault)`` for every fault
    actually delivered, so tests can assert the schedule fired.
    """

    def __init__(
        self,
        inner,
        schedule: Union[Sequence[Optional[Fault]], Mapping[int, Fault], None] = None,
    ) -> None:
        self.inner = inner
        self.name = f"faulty-{getattr(inner, 'name', type(inner).__name__)}"
        if schedule is None:
            self._schedule: Dict[int, Fault] = {}
        elif isinstance(schedule, Mapping):
            self._schedule = {int(k): v for k, v in schedule.items() if v is not None}
        else:
            self._schedule = {
                i: fault for i, fault in enumerate(schedule) if fault is not None
            }
        self._lock = threading.Lock()
        self._calls = 0
        self.injected: List[Tuple[int, Fault]] = []

    @classmethod
    def from_rates(
        cls,
        inner,
        *,
        seed: int = 0,
        calls: int = 256,
        latency_rate: float = 0.0,
        latency_s: float = 0.01,
        error_rate: float = 0.0,
        hang_rate: float = 0.0,
        hang_s: float = 0.25,
        crash_rate: float = 0.0,
        nan_rate: float = 0.0,
    ) -> "FaultInjectingBackend":
        """A seeded pseudo-random schedule over the next ``calls`` calls.

        Rates are independent per call, checked in the order latency →
        hang → crash → error → NaN (first match wins), so the same seed
        always yields the same fault sequence.
        """
        rng = np.random.default_rng(seed)
        schedule: Dict[int, Fault] = {}
        for index in range(calls):
            draws = rng.random(5)
            if draws[0] < latency_rate:
                schedule[index] = LatencySpike(latency_s)
            elif draws[1] < hang_rate:
                schedule[index] = Hang(hang_s)
            elif draws[2] < crash_rate:
                schedule[index] = InjectError(crash=True, message="injected crash")
            elif draws[3] < error_rate:
                schedule[index] = InjectError()
            elif draws[4] < nan_rate:
                schedule[index] = NaNOutput()
        return cls(inner, schedule)

    # -- Backend protocol ---------------------------------------------- #
    @property
    def input_shape(self) -> Tuple[int, int]:
        """Expected per-window shape ``(channels, samples)`` (delegated)."""
        return self.inner.input_shape

    @property
    def num_classes(self) -> int:
        """Number of gesture classes in the logits (delegated)."""
        return self.inner.num_classes

    @property
    def calls(self) -> int:
        """How many times :meth:`run` has been invoked so far."""
        with self._lock:
            return self._calls

    def run(self, windows: np.ndarray) -> np.ndarray:
        """Serve the batch, injecting this call's scheduled fault (if any)."""
        with self._lock:
            index = self._calls
            self._calls += 1
            fault = self._schedule.get(index)
            if fault is not None:
                self.injected.append((index, fault))
        if fault is None:
            return self.inner.run(windows)
        if isinstance(fault, LatencySpike):
            time.sleep(fault.seconds)
            return self.inner.run(windows)
        if isinstance(fault, Hang):
            time.sleep(fault.seconds)
            return self.inner.run(windows)
        if isinstance(fault, InjectError):
            if fault.crash:
                raise WorkerCrash(fault.message)
            raise BackendError(fault.message, retryable=fault.retryable)
        if isinstance(fault, NaNOutput):
            out = np.array(self.inner.run(windows), dtype=np.float64, copy=True)
            out[...] = fault.value
            return out
        raise TypeError(f"unknown fault type: {type(fault).__name__}")

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Class indices (argmax over :meth:`run`, faults included)."""
        return np.argmax(self.run(windows), axis=-1)

    def __repr__(self) -> str:
        return (
            f"FaultInjectingBackend({self.name}, "
            f"{len(self._schedule)} scheduled fault(s), calls={self.calls})"
        )
