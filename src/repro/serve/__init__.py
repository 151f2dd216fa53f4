"""``repro.serve`` — streaming inference service with priority-aware
multi-worker micro-batching.

The deployment toolchain (:mod:`repro.deploy`) produces models that run on
an MCU; this package serves the same models as an online service, which is
the other half of the paper's real-time scenario and the seam every later
scaling PR (sharding, remote backends) plugs into:

* :mod:`repro.serve.backends` — the :class:`Backend` protocol, which the
  deploy toolchain's float and integer graph executors satisfy as they
  stand, and :func:`build_float_backend` / :func:`build_int8_backend`,
  which trace (and lower) a model to one of them;
* :mod:`repro.serve.pool` — the request model (:class:`Priority`,
  :class:`DeadlineExceeded`);
* :mod:`repro.serve.batcher` — :class:`DynamicBatcher`, aggregating
  concurrent single-window requests into bounded micro-batches from a
  priority queue (high-priority streams preempt queued bulk scoring,
  expired requests resolve with :class:`DeadlineExceeded`, and one
  malformed request can never poison its batch-mates); ``num_workers``
  supervised forming threads each run the batches they form;
* :mod:`repro.serve.stream` — :class:`StreamSession`, raw-signal streaming
  with overlapping windows and majority-vote label smoothing;
* :mod:`repro.serve.sessions` — :class:`SessionManager`, the fleet layer
  owning every live session: lifecycle by session id, idle-TTL reaping,
  per-tenant quotas and eviction, versioned bitwise
  :class:`SessionCheckpoint` snapshots, and degraded-electrode masking
  in :class:`ManagedSession`, a :class:`StreamSession` subclass; close,
  reaping, eviction and drain share one retire path;
* :mod:`repro.serve.server` — the :class:`InferenceServer` facade
  (sync ``infer``/``predict``, async ``submit``/``infer_async``/
  ``as_completed``, high-priority ``open_stream``,
  ``open_session_manager``) and the process-wide backend cache;
* :mod:`repro.serve.metrics` — :class:`MetricsRegistry`, the labelled
  counters and gauges every component above reports through, and
  :class:`Snapshot`, the one immutable type each ``.stats`` returns;
  ``server.stats`` is a :class:`ServerStats`, the snapshot of the server
  and all its parts merged, with ``requests``, ``batches`` and a coarse
  ``status``.
"""

from .backends import Backend, Int8Backend, build_float_backend, build_int8_backend
from .batcher import DynamicBatcher
from .faults import (
    BackendError,
    BackendTimeout,
    CircuitBreaker,
    CircuitOpen,
    DegradedLogits,
    FaultInjectingBackend,
    Hang,
    InjectError,
    LatencySpike,
    NaNOutput,
    Overloaded,
    QuotaExceeded,
    RetryExhausted,
    RetryPolicy,
    ServingError,
    SessionEvicted,
    WorkerCrash,
)
from .metrics import MetricsRegistry, Snapshot
from .pool import DeadlineExceeded, Priority
from .server import BackendCache, InferenceServer, ServerStats, get_default_cache
from .sessions import (
    SESSION_CHECKPOINT_VERSION,
    ManagedSession,
    SessionCheckpoint,
    SessionManager,
    restore_stream_session,
)
from .stream import MajorityVoter, StreamDecision, StreamSession

__all__ = [
    "Backend",
    "Int8Backend",
    "build_float_backend",
    "build_int8_backend",
    "DynamicBatcher",
    "MetricsRegistry",
    "Snapshot",
    "DeadlineExceeded",
    "Priority",
    "BackendCache",
    "InferenceServer",
    "ServerStats",
    "get_default_cache",
    "MajorityVoter",
    "StreamDecision",
    "StreamSession",
    "SESSION_CHECKPOINT_VERSION",
    "ManagedSession",
    "SessionCheckpoint",
    "SessionManager",
    "restore_stream_session",
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
