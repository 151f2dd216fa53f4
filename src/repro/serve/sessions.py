"""Fleet-scale session lifecycle: ownership, quotas, checkpoints, reaping.

The paper's deployment target is a continuously worn prosthesis
controller: a :class:`~repro.serve.stream.StreamSession` must survive
hours of raw sEMG, electrode dropout and client hiccups without losing
its majority-vote state.  A raw ``StreamSession`` is a single hand-held
object with no lifecycle; this module adds the fleet layer above it:

* :class:`SessionManager` — owns every live session opened through an
  :class:`~repro.serve.server.InferenceServer` (or a bare classifier),
  with create/attach/detach/close by session id, idle-TTL reaping by a
  janitor thread (injectable clock), and graceful :meth:`~SessionManager.drain`
  that stops admission and settles in-flight chunks before server close;
* **per-tenant robustness** — per-tenant session-count and samples/sec
  (token bucket) quotas raising typed
  :class:`~repro.serve.faults.QuotaExceeded`, LOW-tenant-first eviction
  under memory pressure raising
  :class:`~repro.serve.faults.SessionEvicted`, and frozen
  :class:`TenantStats` / :class:`SessionManagerStats` snapshots surfaced
  through ``server.stats.sessions``;
* :class:`SessionCheckpoint` — a versioned, JSON-serializable snapshot of
  a session's windower remainder, voter history and counters.  The
  restore contract is **bitwise**: a session restored from a mid-stream
  checkpoint emits decisions identical to the uninterrupted session for
  the same tail of signal (the test-suite pins this for every registry
  config, float and int8 backends alike);
* **degraded-signal handling** — per-chunk detection of dead (flatlined)
  or non-finite electrodes, masked to zero in the style of
  :func:`repro.data.augmentation.channel_dropout` so one bad electrode
  cannot poison the majority vote; the affected decisions are flagged
  ``degraded`` (mirroring :class:`~repro.serve.faults.DegradedLogits`).

Lock ordering is strict — a session's lock is always taken *before* the
manager's, never after — so a push settling in-flight work can never
deadlock against the janitor or a drain.

An evicted session's state is never lost: the manager captures a final
checkpoint at eviction time and keeps it in a bounded tombstone map, so
``manager.checkpoint(session_id)`` and :meth:`SessionManager.restore`
work after reaping, pressure eviction and drain alike.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..data.augmentation import CHANNEL_FILL_VALUE
from .faults import Overloaded, QuotaExceeded, SessionEvicted
from .pool import Priority
from .stream import StreamDecision, StreamSession

__all__ = [
    "SESSION_CHECKPOINT_VERSION",
    "ManagedSession",
    "SessionCheckpoint",
    "SessionManager",
    "SessionManagerStats",
    "TenantStats",
    "restore_stream_session",
]

#: Format version written into every checkpoint.  Bump it when the
#: snapshot schema changes shape; readers reject versions they do not
#: understand instead of mis-restoring silently.
SESSION_CHECKPOINT_VERSION = 1


# --------------------------------------------------------------------- #
# Crash-safe state
# --------------------------------------------------------------------- #
@dataclass(frozen=True, eq=False)
class SessionCheckpoint:
    """Versioned snapshot of one stream session's restorable state.

    Captures exactly what the future of the stream depends on: the
    windower's remainder buffer and absolute counters, the voter's label
    window, and the windows-classified count (so a restored session's
    decision indices continue the original stream's numbering).  The
    recorded *decisions* are deliberately not part of the snapshot — they
    are outputs, not state, and the restored session regenerates them.

    ``eq=False`` because the ndarray ``buffer`` field has no useful
    ``==``; compare checkpoints through :meth:`to_payload` instead.
    """

    version: int
    window: int
    slide: int
    num_channels: int
    smoothing: int
    buffer: np.ndarray
    buffer_dtype: str
    base: int
    samples_seen: int
    windows_emitted: int
    voter_recent: Tuple[int, ...]
    windows_classified: int
    session_id: Optional[str] = None
    tenant: Optional[str] = None

    @classmethod
    def capture(
        cls,
        session: StreamSession,
        *,
        session_id: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> "SessionCheckpoint":
        """Snapshot ``session`` (the buffer is copied, never aliased)."""
        wstate = session.windower.state()
        return cls(
            version=SESSION_CHECKPOINT_VERSION,
            window=wstate["window"],
            slide=wstate["slide"],
            num_channels=wstate["num_channels"],
            smoothing=session.voter.history,
            buffer=wstate["buffer"],
            buffer_dtype=wstate["dtype"],
            base=wstate["base"],
            samples_seen=wstate["samples_seen"],
            windows_emitted=wstate["windows_emitted"],
            voter_recent=session.voter.recent,
            windows_classified=session.windows_classified,
            session_id=session_id,
            tenant=tenant,
        )

    def restore_into(self, session: StreamSession) -> StreamSession:
        """Load this snapshot into ``session`` (same geometry required).

        After restoring, pushing the post-checkpoint tail of the signal
        produces decisions bitwise-identical to the uninterrupted run:
        same ``window_index``, same labels, same smoothed labels.
        Geometry or version mismatches raise ``ValueError``.
        """
        if self.version != SESSION_CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported session checkpoint version {self.version} "
                f"(this build reads version {SESSION_CHECKPOINT_VERSION})"
            )
        session.windower.load_state(
            {
                "window": self.window,
                "slide": self.slide,
                "num_channels": self.num_channels,
                "dtype": self.buffer_dtype,
                "buffer": self.buffer,
                "base": self.base,
                "samples_seen": self.samples_seen,
                "windows_emitted": self.windows_emitted,
            }
        )
        session.voter.load_state(
            {"history": self.smoothing, "recent": list(self.voter_recent)}
        )
        session.decisions.clear()
        session._decisions_base = self.windows_classified
        return session

    # -- serialization -------------------------------------------------- #
    def to_payload(self) -> dict:
        """JSON-friendly dict (float64 samples round-trip exactly)."""
        return {
            "version": self.version,
            "window": self.window,
            "slide": self.slide,
            "num_channels": self.num_channels,
            "smoothing": self.smoothing,
            "buffer": np.asarray(self.buffer).tolist(),
            "buffer_dtype": self.buffer_dtype,
            "base": self.base,
            "samples_seen": self.samples_seen,
            "windows_emitted": self.windows_emitted,
            "voter_recent": [int(label) for label in self.voter_recent],
            "windows_classified": self.windows_classified,
            "session_id": self.session_id,
            "tenant": self.tenant,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SessionCheckpoint":
        """Rebuild a checkpoint from :meth:`to_payload` output.

        Unknown format versions are rejected with ``ValueError`` — a
        newer writer's snapshot must not be half-read by an older
        reader.
        """
        version = int(payload["version"])
        if version != SESSION_CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported session checkpoint version {version} "
                f"(this build reads version {SESSION_CHECKPOINT_VERSION})"
            )
        num_channels = int(payload["num_channels"])
        buffer = np.asarray(payload["buffer"], dtype=np.dtype(payload["buffer_dtype"]))
        if buffer.ndim == 1 and buffer.size == 0:
            # An empty (C, 0) buffer loses its channel dimension through
            # nested-list serialization; normalise it back.
            buffer = buffer.reshape(num_channels, 0)
        return cls(
            version=version,
            window=int(payload["window"]),
            slide=int(payload["slide"]),
            num_channels=num_channels,
            smoothing=int(payload["smoothing"]),
            buffer=buffer,
            buffer_dtype=str(payload["buffer_dtype"]),
            base=int(payload["base"]),
            samples_seen=int(payload["samples_seen"]),
            windows_emitted=int(payload["windows_emitted"]),
            voter_recent=tuple(int(label) for label in payload["voter_recent"]),
            windows_classified=int(payload["windows_classified"]),
            session_id=payload.get("session_id"),
            tenant=payload.get("tenant"),
        )

    def to_json(self) -> str:
        """The payload as a JSON string (the durable on-disk form)."""
        return json.dumps(self.to_payload())

    @classmethod
    def from_json(cls, text: str) -> "SessionCheckpoint":
        """Inverse of :meth:`to_json`."""
        return cls.from_payload(json.loads(text))

    def __repr__(self) -> str:
        return (
            f"SessionCheckpoint(v{self.version}, session_id={self.session_id!r}, "
            f"windows_classified={self.windows_classified}, "
            f"samples_seen={self.samples_seen})"
        )


def restore_stream_session(
    checkpoint: SessionCheckpoint,
    classify: Callable[[np.ndarray], np.ndarray],
    *,
    preprocessor: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> StreamSession:
    """Build a fresh :class:`StreamSession` continuing ``checkpoint``.

    The serverless restore path: the caller supplies the classifier (and
    preprocessor — neither is serializable, so checkpoints never carry
    them) and gets back a session whose future decisions are bitwise
    those of the uninterrupted original.
    """
    session = StreamSession(
        classify,
        window=checkpoint.window,
        slide=checkpoint.slide,
        num_channels=checkpoint.num_channels,
        preprocessor=preprocessor,
        smoothing=checkpoint.smoothing,
    )
    checkpoint.restore_into(session)
    return session


# --------------------------------------------------------------------- #
# Stats snapshots
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TenantStats:
    """Immutable per-tenant view of the manager's counters."""

    tenant: str
    priority: int
    sessions_open: int = 0
    sessions_created: int = 0
    sessions_evicted: int = 0
    windows: int = 0
    samples: int = 0
    degraded_windows: int = 0
    quota_rejections: int = 0


@dataclass(frozen=True)
class SessionManagerStats:
    """Immutable fleet-wide view of a :class:`SessionManager`.

    ``sessions_evicted`` counts every involuntary removal (idle reaping +
    pressure eviction + drain); ``reaped_idle`` / ``evicted_pressure``
    break out the first two causes.  ``sessions_closed`` counts graceful
    owner-initiated closes only.
    """

    sessions_open: int
    sessions_created: int = 0
    sessions_closed: int = 0
    sessions_evicted: int = 0
    reaped_idle: int = 0
    evicted_pressure: int = 0
    draining: bool = False
    tenants: Mapping[str, TenantStats] = field(default_factory=dict)


class _Tenant:
    """Mutable per-tenant bookkeeping (guarded by the manager's lock)."""

    __slots__ = (
        "name",
        "priority",
        "max_sessions",
        "samples_per_s",
        "burst_s",
        "tokens",
        "last_refill",
        "sessions_open",
        "sessions_created",
        "sessions_evicted",
        "windows",
        "samples",
        "degraded_windows",
        "quota_rejections",
    )

    def __init__(
        self,
        name: str,
        priority: int,
        max_sessions: Optional[int],
        samples_per_s: Optional[float],
        burst_s: float,
        now: float,
    ) -> None:
        self.name = name
        self.priority = int(priority)
        self.max_sessions = max_sessions
        self.samples_per_s = samples_per_s
        self.burst_s = float(burst_s)
        # The token bucket starts full: a tenant's first chunk after a
        # quiet period is admitted up to the burst budget.
        self.tokens = float(samples_per_s) * self.burst_s if samples_per_s else 0.0
        self.last_refill = now
        self.sessions_open = 0
        self.sessions_created = 0
        self.sessions_evicted = 0
        self.windows = 0
        self.samples = 0
        self.degraded_windows = 0
        self.quota_rejections = 0

    def snapshot(self) -> TenantStats:
        return TenantStats(
            tenant=self.name,
            priority=self.priority,
            sessions_open=self.sessions_open,
            sessions_created=self.sessions_created,
            sessions_evicted=self.sessions_evicted,
            windows=self.windows,
            samples=self.samples,
            degraded_windows=self.degraded_windows,
            quota_rejections=self.quota_rejections,
        )


# --------------------------------------------------------------------- #
# Managed session
# --------------------------------------------------------------------- #
class ManagedSession:
    """A :class:`StreamSession` owned by a :class:`SessionManager`.

    Adds, on top of the raw session: liveness (operations on an evicted
    or closed session raise :class:`~repro.serve.faults.SessionEvicted`
    immediately — they never hang), per-tenant samples/sec quota charging,
    degraded-electrode masking, activity tracking for idle reaping, and
    per-session counters.

    All public methods are thread-safe; ``push`` holds the session's lock
    for the whole chunk, which is what lets eviction and drain *settle*
    in-flight work instead of racing it.
    """

    def __init__(
        self,
        manager: "SessionManager",
        session_id: str,
        tenant: str,
        inner: StreamSession,
        *,
        clock: Callable[[], float],
    ) -> None:
        self._manager = manager
        self.session_id = session_id
        self.tenant = tenant
        self._inner = inner
        self._clock = clock
        self._lock = threading.RLock()
        self.last_active = clock()
        self._state = "active"
        self._evict_reason = ""
        self.windows = 0
        self.samples = 0
        self.degraded_windows = 0

    # -- introspection -------------------------------------------------- #
    @property
    def state(self) -> str:
        """``"active"``, ``"evicted"`` or ``"closed"``."""
        with self._lock:
            return self._state

    @property
    def decisions(self) -> List[StreamDecision]:
        """Decisions recorded since creation (or since restore)."""
        return self._inner.decisions

    @property
    def windower(self):
        """The underlying stream's windower (the evaluation harness reads
        its window/slide geometry to compute per-window ground truth)."""
        return self._inner.windower

    @property
    def current_label(self) -> Optional[int]:
        """The latest smoothed decision (``None`` before the first window)."""
        return self._inner.current_label

    @property
    def samples_seen(self) -> int:
        """Raw samples the underlying stream has ingested."""
        return self._inner.samples_seen

    @property
    def windows_classified(self) -> int:
        """Windows classified over the whole stream (restore-aware)."""
        return self._inner.windows_classified

    def labels(self, smoothed: bool = True) -> np.ndarray:
        """All recorded per-window decisions as an int array."""
        return self._inner.labels(smoothed=smoothed)

    def _ensure_live(self) -> None:
        if self._state == "active":
            return
        reason = self._evict_reason or "closed"
        raise SessionEvicted(
            f"session '{self.session_id}' no longer exists ({reason}); "
            f"restore it from its checkpoint",
            session_id=self.session_id,
            reason=reason,
        )

    # -- streaming ------------------------------------------------------ #
    def push(self, samples: np.ndarray) -> List[StreamDecision]:
        """Ingest a ``(channels, n)`` chunk through the managed pipeline.

        Order of gates: liveness → shape/dtype validation (delegated to
        the raw session so the errors are canonical, and charged to no
        quota) → per-tenant samples/sec quota → degraded-electrode
        detection and masking → windowing/classification/voting.

        Channels that are non-finite anywhere in the chunk, or exactly
        flatlined across a chunk of at least the manager's
        ``dead_channel_min_samples``, are masked to zero (the
        :func:`~repro.data.augmentation.channel_dropout` convention) and
        the chunk's decisions come back flagged ``degraded=True`` —
        mirroring :class:`~repro.serve.faults.DegradedLogits` — instead
        of poisoning the majority vote or being rejected outright.
        """
        with self._lock:
            self._ensure_live()
            chunk = np.asarray(samples)
            expected = self._inner.windower.num_channels
            channels = 1 if chunk.ndim == 1 else (chunk.shape[0] if chunk.ndim == 2 else -1)
            if (
                channels != expected
                or chunk.dtype == object
                or not np.can_cast(chunk.dtype, np.float64)
            ):
                # Malformed chunk: let the raw session raise its canonical
                # ValueError; the quota is not charged for garbage.
                return self._inner.push(chunk)
            chunk = np.atleast_2d(np.asarray(chunk, dtype=np.float64))
            count = chunk.shape[1]
            self._manager._charge_samples(self.tenant, count)
            finite = np.isfinite(chunk)
            bad = ~finite.all(axis=1)
            if count >= self._manager.dead_channel_min_samples:
                bad |= np.ptp(chunk, axis=1) == 0.0
            degraded = bool(bad.any())
            if degraded:
                # Mask to the augmentation pipeline's channel-dropout fill
                # value, so a trained-against-dropout model sees the same
                # signal in production that it saw in training.
                chunk = np.where(bad[:, None], CHANNEL_FILL_VALUE, chunk)
            produced = self._inner.push(chunk)
            if degraded and produced:
                produced = [replace(d, degraded=True) for d in produced]
                self._inner.decisions[-len(produced) :] = produced
            self.windows += len(produced)
            self.samples += count
            if degraded:
                self.degraded_windows += len(produced)
            self.last_active = self._clock()
            self._manager._note_activity(
                self.tenant,
                windows=len(produced),
                samples=count,
                degraded_windows=len(produced) if degraded else 0,
            )
            return produced

    def run(self, signal: np.ndarray, chunk_size: int = 64) -> List[StreamDecision]:
        """Stream a whole ``(channels, samples)`` recording in chunks."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        signal = np.atleast_2d(np.asarray(signal))
        produced: List[StreamDecision] = []
        for start in range(0, signal.shape[-1], chunk_size):
            produced.extend(self.push(signal[:, start : start + chunk_size]))
        return produced

    def checkpoint(self) -> SessionCheckpoint:
        """Snapshot the session's restorable state (works even evicted)."""
        with self._lock:
            return SessionCheckpoint.capture(
                self._inner, session_id=self.session_id, tenant=self.tenant
            )

    def __repr__(self) -> str:
        return (
            f"ManagedSession(id='{self.session_id}', tenant='{self.tenant}', "
            f"state='{self.state}', windows={self.windows})"
        )


# --------------------------------------------------------------------- #
# The manager
# --------------------------------------------------------------------- #
class SessionManager:
    """Owner of every live stream session behind one serving endpoint.

    Construct it with an :class:`~repro.serve.server.InferenceServer`
    (sessions classify through ``server.open_stream`` — the existing
    seam, so streams keep their HIGH batching priority), or serverless
    with ``classify``/``window``/``num_channels`` for tests and embedded
    use.  ``InferenceServer.open_session_manager`` is the convenience
    constructor; a server-attached manager surfaces its stats through
    ``server.stats.sessions`` and is drained by ``server.close()``.

    Parameters
    ----------
    slide:
        Default sliding-window slide for new sessions (overridable per
        ``create_session`` call).
    smoothing / preprocessor:
        Defaults forwarded to each new session.
    max_sessions:
        Fleet-wide session cap.  When full, admission evicts the least
        recently active session of a *strictly lower-priority* tenant
        (numerically larger :class:`~repro.serve.pool.Priority`); if no
        such victim exists the create fails with
        :class:`~repro.serve.faults.QuotaExceeded`.
    max_sessions_per_tenant / samples_per_s / burst_s:
        Default per-tenant quotas (see :meth:`configure_tenant`).  The
        samples/sec quota is a token bucket holding at most
        ``samples_per_s * burst_s`` tokens; a chunk larger than the
        available budget is rejected whole with
        :class:`~repro.serve.faults.QuotaExceeded` (never partially
        ingested — a half-ingested chunk would corrupt windowing).
    idle_ttl_s / janitor_interval_s:
        Sessions idle for ``idle_ttl_s`` (by the injectable ``clock``)
        are reaped by a daemon janitor thread waking every
        ``janitor_interval_s`` real seconds.  ``idle_ttl_s=None``
        (default) disables reaping and the janitor entirely;
        :meth:`reap_idle` can always be called manually.
    dead_channel_min_samples:
        Minimum chunk length before an exactly flatlined channel is
        treated as a dead electrode (short chunks legitimately hold
        constant runs).  Non-finite channels are masked regardless of
        chunk length.
    default_priority:
        Eviction priority for tenants never configured explicitly.
    max_tombstones:
        Bound on retained final checkpoints of dead sessions (oldest
        dropped first).
    clock:
        Injectable monotonic clock (tests drive TTL/quota deterministically).
    """

    def __init__(
        self,
        server=None,
        *,
        classify: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        window: Optional[int] = None,
        num_channels: Optional[int] = None,
        slide: Optional[int] = None,
        smoothing: int = 5,
        preprocessor: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        max_sessions: Optional[int] = None,
        max_sessions_per_tenant: Optional[int] = None,
        samples_per_s: Optional[float] = None,
        burst_s: float = 1.0,
        idle_ttl_s: Optional[float] = None,
        janitor_interval_s: float = 0.05,
        dead_channel_min_samples: int = 32,
        default_priority: int = Priority.NORMAL,
        max_tombstones: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if server is None:
            if classify is None or window is None or num_channels is None:
                raise ValueError(
                    "a serverless SessionManager needs classify, window and "
                    "num_channels"
                )
        elif classify is not None or window is not None or num_channels is not None:
            raise ValueError(
                "pass either a server or classify/window/num_channels, not both"
            )
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if idle_ttl_s is not None and idle_ttl_s <= 0:
            raise ValueError("idle_ttl_s must be positive")
        if janitor_interval_s <= 0:
            raise ValueError("janitor_interval_s must be positive")
        if burst_s <= 0:
            raise ValueError("burst_s must be positive")
        self._server = server
        self._classify = classify
        self._window = window
        self._num_channels = num_channels
        self.slide = slide
        self.smoothing = int(smoothing)
        self._preprocessor = preprocessor
        self.max_sessions = max_sessions
        self.max_sessions_per_tenant = max_sessions_per_tenant
        self.samples_per_s = samples_per_s
        self.burst_s = float(burst_s)
        self.idle_ttl_s = idle_ttl_s
        self.janitor_interval_s = float(janitor_interval_s)
        self.dead_channel_min_samples = int(dead_channel_min_samples)
        self.default_priority = int(default_priority)
        self.max_tombstones = int(max_tombstones)
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[str, ManagedSession]" = OrderedDict()
        self._tenants: Dict[str, _Tenant] = {}
        self._tombstones: "OrderedDict[str, Tuple[str, SessionCheckpoint]]" = OrderedDict()
        self._ids = 0
        self._created = 0
        self._closed_sessions = 0
        self._evicted = 0
        self._reaped_idle = 0
        self._evicted_pressure = 0
        self._draining = False
        self._closed = False
        self._janitor: Optional[threading.Thread] = None
        self._janitor_stop = threading.Event()
        if idle_ttl_s is not None:
            self._janitor = threading.Thread(
                target=self._janitor_loop, name="session-janitor", daemon=True
            )
            self._janitor.start()
        if server is not None:
            server._attach_session_manager(self)

    # -- construction helpers ------------------------------------------- #
    def _build_inner(self, slide, smoothing, preprocessor) -> StreamSession:
        if self._server is not None:
            return self._server.open_stream(
                slide, smoothing=smoothing, preprocessor=preprocessor
            )
        return StreamSession(
            self._classify,
            window=self._window,
            slide=slide,
            num_channels=self._num_channels,
            preprocessor=preprocessor,
            smoothing=smoothing,
        )

    def _tenant_state(self, name: str) -> _Tenant:
        """Get-or-create tenant bookkeeping (manager lock held)."""
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = _Tenant(
                name,
                self.default_priority,
                self.max_sessions_per_tenant,
                self.samples_per_s,
                self.burst_s,
                self._clock(),
            )
            self._tenants[name] = tenant
        return tenant

    def configure_tenant(
        self,
        name: str,
        *,
        priority: Optional[int] = None,
        max_sessions: Optional[int] = None,
        samples_per_s: Optional[float] = None,
        burst_s: Optional[float] = None,
    ) -> None:
        """Create or update a tenant's priority and quotas.

        Changing ``samples_per_s`` refills the token bucket to its new
        burst capacity (the new budget starts clean).
        """
        with self._lock:
            tenant = self._tenant_state(name)
            if priority is not None:
                tenant.priority = int(priority)
            if max_sessions is not None:
                tenant.max_sessions = int(max_sessions)
            if burst_s is not None:
                if burst_s <= 0:
                    raise ValueError("burst_s must be positive")
                tenant.burst_s = float(burst_s)
            if samples_per_s is not None:
                tenant.samples_per_s = float(samples_per_s)
                tenant.tokens = tenant.samples_per_s * tenant.burst_s
                tenant.last_refill = self._clock()

    # -- lifecycle ------------------------------------------------------- #
    def create_session(
        self,
        tenant: str = "default",
        *,
        slide: Optional[int] = None,
        smoothing: Optional[int] = None,
        preprocessor: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> ManagedSession:
        """Admit a new session for ``tenant`` (quotas and pressure apply)."""
        return self._open(
            tenant,
            slide=slide,
            smoothing=smoothing,
            preprocessor=preprocessor,
            checkpoint=None,
        )

    def restore(
        self,
        checkpoint: SessionCheckpoint,
        *,
        tenant: Optional[str] = None,
        preprocessor: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> ManagedSession:
        """Admit a new session continuing ``checkpoint`` bitwise.

        The restored session gets a *fresh* session id (the old id's
        tombstone, if any, stays queryable); ``tenant`` defaults to the
        checkpoint's recorded tenant.  Admission control is identical to
        :meth:`create_session`.
        """
        who = tenant if tenant is not None else (checkpoint.tenant or "default")
        return self._open(
            who,
            slide=checkpoint.slide,
            smoothing=checkpoint.smoothing,
            preprocessor=preprocessor,
            checkpoint=checkpoint,
        )

    def _open(
        self,
        tenant: str,
        *,
        slide: Optional[int],
        smoothing: Optional[int],
        preprocessor,
        checkpoint: Optional[SessionCheckpoint],
    ) -> ManagedSession:
        slide = slide if slide is not None else self.slide
        if slide is None:
            raise ValueError(
                "no slide configured: pass slide= to the manager or this call"
            )
        smoothing = smoothing if smoothing is not None else self.smoothing
        preprocessor = preprocessor if preprocessor is not None else self._preprocessor
        while True:
            victim: Optional[ManagedSession] = None
            with self._lock:
                if self._draining or self._closed:
                    raise Overloaded(
                        "session manager is draining; new sessions are not admitted"
                    )
                tstate = self._tenant_state(tenant)
                if (
                    tstate.max_sessions is not None
                    and tstate.sessions_open >= tstate.max_sessions
                ):
                    tstate.quota_rejections += 1
                    raise QuotaExceeded(
                        f"tenant '{tenant}' already holds {tstate.sessions_open} "
                        f"open session(s) (limit {tstate.max_sessions})",
                        tenant=tenant,
                        quota="sessions",
                    )
                if (
                    self.max_sessions is not None
                    and len(self._sessions) >= self.max_sessions
                ):
                    victim = self._pressure_victim(tstate.priority)
                    if victim is None:
                        tstate.quota_rejections += 1
                        raise QuotaExceeded(
                            f"manager is at capacity ({len(self._sessions)} of "
                            f"{self.max_sessions} sessions) and no lower-priority "
                            f"session is evictable",
                            tenant=tenant,
                            quota="sessions",
                        )
                else:
                    inner = self._build_inner(slide, smoothing, preprocessor)
                    if checkpoint is not None:
                        checkpoint.restore_into(inner)
                    self._ids += 1
                    session_id = f"s{self._ids:06d}"
                    session = ManagedSession(
                        self, session_id, tenant, inner, clock=self._clock
                    )
                    self._sessions[session_id] = session
                    tstate.sessions_open += 1
                    tstate.sessions_created += 1
                    self._created += 1
                    return session
            # Manager lock released: evict with session -> manager ordering,
            # then re-run admission (the victim may have raced away).
            self._evict(victim, "pressure")

    def _pressure_victim(self, priority: int) -> Optional[ManagedSession]:
        """Least recently active session of a strictly lower-priority tenant."""
        victim: Optional[ManagedSession] = None
        for session in self._sessions.values():
            if self._tenants[session.tenant].priority <= priority:
                continue
            if victim is None or session.last_active < victim.last_active:
                victim = session
        return victim

    def _evict(self, session: ManagedSession, reason: str) -> bool:
        """Take ``session`` away, preserving a final checkpoint.

        Acquiring the session's lock first *settles* any in-flight push:
        the chunk completes, its decisions land, and only then does the
        session transition.  Returns False if the session was already
        gone (a concurrent eviction/close won the race).
        """
        with session._lock:
            with self._lock:
                if (
                    session._state != "active"
                    or self._sessions.get(session.session_id) is not session
                ):
                    return False
                final = SessionCheckpoint.capture(
                    session._inner,
                    session_id=session.session_id,
                    tenant=session.tenant,
                )
                session._state = "evicted"
                session._evict_reason = reason
                del self._sessions[session.session_id]
                self._remember(session.session_id, reason, final)
                tstate = self._tenants[session.tenant]
                tstate.sessions_open -= 1
                tstate.sessions_evicted += 1
                self._evicted += 1
                if reason == "idle":
                    self._reaped_idle += 1
                elif reason == "pressure":
                    self._evicted_pressure += 1
                return True

    def _remember(
        self, session_id: str, reason: str, checkpoint: SessionCheckpoint
    ) -> None:
        """Keep a dead session's final checkpoint (bounded; lock held)."""
        self._tombstones[session_id] = (reason, checkpoint)
        self._tombstones.move_to_end(session_id)
        while len(self._tombstones) > self.max_tombstones:
            self._tombstones.popitem(last=False)

    def attach(self, session_id: str) -> ManagedSession:
        """Fetch a live session by id (touches its idle clock).

        A reaped/evicted/closed id raises
        :class:`~repro.serve.faults.SessionEvicted` (typed, immediate —
        never a hang); an id the manager has never seen raises
        ``KeyError``.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                session.last_active = self._clock()
                return session
            entry = self._tombstones.get(session_id)
            if entry is not None:
                reason, _ = entry
                raise SessionEvicted(
                    f"session '{session_id}' no longer exists ({reason}); "
                    f"restore it from its checkpoint",
                    session_id=session_id,
                    reason=reason,
                )
            raise KeyError(f"unknown session id '{session_id}'")

    def detach(self, session_id: str) -> SessionCheckpoint:
        """Checkpoint a live session without closing it.

        The client lets go holding a resume token; the session stays
        open (and its idle TTL keeps running, so an abandoned detached
        session is eventually reaped — its final checkpoint supersedes
        this one).
        """
        return self.attach(session_id).checkpoint()

    def close_session(self, session_id: str) -> SessionCheckpoint:
        """Gracefully close a live session; returns its final checkpoint."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                entry = self._tombstones.get(session_id)
                if entry is None:
                    raise KeyError(f"unknown session id '{session_id}'")
                reason, _ = entry
                raise SessionEvicted(
                    f"session '{session_id}' no longer exists ({reason})",
                    session_id=session_id,
                    reason=reason,
                )
        with session._lock:
            with self._lock:
                if session._state != "active":
                    reason = session._evict_reason or "closed"
                    raise SessionEvicted(
                        f"session '{session_id}' no longer exists ({reason})",
                        session_id=session_id,
                        reason=reason,
                    )
                final = SessionCheckpoint.capture(
                    session._inner, session_id=session_id, tenant=session.tenant
                )
                session._state = "closed"
                session._evict_reason = "closed"
                del self._sessions[session_id]
                self._remember(session_id, "closed", final)
                self._tenants[session.tenant].sessions_open -= 1
                self._closed_sessions += 1
                return final

    def checkpoint(self, session_id: str) -> SessionCheckpoint:
        """The session's current state — live capture or final tombstone."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                entry = self._tombstones.get(session_id)
                if entry is None:
                    raise KeyError(f"unknown session id '{session_id}'")
                return entry[1]
        return session.checkpoint()

    # -- reaping / drain ------------------------------------------------- #
    def reap_idle(self) -> int:
        """Evict every session idle past ``idle_ttl_s``; returns the count."""
        if self.idle_ttl_s is None:
            return 0
        now = self._clock()
        with self._lock:
            stale = [
                session
                for session in self._sessions.values()
                if now - session.last_active >= self.idle_ttl_s
            ]
        reaped = 0
        for session in stale:
            if self._evict(session, "idle"):
                reaped += 1
        return reaped

    def _janitor_loop(self) -> None:
        while not self._janitor_stop.wait(self.janitor_interval_s):
            try:
                self.reap_idle()
            except Exception:
                # The janitor must outlive any single bad sweep; the next
                # interval retries.
                continue

    def _stop_janitor(self) -> None:
        self._janitor_stop.set()
        janitor = self._janitor
        if janitor is not None and janitor is not threading.current_thread():
            janitor.join(timeout=5.0)

    def drain(self) -> Dict[str, SessionCheckpoint]:
        """Stop admission, settle in-flight chunks, checkpoint every session.

        Idempotent.  Each session's lock is acquired before it is taken
        away, so a chunk mid-push completes (its decisions land and are
        captured) before the final checkpoint is cut.  Returns the final
        checkpoints keyed by session id; they are also retained as
        tombstones for :meth:`checkpoint`/:meth:`restore`.
        """
        with self._lock:
            self._draining = True
            sessions = list(self._sessions.values())
        self._stop_janitor()
        for session in sessions:
            self._evict(session, "drain")
        with self._lock:
            return {
                session.session_id: self._tombstones[session.session_id][1]
                for session in sessions
                if session.session_id in self._tombstones
            }

    def close(self) -> Dict[str, SessionCheckpoint]:
        """Drain and shut the manager down (idempotent)."""
        checkpoints = self.drain()
        with self._lock:
            self._closed = True
        return checkpoints

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- quota / accounting hooks (called by ManagedSession.push) -------- #
    def _charge_samples(self, tenant_name: str, count: int) -> None:
        """Token-bucket admission for ``count`` samples (all or nothing)."""
        with self._lock:
            tenant = self._tenants[tenant_name]
            rate = tenant.samples_per_s
            if rate is None:
                return
            now = self._clock()
            capacity = rate * tenant.burst_s
            tenant.tokens = min(
                capacity, tenant.tokens + (now - tenant.last_refill) * rate
            )
            tenant.last_refill = now
            if count > tenant.tokens:
                tenant.quota_rejections += 1
                raise QuotaExceeded(
                    f"tenant '{tenant_name}' samples/s quota exhausted: chunk of "
                    f"{count} sample(s) exceeds the available budget "
                    f"({tenant.tokens:.0f} of {capacity:.0f} tokens)",
                    tenant=tenant_name,
                    quota="samples_per_s",
                )
            tenant.tokens -= count

    def _note_activity(
        self, tenant_name: str, *, windows: int, samples: int, degraded_windows: int
    ) -> None:
        with self._lock:
            tenant = self._tenants[tenant_name]
            tenant.windows += windows
            tenant.samples += samples
            tenant.degraded_windows += degraded_windows

    # -- introspection ---------------------------------------------------- #
    @property
    def session_ids(self) -> Tuple[str, ...]:
        """Ids of the currently live sessions (creation order)."""
        with self._lock:
            return tuple(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    @property
    def stats(self) -> SessionManagerStats:
        """Frozen fleet-wide snapshot (what ``server.stats.sessions`` holds)."""
        with self._lock:
            return SessionManagerStats(
                sessions_open=len(self._sessions),
                sessions_created=self._created,
                sessions_closed=self._closed_sessions,
                sessions_evicted=self._evicted,
                reaped_idle=self._reaped_idle,
                evicted_pressure=self._evicted_pressure,
                draining=self._draining,
                tenants={
                    name: tenant.snapshot() for name, tenant in self._tenants.items()
                },
            )

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SessionManager(sessions={len(self._sessions)}, "
                f"tenants={len(self._tenants)}, draining={self._draining})"
            )
