"""Fleet-scale session lifecycle: ownership, quotas, checkpoints, reaping.

The paper's deployment target is a continuously worn prosthesis
controller: a :class:`~repro.serve.stream.StreamSession` must survive
hours of raw sEMG, electrode dropout and client hiccups without losing
its majority-vote state.  A raw ``StreamSession`` is a single hand-held
object with no lifecycle; this module adds the fleet layer above it:

* :class:`ManagedSession` — a :class:`~repro.serve.stream.StreamSession`
  whose ``push`` adds liveness, the per-tenant quota and
  dead-electrode masking in front of the stream's own
  window → classify → vote step;
* :class:`SessionManager` — owns every live session opened through an
  :class:`~repro.serve.server.InferenceServer` (classifying through
  ``server.predict`` at :data:`~repro.serve.pool.Priority.HIGH`, as
  ``open_stream`` does) or a bare classifier, with
  create/attach/detach/close by session id, idle-TTL reaping by a
  janitor thread (injectable clock), and graceful :meth:`~SessionManager.drain`
  that stops admission and settles in-flight chunks before server close;
* **per-tenant robustness** — per-tenant session-count and samples/sec
  (token bucket) quotas raising typed
  :class:`~repro.serve.faults.QuotaExceeded`, LOW-tenant-first eviction
  under memory pressure raising
  :class:`~repro.serve.faults.SessionEvicted`, and ``sessions_*`` series
  labelled by tenant, merged into ``server.stats``;
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

A session's state is never lost: close, idle reaping, pressure eviction
and drain all retire a session through one path that captures its final
checkpoint and keeps it in a bounded tombstone map, so
``manager.checkpoint(session_id)`` and :meth:`SessionManager.restore`
work after any of them.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import OrderedDict
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple, get_type_hints

import numpy as np

from ..data.augmentation import CHANNEL_FILL_VALUE
from .faults import Overloaded, QuotaExceeded, SessionEvicted
from .metrics import MetricsRegistry, Snapshot
from .pool import Priority
from .stream import StreamDecision, StreamSession

__all__ = [
    "SESSION_CHECKPOINT_VERSION",
    "ManagedSession",
    "SessionCheckpoint",
    "SessionManager",
    "restore_stream_session",
]

#: Format version written into every checkpoint.  Bump it when the
#: snapshot schema changes shape; readers reject versions they do not
#: understand instead of mis-restoring silently.
SESSION_CHECKPOINT_VERSION = 1


def _check_version(version) -> None:
    if int(version) != SESSION_CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported session checkpoint version {version} "
            f"(this build reads version {SESSION_CHECKPOINT_VERSION})"
        )


#: Checkpoint fields that are :meth:`StreamWindower.state` keys of the
#: same name (the windower's ``dtype`` is the checkpoint's ``buffer_dtype``).
_WINDOWER_FIELDS = (
    "window",
    "slide",
    "num_channels",
    "buffer",
    "base",
    "samples_seen",
    "windows_emitted",
)


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
            smoothing=session.voter.history,
            buffer_dtype=wstate.pop("dtype"),
            voter_recent=session.voter.recent,
            windows_classified=session.windows_classified,
            session_id=session_id,
            tenant=tenant,
            **wstate,
        )

    def restore_into(self, session: StreamSession) -> StreamSession:
        """Load this snapshot into ``session`` (same geometry required).

        After restoring, pushing the post-checkpoint tail of the signal
        produces decisions bitwise-identical to the uninterrupted run:
        same ``window_index``, same labels, same smoothed labels.
        Geometry or version mismatches raise ``ValueError``.
        """
        _check_version(self.version)
        wstate = {key: getattr(self, key) for key in _WINDOWER_FIELDS}
        session.windower.load_state({"dtype": self.buffer_dtype, **wstate})
        session.voter.load_state(
            {"history": self.smoothing, "recent": list(self.voter_recent)}
        )
        session.decisions.clear()
        session._decisions_base = self.windows_classified
        return session

    # -- serialization -------------------------------------------------- #
    def to_payload(self) -> dict:
        """JSON-friendly dict, one key per field (float64 samples
        round-trip exactly)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["buffer"] = np.asarray(self.buffer).tolist()
        payload["voter_recent"] = [int(label) for label in self.voter_recent]
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SessionCheckpoint":
        """Rebuild a checkpoint from :meth:`to_payload` output.

        Unknown format versions are rejected with ``ValueError`` — a
        newer writer's snapshot must not be half-read by an older
        reader.
        """
        _check_version(payload["version"])
        values = {}
        for f in fields(cls):
            value = payload[f.name] if f.default is MISSING else payload.get(f.name)
            decode = _SCALAR_FIELDS.get(f.name)
            values[f.name] = decode(value) if decode is not None else value
        buffer = np.asarray(values["buffer"], dtype=np.dtype(values["buffer_dtype"]))
        if buffer.ndim == 1 and buffer.size == 0:
            # An empty (C, 0) buffer loses its channel dimension through
            # nested-list serialization; normalise it back.
            buffer = buffer.reshape(values["num_channels"], 0)
        values["buffer"] = buffer
        values["voter_recent"] = tuple(int(label) for label in values["voter_recent"])
        return cls(**values)

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


#: The checkpoint's ``int`` and ``str`` fields, each decoded from a
#: payload by its own type.
_SCALAR_FIELDS = {
    name: hint
    for name, hint in get_type_hints(SessionCheckpoint).items()
    if hint in (int, str)
}


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
    return checkpoint.restore_into(session)


@dataclass(eq=False)
class _Tenant:
    """A tenant's quotas and quota state (guarded by the manager's lock)."""

    tenant: str
    priority: int
    max_sessions: Optional[int]
    samples_per_s: Optional[float]
    burst_s: float
    tokens: float = 0.0
    last_refill: float = 0.0
    sessions_open: int = 0

    def refill(self, now: float) -> None:
        """Fill the token bucket to its burst capacity (a fresh budget)."""
        self.tokens = (self.samples_per_s or 0.0) * self.burst_s
        self.last_refill = now


def _check_limits(**limits) -> None:
    """``ValueError`` for a limit no session or chunk could ever meet.

    ``None`` means unlimited; a ``max_sessions*`` count must be at least
    1 and every other limit positive.
    """
    for name, value in limits.items():
        if value is None:
            continue
        if name.startswith("max_sessions"):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        elif not value > 0:
            raise ValueError(f"{name} must be positive")


# --------------------------------------------------------------------- #
# Managed session
# --------------------------------------------------------------------- #
class ManagedSession(StreamSession):
    """A :class:`StreamSession` owned by a :class:`SessionManager`.

    Adds, on top of the raw session: liveness (operations on an evicted
    or closed session raise :class:`~repro.serve.faults.SessionEvicted`
    immediately — they never hang), per-tenant samples/sec quota charging,
    degraded-electrode masking, activity tracking for idle reaping, and
    per-session counters.

    ``push`` and ``reset`` hold the session's lock for the whole call,
    which is what lets eviction and drain *settle* in-flight work instead
    of racing it; ``run`` pushes chunk by chunk.
    """

    def __init__(
        self,
        manager: "SessionManager",
        tenant: str,
        *,
        slide: Optional[int] = None,
        smoothing: Optional[int] = None,
        preprocessor: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        # Whatever the caller leaves None takes the manager's default.
        slide = slide if slide is not None else manager.slide
        if slide is None:
            raise ValueError(
                "no slide configured: pass slide= to the manager or this call"
            )
        super().__init__(
            manager._classify,
            manager._window,
            slide,
            manager._num_channels,
            preprocessor=preprocessor if preprocessor is not None else manager._preprocessor,
            smoothing=smoothing if smoothing is not None else manager.smoothing,
        )
        self._manager = manager
        self.session_id = ""  # assigned on admission
        self.tenant = tenant
        self._lock = threading.RLock()
        self.last_active = manager._clock()
        # Why the session was retired ("closed", "idle", "pressure" or
        # "drain"); None while it is live.
        self._reason: Optional[str] = None
        self.windows = 0
        self.samples = 0
        self.degraded_windows = 0

    @property
    def state(self) -> str:
        """``"active"``, ``"evicted"`` or ``"closed"``."""
        with self._lock:
            reason = self._reason
        if reason is None:
            return "active"
        return "closed" if reason == "closed" else "evicted"

    def _ensure_live(self) -> None:
        if self._reason is not None:
            raise self._manager._gone(self.session_id, self._reason)

    # -- streaming ------------------------------------------------------ #
    def push(self, samples: np.ndarray) -> List[StreamDecision]:
        """Ingest a ``(channels, n)`` chunk through the managed pipeline.

        Order of gates: liveness → shape/dtype validation (the raw
        session's check, so the errors are canonical, and charged to no
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
            chunk = np.atleast_2d(np.asarray(self._checked(samples), dtype=np.float64))
            count = chunk.shape[1]
            manager = self._manager
            manager._charge_samples(self.tenant, count)
            bad = ~np.isfinite(chunk).all(axis=1)
            if count >= manager.dead_channel_min_samples:
                bad |= np.ptp(chunk, axis=1) == 0.0
            degraded = bool(bad.any())
            if degraded:
                # Mask to the augmentation pipeline's channel-dropout fill
                # value, so a trained-against-dropout model sees the same
                # signal in production that it saw in training.
                chunk = np.where(bad[:, None], CHANNEL_FILL_VALUE, chunk)
            produced = self._advance(chunk, degraded)
            degraded_windows = len(produced) if degraded else 0
            self.windows += len(produced)
            self.samples += count
            self.degraded_windows += degraded_windows
            self.last_active = manager._clock()
            manager.metrics.add(
                {
                    "sessions_samples": count,
                    "sessions_windows": len(produced),
                    "sessions_degraded_windows": degraded_windows,
                },
                tenant=self.tenant,
            )
            return produced

    def reset(self) -> None:
        """Clear the stream's buffered samples, votes and decisions (the
        per-session ``windows``/``samples`` counters keep counting).

        Locked like :meth:`push`, and refused with
        :class:`~repro.serve.faults.SessionEvicted` once the session is
        retired.
        """
        with self._lock:
            self._ensure_live()
            super().reset()

    def checkpoint(self) -> SessionCheckpoint:
        """Snapshot the session's restorable state (works even evicted)."""
        with self._lock:
            return SessionCheckpoint.capture(
                self, session_id=self.session_id, tenant=self.tenant
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
    (sessions classify through ``server.predict`` at HIGH priority, the
    call ``server.open_stream`` makes, so streams batch ahead of queued
    bulk scoring), or serverless
    with ``classify``/``window``/``num_channels`` for tests and embedded
    use.  ``InferenceServer.open_session_manager`` is the convenience
    constructor; a server-attached manager's series join ``server.stats``
    and it is drained by ``server.close()``.

    ``stats`` is a :class:`~repro.serve.metrics.Snapshot` of ``metrics``,
    every series labelled by ``tenant``: ``sessions_created``,
    ``sessions_retired{reason}`` (``"closed"``, ``"idle"``,
    ``"pressure"`` or ``"drain"``), ``sessions_windows``,
    ``sessions_samples``, ``sessions_degraded_windows``,
    ``sessions_quota_rejections{quota}`` and the gauge ``sessions_open``.

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
        :class:`~repro.serve.faults.QuotaExceeded`.  A tenant never
        configured with :meth:`configure_tenant` has ``Priority.NORMAL``.
    max_sessions_per_tenant / samples_per_s / burst_s:
        Default per-tenant quotas (see :meth:`configure_tenant`).  The
        samples/sec quota is a token bucket holding at most
        ``samples_per_s * burst_s`` tokens; a chunk larger than the
        available budget is rejected whole with
        :class:`~repro.serve.faults.QuotaExceeded` (never partially
        ingested — a half-ingested chunk would corrupt windowing).
        ``None`` is unlimited; a cap below 1 or a rate or burst that is
        not positive raises ``ValueError`` here, as it does in
        :meth:`configure_tenant`.
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
    max_tombstones:
        Bound on retained final checkpoints of dead sessions (oldest
        dropped first).  :meth:`drain` returns every checkpoint it cuts
        regardless.
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
        else:
            # The call ``server.open_stream`` makes: stream windows batch
            # ahead of queued bulk scoring.
            classify = functools.partial(server.predict, priority=Priority.HIGH)
            num_channels, window = server.input_shape
        _check_limits(
            max_sessions=max_sessions,
            max_sessions_per_tenant=max_sessions_per_tenant,
            samples_per_s=samples_per_s,
            burst_s=burst_s,
            idle_ttl_s=idle_ttl_s,
            janitor_interval_s=janitor_interval_s,
        )
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
        self.max_tombstones = int(max_tombstones)
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[str, ManagedSession]" = OrderedDict()
        self._tenants: Dict[str, _Tenant] = {}
        self._tombstones: "OrderedDict[str, Tuple[str, SessionCheckpoint]]" = OrderedDict()
        self._ids = 0
        self.metrics = MetricsRegistry(
            "sessions_created",
            "sessions_retired",
            "sessions_windows",
            "sessions_samples",
            "sessions_degraded_windows",
            "sessions_quota_rejections",
        )
        self.metrics.gauge("sessions_open", self._open_by_tenant, label="tenant")
        self._draining = False
        self._closed = False
        self._janitor: Optional[threading.Thread] = None
        self._janitor_stop = threading.Event()
        if server is not None:
            # Before the janitor starts: a refused attach must leave no
            # thread behind.
            server._attach_session_manager(self)
        if idle_ttl_s is not None:
            self._janitor = threading.Thread(
                target=self._janitor_loop, name="session-janitor", daemon=True
            )
            self._janitor.start()

    # -- construction helpers ------------------------------------------- #
    def _tenant_state(self, name: str) -> _Tenant:
        """Get-or-create tenant bookkeeping (manager lock held)."""
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = _Tenant(
                name,
                Priority.NORMAL,
                self.max_sessions_per_tenant,
                self.samples_per_s,
                self.burst_s,
            )
            tenant.refill(self._clock())
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

        ``None`` keeps the current value.  A quota no session or chunk
        could meet (``max_sessions < 1``, ``samples_per_s`` or
        ``burst_s`` not positive) raises ``ValueError`` and changes
        nothing.  Changing ``samples_per_s`` refills the token bucket to
        its new burst capacity (the new budget starts clean).
        """
        _check_limits(max_sessions=max_sessions, samples_per_s=samples_per_s, burst_s=burst_s)
        with self._lock:
            tenant = self._tenant_state(name)
            if priority is not None:
                tenant.priority = int(priority)
            if max_sessions is not None:
                tenant.max_sessions = int(max_sessions)
            if burst_s is not None:
                tenant.burst_s = float(burst_s)
            if samples_per_s is not None:
                tenant.samples_per_s = float(samples_per_s)
                tenant.refill(self._clock())

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
        return self._admit(
            ManagedSession(
                self, tenant, slide=slide, smoothing=smoothing, preprocessor=preprocessor
            )
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
        session = ManagedSession(
            self,
            tenant if tenant is not None else (checkpoint.tenant or "default"),
            slide=checkpoint.slide,
            smoothing=checkpoint.smoothing,
            preprocessor=preprocessor,
        )
        return self._admit(checkpoint.restore_into(session))

    def _admit(self, session: ManagedSession) -> ManagedSession:
        """Give ``session`` a fresh id and make it live, once its tenant's
        quota and the fleet cap (after any pressure eviction) allow."""
        tenant = session.tenant
        while True:
            victim: Optional[ManagedSession] = None
            with self._lock:
                if self._draining:
                    raise Overloaded(
                        "session manager is draining; new sessions are not admitted"
                    )
                tstate = self._tenant_state(tenant)
                if (
                    tstate.max_sessions is not None
                    and tstate.sessions_open >= tstate.max_sessions
                ):
                    self.metrics.inc(
                        "sessions_quota_rejections", tenant=tenant, quota="sessions"
                    )
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
                        self.metrics.inc(
                            "sessions_quota_rejections", tenant=tenant, quota="sessions"
                        )
                        raise QuotaExceeded(
                            f"manager is at capacity ({len(self._sessions)} of "
                            f"{self.max_sessions} sessions) and no lower-priority "
                            f"session is evictable",
                            tenant=tenant,
                            quota="sessions",
                        )
                else:
                    self._ids += 1
                    session.session_id = f"s{self._ids:06d}"
                    self._sessions[session.session_id] = session
                    tstate.sessions_open += 1
                    self.metrics.inc("sessions_created", tenant=tenant)
                    return session
            # Manager lock released: evict with session -> manager ordering,
            # then re-run admission (the victim may have raced away).
            self._retire(victim, "pressure")

    def _pressure_victim(self, priority: int) -> Optional[ManagedSession]:
        """Least recently active session of a strictly lower-priority tenant."""
        lower = [
            session
            for session in self._sessions.values()
            if self._tenants[session.tenant].priority > priority
        ]
        return min(lower, key=lambda session: session.last_active, default=None)

    def _retire(
        self, session: ManagedSession, reason: str
    ) -> Optional[SessionCheckpoint]:
        """Take ``session`` out of service and return its final checkpoint.

        The one teardown behind close (``reason="closed"``), idle reaping
        (``"idle"``), pressure eviction (``"pressure"``) and drain
        (``"drain"``).  Acquiring the session's lock first *settles* any
        in-flight push: the chunk completes, its decisions land, and only
        then is the checkpoint cut and the session retired.  The
        checkpoint is also kept as the id's tombstone (bounded by
        ``max_tombstones``, oldest dropped first).  Returns ``None`` if
        the session was already retired (a concurrent caller won).
        """
        with session._lock, self._lock:
            if session._reason is not None:
                return None
            final = session.checkpoint()
            session._reason = reason
            del self._sessions[session.session_id]
            self._tombstones[session.session_id] = (reason, final)
            while len(self._tombstones) > self.max_tombstones:
                self._tombstones.popitem(last=False)
            self._tenants[session.tenant].sessions_open -= 1
            self.metrics.inc("sessions_retired", tenant=session.tenant, reason=reason)
            return final

    def _gone(self, session_id: str, reason: Optional[str] = None) -> Exception:
        """The error for an id that is not live.

        :class:`~repro.serve.faults.SessionEvicted` for a retired session
        (``reason``, or the one its tombstone recorded), ``KeyError`` for
        an id the manager does not know (or whose tombstone was dropped).
        """
        if reason is None:
            entry = self._tombstones.get(session_id)
            if entry is None:
                return KeyError(f"unknown session id '{session_id}'")
            reason = entry[0]
        return SessionEvicted(
            f"session '{session_id}' no longer exists ({reason}); "
            f"restore it from its checkpoint",
            session_id=session_id,
            reason=reason,
        )

    def attach(self, session_id: str) -> ManagedSession:
        """Fetch a live session by id (touches its idle clock).

        A reaped/evicted/closed id raises
        :class:`~repro.serve.faults.SessionEvicted` (typed, immediate —
        never a hang); an id the manager has never seen raises
        ``KeyError``.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise self._gone(session_id)
            session.last_active = self._clock()
            return session

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
        session = self.attach(session_id)
        final = self._retire(session, "closed")
        if final is None:
            raise self._gone(session_id, session._reason)
        return final

    def checkpoint(self, session_id: str) -> SessionCheckpoint:
        """The session's current state — live capture or final tombstone."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                entry = self._tombstones.get(session_id)
                if entry is None:
                    raise self._gone(session_id)
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
        return sum(self._retire(session, "idle") is not None for session in stale)

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
        captured) before the final checkpoint is cut.  Returns every
        final checkpoint this drain cut, keyed by session id — however
        many sessions that is, even beyond ``max_tombstones``; each is
        also kept as a tombstone for :meth:`checkpoint`/:meth:`restore`
        while the ring holds it.
        """
        with self._lock:
            self._draining = True
            sessions = list(self._sessions.values())
        self._stop_janitor()
        finals = {}
        for session in sessions:
            final = self._retire(session, "drain")
            if final is not None:
                finals[session.session_id] = final
        return finals

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
                self.metrics.inc(
                    "sessions_quota_rejections", tenant=tenant_name, quota="samples_per_s"
                )
                raise QuotaExceeded(
                    f"tenant '{tenant_name}' samples/s quota exhausted: chunk of "
                    f"{count} sample(s) exceeds the available budget "
                    f"({tenant.tokens:.0f} of {capacity:.0f} tokens)",
                    tenant=tenant_name,
                    quota="samples_per_s",
                )
            tenant.tokens -= count

    # -- introspection ---------------------------------------------------- #
    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    @property
    def stats(self) -> Snapshot:
        """An immutable snapshot of :attr:`metrics`."""
        return self.metrics.snapshot()

    def _open_by_tenant(self) -> Dict[str, int]:
        """Live sessions per known tenant (the per-tenant quota's count)."""
        with self._lock:
            return {name: tenant.sessions_open for name, tenant in self._tenants.items()}

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SessionManager(sessions={len(self._sessions)}, "
                f"tenants={len(self._tenants)}, draining={self._draining})"
            )
