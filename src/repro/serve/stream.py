"""Streaming gesture recognition: raw samples in, smoothed decisions out.

This is the paper's end-to-end deployment loop: a continuous 14-channel
sEMG signal is segmented into overlapping windows (150 ms window, 15 ms
slide at 2 kHz), each window is classified, and the per-window labels are
smoothed with majority voting over the most recent decisions so a single
misclassified window cannot flip the controlled prosthesis.

:class:`StreamSession` composes the pieces that already exist elsewhere in
the repository — :class:`repro.data.windowing.StreamWindower` for the
incremental segmentation (bit-identical to the offline training-time
segmentation), optionally a :class:`repro.data.preprocessing.Preprocessor`,
and any per-batch classifier (typically an
:class:`~repro.serve.server.InferenceServer`).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..data.windowing import StreamWindower

__all__ = ["MajorityVoter", "StreamDecision", "StreamSession"]


class MajorityVoter:
    """Majority vote over the ``history`` most recent window labels.

    Ties are broken toward the smallest label index, which makes the vote
    deterministic and biases ties toward the paper's rest class (class 0).
    A ``history`` of 1 disables smoothing.

    ``history`` is frozen at construction: the deque that holds the vote
    window is sized once, so rebinding the attribute afterwards could only
    desynchronise the two — it raises ``AttributeError`` instead.  State
    is exported/imported through :meth:`state`/:meth:`load_state` (what
    the session checkpoints use) rather than by poking ``_recent``.
    """

    __slots__ = ("_history", "_recent")

    def __init__(self, history: int = 5) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self._history = int(history)
        self._recent: Deque[int] = deque(maxlen=self._history)

    @property
    def history(self) -> int:
        """The (frozen) vote-window length."""
        return self._history

    def vote(self, label: int) -> int:
        """Record ``label`` and return the smoothed decision."""
        self._recent.append(int(label))
        counts = Counter(self._recent)
        best = max(counts.values())
        return min(candidate for candidate, count in counts.items() if count == best)

    def reset(self) -> None:
        """Forget the voting history (e.g. between recordings)."""
        self._recent.clear()

    @property
    def recent(self) -> Tuple[int, ...]:
        """The raw labels currently inside the voting window (immutable)."""
        return tuple(self._recent)

    def state(self) -> dict:
        """Serializable snapshot of the voter: history length + window."""
        return {"history": self._history, "recent": list(self._recent)}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot taken from an equal-history voter.

        A snapshot from a different ``history`` cannot be replayed into
        this voter without changing its smoothing semantics, so it is
        rejected with ``ValueError`` instead of silently truncating.
        """
        if int(state["history"]) != self._history:
            raise ValueError(
                f"voter state has history {state['history']}, "
                f"this voter has history {self._history}"
            )
        recent = [int(label) for label in state["recent"]]
        if len(recent) > self._history:
            raise ValueError(
                f"voter state holds {len(recent)} labels for a history "
                f"of {state['history']}"
            )
        self._recent = deque(recent, maxlen=self._history)


@dataclass(frozen=True)
class StreamDecision:
    """One classified window of the stream.

    ``degraded`` mirrors :class:`~repro.serve.faults.DegradedLogits`: the
    decision was produced from a window whose signal was degraded (dead or
    non-finite electrodes masked out by the session manager) — numerically
    valid, but the caller should weigh it accordingly.
    """

    window_index: int
    label: int
    smoothed_label: int
    degraded: bool = False


class StreamSession:
    """Feed raw sEMG chunks through windowing → classification → smoothing.

    Parameters
    ----------
    classify:
        Callable mapping ``(batch, channels, window)`` arrays to per-window
        integer labels (``(batch,)``).  ``InferenceServer.predict`` and
        ``IntegerGraphExecutor.predict`` both fit.
    window, slide:
        Sliding-window geometry in samples (the paper: 300 / 30 at 2 kHz).
    num_channels:
        Electrode count of the stream (the paper: 14).
    preprocessor:
        Optional per-window conditioning applied to each emitted window
        batch before classification.
    smoothing:
        Majority-vote history length (1 disables smoothing).
    """

    def __init__(
        self,
        classify: Callable[[np.ndarray], np.ndarray],
        window: int,
        slide: int,
        num_channels: int,
        *,
        preprocessor: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        smoothing: int = 5,
    ) -> None:
        self.classify = classify
        self.windower = StreamWindower(window, slide, num_channels)
        self.preprocessor = preprocessor
        self.voter = MajorityVoter(smoothing)
        self.decisions: List[StreamDecision] = []
        # Window index of decisions[0]: 0 for a fresh session, the
        # checkpointed windows_classified count for a restored one (the
        # restored session's indices continue the original stream's).
        self._decisions_base = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def samples_seen(self) -> int:
        """Total raw samples pushed into the session so far."""
        return self.windower.samples_seen

    @property
    def windows_classified(self) -> int:
        """Number of windows classified over the whole stream so far.

        Includes windows classified before a checkpoint/restore cut: a
        restored session continues the original stream's count even though
        its ``decisions`` list only holds post-restore decisions.
        """
        return self._decisions_base + len(self.decisions)

    @property
    def current_label(self) -> Optional[int]:
        """The latest smoothed decision (``None`` before the first window)."""
        return self.decisions[-1].smoothed_label if self.decisions else None

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def push(self, samples: np.ndarray) -> List[StreamDecision]:
        """Ingest a ``(channels, n)`` chunk; classify every completed window.

        Returns the decisions produced by this chunk (possibly empty — a
        short chunk may not complete a new window).

        A chunk whose channel dimension disagrees with the session's
        electrode count is rejected with ``ValueError`` up front — feeding
        a mis-wired stream into the windower would silently interleave
        channels into garbage windows.  (1-D chunks are accepted for
        single-channel sessions, as with :class:`StreamWindower`.)

        Non-finite chunks are rejected the same way the server's admission
        validation rejects non-finite windows: a single NaN sample would
        otherwise be windowed into up to ``window // slide`` consecutive
        windows and poison that many majority votes.  Sessions that must
        survive degraded signal route chunks through the session manager's
        dead-electrode masking (:mod:`repro.serve.sessions`) instead.
        """
        chunk = self._checked(samples)
        if not np.all(np.isfinite(np.asarray(chunk, dtype=np.float64))):
            raise ValueError(
                "stream chunk contains non-finite (NaN/Inf) samples; "
                "refusing to window/classify it"
            )
        return self._advance(chunk)

    def _checked(self, samples: np.ndarray) -> np.ndarray:
        """``samples`` as an array, or ``ValueError`` for a chunk whose
        channel count or dtype does not fit this session."""
        chunk = np.asarray(samples)
        expected = self.windower.num_channels
        channels = 1 if chunk.ndim == 1 else chunk.shape[0]
        if chunk.ndim > 2 or channels != expected:
            raise ValueError(
                f"stream chunk has {channels} channel(s) "
                f"(shape {chunk.shape}), but this session expects "
                f"{expected} channel(s)"
            )
        if chunk.dtype == object or not np.can_cast(chunk.dtype, np.float64):
            raise ValueError(
                f"stream chunk dtype {chunk.dtype} cannot be safely cast "
                f"to float64"
            )
        return chunk

    def _advance(self, chunk: np.ndarray, degraded: bool = False) -> List[StreamDecision]:
        """Window, classify and vote a checked chunk; every decision it
        produces carries ``degraded``."""
        windows = self.windower.push(chunk)
        if windows.shape[0] == 0:
            return []
        if self.preprocessor is not None:
            windows = np.asarray(self.preprocessor(windows))
        labels = np.asarray(self.classify(windows)).reshape(-1)
        if labels.shape[0] != windows.shape[0]:
            raise RuntimeError(
                f"classifier returned {labels.shape[0]} labels for "
                f"{windows.shape[0]} windows"
            )
        start = self._decisions_base + len(self.decisions)
        produced: List[StreamDecision] = []
        for offset, label in enumerate(labels):
            smoothed = self.voter.vote(int(label))
            produced.append(StreamDecision(start + offset, int(label), smoothed, degraded))
        self.decisions.extend(produced)
        return produced

    def run(self, signal: np.ndarray, chunk_size: int = 64) -> List[StreamDecision]:
        """Stream a whole ``(channels, samples)`` recording in chunks.

        A 1-D ``(samples,)`` signal is accepted for single-channel streams
        (the same normalisation ``push``/``StreamWindower`` apply): it is
        lifted to ``(1, samples)`` so chunking slices the time axis, never
        the channel axis.

        ``chunk_size`` must be at least 1 — a zero or negative chunk would
        make the slicing loop silently produce no (or wrong) decisions.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        signal = np.atleast_2d(np.asarray(signal))
        produced: List[StreamDecision] = []
        for start in range(0, signal.shape[-1], chunk_size):
            produced.extend(self.push(signal[:, start : start + chunk_size]))
        return produced

    def labels(self, smoothed: bool = True) -> np.ndarray:
        """All per-window decisions so far as an int array."""
        field = "smoothed_label" if smoothed else "label"
        return np.asarray(
            [getattr(decision, field) for decision in self.decisions], dtype=np.int64
        )

    def reset(self) -> None:
        """Clear buffered samples, vote history and recorded decisions."""
        self.windower.reset()
        self.voter.reset()
        self.decisions.clear()
        self._decisions_base = 0
