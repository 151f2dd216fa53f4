"""Request timestamps, backend-call spans and their analysis.

Everything here is recorded from the benchmark's own side of the public
API: the backend wrapper passed as ``InferenceServer(backend_wrapper=...)``
times each backend call, and :class:`RequestLog` times each
``server.submit`` call and the moment its future completes.  Nothing is
recorded inside ``repro``.

Requests are matched to backend calls by order.  Every workload serves a
single priority on one worker, so the batcher is first in, first out: the
k-th backend call serves the next ``n`` requests in submission order.
:func:`match_requests` checks that this holds (each request completes
after its call ends) instead of assuming it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it.

    ``inf`` entries (failed or refused requests) sort last, so they count
    as missing every latency limit.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError("pct must lie in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class TracedBackend:
    """Pass-through backend that records ``(start, end, batch)`` per call."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls: List[Tuple[float, float, int]] = []

    @property
    def input_shape(self):
        return self.inner.input_shape

    @property
    def num_classes(self):
        return self.inner.num_classes

    def run(self, windows: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        out = self.inner.run(windows)
        self.calls.append((start, time.perf_counter(), len(windows)))
        return out


class RequestLog:
    """Submit-call, submit-return and completion time of every request.

    :meth:`instrument` replaces ``server.submit`` on one server instance,
    so every path that reaches the batcher (``submit``, ``infer``, stream
    sessions) is timed in submission order.
    """

    def __init__(self) -> None:
        self.call: List[float] = []
        self.ret: List[float] = []
        self.done: List[float] = []
        self._lock = threading.Lock()

    def instrument(self, server) -> None:
        submit = server.submit

        def timed_submit(window, *args, **kwargs):
            call = time.perf_counter()
            future = submit(window, *args, **kwargs)
            ret = time.perf_counter()
            with self._lock:
                index = len(self.call)
                self.call.append(call)
                self.ret.append(ret)
                self.done.append(math.nan)
            future.add_done_callback(lambda _f, i=index: self._finish(i))
            return future

        server.submit = timed_submit

    def _finish(self, index: int) -> None:
        now = time.perf_counter()
        with self._lock:
            self.done[index] = now

    def __len__(self) -> int:
        return len(self.call)


def match_requests(
    calls: Sequence[Tuple[float, float, int]], done: Sequence[float]
) -> List[int]:
    """Index of the backend call that served each request, by FIFO order.

    Raises ``ValueError`` when the calls do not account for exactly the
    requests given, or when a request completed before its call ended —
    either means the first-in-first-out assumption does not hold.
    """
    served = sum(n for _, _, n in calls)
    if served != len(done):
        raise ValueError(
            f"backend calls served {served} windows but {len(done)} requests were sent"
        )
    owner: List[int] = []
    for index, (_, end, n) in enumerate(calls):
        for request in range(len(owner), len(owner) + n):
            if not done[request] >= end:
                raise ValueError(
                    f"request {request} completed at {done[request]:.6f}, before "
                    f"its backend call {index} ended at {end:.6f}"
                )
        owner.extend([index] * n)
    return owner


@dataclass
class Span:
    """One timed interval; ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[int] = None

    def to_dict(self, origin: float) -> dict:
        return {
            "name": self.name,
            "start_ms": round((self.start - origin) * 1e3, 4),
            "end_ms": round((self.end - origin) * 1e3, 4),
            "parent": self.parent,
            "request": self.request,
        }


@dataclass
class SpanTree:
    """Spans of one traced workload pass, kept in memory until the end."""

    spans: List[Span] = field(default_factory=list)

    def add(self, name, start, end, parent=None, request=None) -> int:
        self.spans.append(Span(name, start, max(start, end), parent, request))
        return len(self.spans) - 1

    def add_request(self, parent, request, log: RequestLog, calls, owner) -> None:
        """The four serving-layer spans of one request, under ``parent``."""
        start, end, _ = calls[owner[request]]
        ret, done = log.ret[request], log.done[request]
        self.add("server.submit", log.call[request], ret, parent, request)
        self.add("batcher.wait", min(ret, start), start, parent, request)
        self.add("backend.run", start, end, parent, request)
        self.add("batcher.settle", end, done, parent, request)

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus what its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        result: Dict[str, List[float]] = {}
        for index, span in enumerate(self.spans):
            covered = _union_length(children.get(index, ()), span.start, span.end)
            result.setdefault(span.name, []).append(span.end - span.start - covered)
        return result

    def to_json(self) -> List[dict]:
        origin = min((span.start for span in self.spans), default=0.0)
        return [span.to_dict(origin) for span in self.spans]


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
