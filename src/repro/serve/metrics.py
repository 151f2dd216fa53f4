"""One stats surface for the serving stack: labelled counters and gauges.

Every serving component that reports numbers — the batcher, the worker
pool, the circuit breaker, the backend cache, the session manager and the
server itself — holds one :class:`MetricsRegistry` as ``.metrics`` and
returns its :class:`Snapshot` as ``.stats``.

* A **counter** is declared when its registry is built and incremented
  where the event happens, with labels for its breakdown:
  ``metrics.inc("batcher_requests", 3, priority=0)``.  A breakdown is a
  label on the one series, never a second field, so a total is the sum
  over its labels by construction.  ``add`` counts several series with
  one label set under one lock, for a hot path that counts several.
* A **gauge** is a callable its owner registers; the registry calls it at
  snapshot time.  Values derived from live state (queue depth, alive
  workers, open sessions, breaker state) are read, never copied into
  counters.  A gauge registered with a ``label`` returns a mapping from
  that label's value to the reading.

Names are ``<owner>_<quantity>`` (``pool_jobs``, ``sessions_windows``), so
every name is also an attribute of a snapshot that holds its total.
``docs/architecture.md`` §6 lists every series.

Lock order: the registry's lock is a leaf.  ``inc`` may run while its
caller holds its own lock, and the registry calls nothing while it holds
its lock — :meth:`MetricsRegistry.snapshot` copies the counters, releases
the lock, then reads the gauges — so a gauge may take its owner's lock
without deadlocking against an ``inc`` made under that lock.  The price is
that a snapshot taken while traffic flows is exact per series but not one
instant across series.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

__all__ = ["MetricsRegistry", "Snapshot"]

#: A series key: its ``(label, value)`` pairs sorted by label; ``()`` for
#: an unlabelled series.
Labels = Tuple[Tuple[str, Hashable], ...]


@dataclass(frozen=True)
class Snapshot:
    """An immutable reading of one or more registries.

    ``series`` maps each metric name to its series, keyed by
    :data:`Labels`.  A declared counter that was never incremented is
    present with no series.  Each name is also an attribute holding its
    total over every label (``stats.batcher_requests``); a name no
    attached owner declares is an ``AttributeError`` there, and reads 0
    through :meth:`get`.
    """

    series: Mapping[str, Mapping[Labels, float]]

    def __post_init__(self) -> None:
        frozen = {name: MappingProxyType(dict(values)) for name, values in self.series.items()}
        object.__setattr__(self, "series", MappingProxyType(frozen))

    @classmethod
    def merge(cls, *parts: "Snapshot") -> "Snapshot":
        """One snapshot holding every series of ``parts``."""
        return cls({name: values for part in parts for name, values in part.series.items()})

    def get(self, name: str, **labels) -> float:
        """Sum of ``name``'s series that carry every given label (0 if none)."""
        want = labels.items()
        return sum(
            value
            for key, value in self.series.get(name, {}).items()
            if want <= dict(key).items()
        )

    def by(self, name: str, label: str) -> Dict[Hashable, float]:
        """``name``'s totals per value of ``label`` (a fresh dict)."""
        totals: Dict[Hashable, float] = {}
        for key, value in self.series.get(name, {}).items():
            labels = dict(key)
            if label in labels:
                totals[labels[label]] = totals.get(labels[label], 0) + value
        return totals

    def __getattr__(self, name: str) -> float:
        if name in self.__dict__.get("series", {}):
            return self.get(name)
        raise AttributeError(f"{type(self).__name__} has no series '{name}'")


class MetricsRegistry:
    """Thread-safe labelled counters plus gauges read at snapshot time.

    ``counters`` declares every counter name up front; incrementing an
    undeclared name raises ``KeyError``, so a misspelt counter fails where
    it is incremented instead of reading 0 forever.
    """

    def __init__(self, *counters: str) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[Labels, float]] = {name: {} for name in counters}
        self._gauges: Dict[str, Tuple[Callable[[], object], Optional[str]]] = {}

    def inc(self, name: str, amount: float = 1, **labels: Hashable) -> None:
        """Add ``amount`` to the series of counter ``name`` with ``labels``."""
        key = tuple(sorted(labels.items()))
        with self._lock:
            values = self._counters[name]
            values[key] = values.get(key, 0) + amount

    def add(self, amounts: Mapping[str, float], **labels: Hashable) -> None:
        """:meth:`inc` each ``amounts[name]`` under one lock, all with
        ``labels``; a zero amount is skipped (it would add an empty series)."""
        key = tuple(sorted(labels.items()))
        with self._lock:
            for name, amount in amounts.items():
                if amount:
                    values = self._counters[name]
                    values[key] = values.get(key, 0) + amount

    def gauge(
        self, name: str, read: Callable[[], object], label: Optional[str] = None
    ) -> None:
        """Register ``read``, called at every snapshot without the registry's
        lock.  With ``label``, ``read`` returns ``{label value: reading}``."""
        self._gauges[name] = (read, label)

    def reset(self) -> None:
        """Drop every counter's series (gauges keep reading live state)."""
        with self._lock:
            for values in self._counters.values():
                values.clear()

    def snapshot(self) -> Snapshot:
        """Copy the counters, then read the gauges with the lock released."""
        with self._lock:
            series: Dict[str, Mapping[Labels, object]] = {
                name: dict(values) for name, values in self._counters.items()
            }
        for name, (read, label) in self._gauges.items():
            reading = read()
            if label is None:
                series[name] = {(): reading}
            else:
                series[name] = {((label, value),): count for value, count in reading.items()}
        return Snapshot(series)
