"""Tests of the serving stack's one stats surface, ``repro.serve.metrics``.

The registry's contract: increments from many threads are never lost, a
labelled counter's total is the sum of its series, a snapshot is
immutable, and the registry never calls a gauge while it holds its own
lock — so a gauge may take its owner's lock while another thread
increments under that same lock.
"""

import dataclasses
import sys
import threading

import pytest

from repro.serve import MetricsRegistry, Snapshot


def test_concurrent_increments_sum_exactly():
    registry = MetricsRegistry("hits")
    threads_n, per_thread = 8, 5_000
    start = threading.Barrier(threads_n, timeout=10.0)

    def worker(index):
        start.wait()
        for _ in range(per_thread):
            registry.inc("hits", worker=index % 2)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    stats = registry.snapshot()
    assert stats.hits == threads_n * per_thread
    assert stats.by("hits", "worker") == {0: 4 * per_thread, 1: 4 * per_thread}


def test_labelled_series_total_correctly():
    registry = MetricsRegistry("requests", "retired")
    registry.inc("requests", 3, priority=0)
    registry.inc("requests", 5, priority=20)
    registry.inc("requests", priority=0)
    registry.inc("retired", tenant="a", reason="idle")
    registry.inc("retired", 2, reason="closed", tenant="a")  # label order is free
    registry.inc("retired", tenant="b", reason="idle")
    stats = registry.snapshot()
    assert stats.requests == stats.get("requests") == 9
    assert stats.get("requests", priority=0) == 4
    assert stats.get("requests", priority=10) == 0
    assert stats.by("requests", "priority") == {0: 4, 20: 5}
    assert stats.retired == 4
    assert stats.get("retired", tenant="a") == 3
    assert stats.get("retired", tenant="a", reason="idle") == 1
    assert stats.by("retired", "reason") == {"idle": 2, "closed": 2}
    assert stats.by("retired", "tenant") == {"a": 3, "b": 1}


def test_add_counts_several_series_with_one_label_set():
    registry = MetricsRegistry("samples", "windows", "degraded")
    registry.add({"samples": 40, "windows": 2, "degraded": 0}, tenant="a")
    registry.add({"samples": 40, "windows": 1, "degraded": 1}, tenant="a")
    registry.add({"samples": 10, "windows": 0, "degraded": 0}, tenant="b")
    stats = registry.snapshot()
    assert stats.by("samples", "tenant") == {"a": 80, "b": 10}
    assert stats.by("windows", "tenant") == {"a": 3}  # zero amounts add no series
    assert stats.by("degraded", "tenant") == {"a": 1}
    with pytest.raises(KeyError):
        registry.add({"hist": 1}, tenant="a")


def test_declared_counter_reads_zero_and_undeclared_one_is_refused():
    registry = MetricsRegistry("hits")
    registry.gauge("depth", lambda: 3)
    registry.gauge("open", lambda: {"a": 1, "b": 0}, label="tenant")
    stats = registry.snapshot()
    assert stats.hits == 0 and stats.by("hits", "worker") == {}
    assert stats.depth == 3
    assert stats.by("open", "tenant") == {"a": 1, "b": 0}
    assert stats.get("absent") == 0  # a part that is not attached reads 0
    with pytest.raises(AttributeError):
        stats.absent
    with pytest.raises(KeyError):
        registry.inc("hist")


def test_snapshot_cannot_be_mutated():
    registry = MetricsRegistry("hits")
    registry.inc("hits", priority=0)
    stats = registry.snapshot()
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.hits = 99
    with pytest.raises(TypeError):
        stats.series["hits"] = {}
    with pytest.raises(TypeError):
        stats.series["hits"][(("priority", 0),)] = 99
    stats.by("hits", "priority")[0] = 99  # a fresh dict, not the snapshot
    registry.inc("hits", priority=0)  # later traffic leaves it untouched
    assert stats.hits == 1
    assert registry.snapshot().hits == 2


def test_reset_drops_counters_and_keeps_gauges():
    registry = MetricsRegistry("hits")
    registry.gauge("depth", lambda: 7)
    registry.inc("hits", 4)
    registry.reset()
    stats = registry.snapshot()
    assert (stats.hits, stats.depth) == (0, 7)


def test_merge_holds_every_part():
    first, second = MetricsRegistry("a"), MetricsRegistry("b")
    first.inc("a", 2)
    second.inc("b", 3, worker=1)
    merged = Snapshot.merge(first.snapshot(), second.snapshot())
    assert (merged.a, merged.b) == (2, 3)
    assert merged.by("b", "worker") == {1: 3}


def test_gauge_taking_its_owners_lock_does_not_deadlock_against_inc():
    """The lock order: a thread holding the owner's lock increments while
    a snapshot reads a gauge that takes the owner's lock.  Were the gauge
    called under the registry's lock, each thread would hold the lock the
    other waits for."""
    owner_lock = threading.Lock()
    holding = threading.Event()
    gauge_entered = threading.Event()
    registry = MetricsRegistry("hits")

    def depth():
        gauge_entered.set()
        with owner_lock:
            return 1

    registry.gauge("depth", depth)
    snapshots = []

    def increment_under_owner_lock():
        with owner_lock:
            holding.set()
            # Increment only once the snapshot is inside the gauge, i.e.
            # exactly when a registry that held its lock would deadlock.
            gauge_entered.wait(timeout=5.0)
            registry.inc("hits")

    incrementer = threading.Thread(target=increment_under_owner_lock, daemon=True)
    reader = threading.Thread(target=lambda: snapshots.append(registry.snapshot()), daemon=True)
    incrementer.start()
    assert holding.wait(timeout=5.0)
    reader.start()
    incrementer.join(timeout=10.0)
    reader.join(timeout=10.0)
    assert not incrementer.is_alive() and not reader.is_alive()
    assert gauge_entered.is_set()
    assert snapshots[0].depth == 1
    assert registry.snapshot().hits == 1
