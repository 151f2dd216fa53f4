"""Fast checks of the serving benchmark in ``bench/``.

Each workload runs for well under a second at reduced load, untraced, and
must report every end-to-end metric ``BENCHMARK.json`` lists and pass its
own correctness checks; one traced run must report every per-layer
metric.  The pure parts (nearest-rank percentiles, matching requests to
backend calls, self time, the compare rules) are checked on hand-made
inputs.  No test here writes a file inside the repository.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.append(path)

import compare  # noqa: E402
import harness  # noqa: E402
from spans import SpanTree, match_requests, percentile  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _git_status():
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


#: Taken at collection, before any test in this module runs.
STATUS_BEFORE = _git_status()

#: The four workloads at reduced load, so each run takes well under a
#: second.  Every one still grades a dead-electrode stream, slot or block.
REDUCED = {
    "stream-int8": harness.StreamLoad(),
    "fleet-float": harness.FleetLoad(lifetime_pushes=8),
    "bulk-int8": harness.BulkLoad(block=32, pool_blocks=4),
    "bulk-float": harness.BulkLoad(block=32, pool_blocks=4),
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@pytest.fixture(scope="module")
def fixture():
    return harness.load_fixture(windows_per_class=4, epochs=1)


def _reduced(name):
    return dataclasses.replace(harness.WORKLOADS[name], load=REDUCED[name])


def _assert_reports(metrics, listed):
    assert set(metrics) == {m["name"] for m in listed}
    for metric, (value, unit) in metrics.items():
        assert unit == UNITS[metric]
        assert value == value, f"{metric} is NaN"


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert set(REDUCED) == set(harness.WORKLOADS)


@pytest.fixture(scope="module")
def untraced(fixture):
    """Each reduced workload's untraced run at seed 0."""
    return {
        name: harness.run_workload(fixture, _reduced(name), seed=0, seconds=0.2)
        for name in harness.WORKLOADS
    }


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_workload_emits_every_end_to_end_metric(untraced, name):
    result = untraced[name]
    assert result.failures == []
    assert result.attempted > 0 and result.failed == 0
    _assert_reports(result.metrics, SPEC["end_to_end"])


def test_traced_run_emits_every_per_layer_metric(fixture):
    result = harness.run_workload(fixture, _reduced("fleet-float"), seed=0, seconds=0.3, trace=True)
    assert result.failures == []
    _assert_reports(result.metrics, SPEC["per_layer"])
    assert "trace.overhead_ms" in result.extra
    assert any(name.startswith("self.") for name in result.extra)
    spans = result.spans.to_json()
    assert spans and {"name", "start_ms", "end_ms", "parent", "request"} <= set(spans[0])


def test_accuracy_does_not_depend_on_the_seed(fixture, untraced):
    # A bulk run always grades one full pass over its pool, however short.
    other = harness.run_workload(fixture, _reduced("bulk-float"), seed=1, seconds=0.05)
    for name in ("decision_accuracy", "degraded_accuracy"):
        assert other.metrics[name] == untraced["bulk-float"].metrics[name]


def test_nearest_rank_percentiles():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 91) == 10
    assert percentile(values, 10) == 1
    assert percentile([7.5], 99) == 7.5
    # A failed request counts as infinitely late.
    assert percentile([1.0, 2.0, float("inf")], 90) == float("inf")
    with pytest.raises(ValueError):
        percentile([], 50)


def test_requests_match_backend_calls_in_order():
    calls = [(0.0, 1.0, 2), (1.0, 2.0, 1), (2.5, 3.0, 3)]
    done = [1.1, 1.2, 2.1, 3.1, 3.2, 3.3]
    assert match_requests(calls, done) == [0, 0, 1, 2, 2, 2]
    with pytest.raises(ValueError, match="before"):
        match_requests(calls, [1.1, 0.9, 2.1, 3.1, 3.2, 3.3])
    with pytest.raises(ValueError, match="served 6"):
        match_requests(calls, done[:5])


def test_self_time_subtracts_the_union_of_children():
    tree = SpanTree()
    root = tree.add("root", 0.0, 10.0)
    tree.add("a", 1.0, 3.0, root)
    tree.add("a", 2.0, 5.0, root)  # overlaps its sibling: counted once
    tree.add("b", 8.0, 12.0, root)  # clipped to the parent's end
    times = tree.self_times()
    assert times["root"] == [pytest.approx(4.0)]
    assert times["a"] == [pytest.approx(2.0), pytest.approx(3.0)]


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10.0, 10.1, 10.2, 9.9, 10.0], [10.3, 10.4, 10.2, 10.3, 10.5], "lower", "ok"),
        ([10.0, 10.1, 10.2, 9.9, 10.0], [12.0, 12.1, 11.9, 12.2, 12.0], "lower", "worse"),
        ([10.0, 14.0, 8.0, 12.0, 9.0], [10.5, 15.0, 8.5, 12.5, 9.5], "lower", "unresolved"),
        # Every candidate run beats every baseline run: ok despite the spread.
        ([10.0, 14.0, 8.0, 12.0, 9.0], [5.0, 6.0, 5.5, 7.0, 6.5], "lower", "ok"),
        ([100.0, 101.0, 99.0], [85.0, 86.0, 84.0], "higher", "worse"),
    ],
)
def test_compare_rule(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.1) == expected


def test_compare_floor_absorbs_small_absolute_changes():
    assert compare.verdict([0.004] * 3, [0.008] * 3, "lower", bound=0.25) == "worse"
    assert compare.verdict([0.004] * 3, [0.008] * 3, "lower", 0.25, floor=0.005) == "ok"


def test_compare_holds_setup_time_to_its_median_alone():
    wide = [0.040, 0.060, 0.050, 0.070, 0.045]
    assert compare.verdict(wide, wide, "lower", 0.1) == "unresolved"
    assert compare.verdict(wide, wide, "lower", 0.1, median_only=True) == "ok"
    slower = [v * 1.2 for v in wide]
    assert compare.verdict(wide, slower, "lower", 0.1, median_only=True) == "worse"


def test_compare_counts_a_failed_measurement_as_the_worst_value():
    inf = float("inf")
    assert compare.verdict([5.0, 5.1, 5.2], [5.0, inf, 5.1], "lower", 0.1) == "worse"
    assert compare.verdict([5.0, inf, 5.2], [5.0, 5.1, 5.1], "lower", 0.1) == "ok"
    assert compare.verdict([0.9, 0.9], [0.9, -inf], "higher", 0.1) == "worse"


def _run(seconds=20, trace=0, correct=True, failed=0, **metrics):
    workload = {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "ms"} for name, value in metrics.items()},
    }
    return {"seed": 0, "seconds": seconds, "trace": trace, "workloads": {"w": workload}}


def _statuses(a_runs, b_runs):
    return {row["metric"]: row["status"] for row in compare.compare(SPEC, a_runs, b_runs)}


def test_compare_rows_cover_nulls_missing_metrics_checks_and_failures():
    base = [_run(setup_s=1.0, decision_accuracy=0.9) for _ in range(3)]
    assert set(_statuses(base, base).values()) == {"ok"}
    nulls = [_run(setup_s=None, decision_accuracy=0.9) for _ in range(3)]
    assert _statuses(base, nulls)["setup_s"] == "worse"
    missing = [_run(setup_s=1.0) for _ in range(3)]
    assert _statuses(base, missing)["decision_accuracy"] == "worse"
    wrong = base[:2] + [_run(correct=False, setup_s=1.0, decision_accuracy=0.9)]
    assert _statuses(base, wrong)["correct"] == "worse"
    # A failed check in B is worse even when A failed one too.
    assert _statuses(wrong, wrong)["correct"] == "worse"
    failing = base[:2] + [_run(failed=1, setup_s=1.0, decision_accuracy=0.9)]
    assert _statuses(base, failing)["failed_share"] == "worse"
    assert _statuses(failing, base)["failed_share"] == "ok"


def test_compare_refuses_traced_or_unequal_runs(tmp_path):
    base = [_run(setup_s=1.0)]
    with pytest.raises(ValueError, match="traced"):
        compare.compare(SPEC, base, [_run(trace=1, setup_s=1.0)])
    with pytest.raises(ValueError, match="lengths"):
        compare.compare(SPEC, base, [_run(seconds=10, setup_s=1.0)])
    paths = []
    for name, run in (("a", base[0]), ("b", _run(seconds=10, setup_s=1.0))):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(run, handle)
    assert compare.main([paths[0], "--", paths[1]]) == 2
    assert compare.main([paths[0], "--", paths[0]]) == 0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream-int8", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tests_leave_the_worktree_unchanged():
    if STATUS_BEFORE is None:
        pytest.skip("not a git checkout")
    assert _git_status() == STATUS_BEFORE
