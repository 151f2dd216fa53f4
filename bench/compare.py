"""Compare two sets of benchmark runs, one row per (workload, metric).

    python bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is the ``--out`` of an untraced ``bench/run.py`` run; set A is
the baseline, set B the candidate.  All files must share one ``--seconds``;
traced runs are refused, since they hold no end-to-end metrics.  For every
end-to-end metric of ``BENCHMARK.json`` and every workload set A ran, the
row shows each set's median and quartiles and one verdict:

``ok``
    B's median is not worse than A's by more than the metric's bound.
``worse``
    It is worse by more than the bound, or B lacks the row, or B has a
    larger share of null values (``run.py`` writes a null for a value that
    is not finite, such as an accuracy with nothing graded; it counts as
    the worst value there is).
``unresolved``
    The quartile spread of A or B is wider than the bound, and not every
    run of B beats every run of A, so the runs cannot tell.  ``setup_s`` is
    never unresolved: as in the benchmark's contract, its median is held
    to the bound and its spread is not.

The bound is the metric's ``bound`` share of A's median, but never less
than its absolute floor below.  Two more rows per workload check the runs
themselves: ``correct`` (the share of runs whose checks passed) is worse
when any run of B failed its checks, and ``failed_share`` (failed over
attempted requests) is worse when B's worst run fails more than A's.  The
exit code is 1 when any row is worse, and 2 when the files cannot be
compared.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Smallest change that counts, whatever the share: set-up times of a few
#: milliseconds jitter by more than a share of themselves.
FLOORS = {"setup_s": 0.005, "decision_accuracy": 0.002, "degraded_accuracy": 0.002}
#: Metrics judged on their medians alone.  Set-up time follows the host's
#: speed over minutes, so its spread over runs stays wide however many
#: builds a run takes.
MEDIAN_ONLY = {"setup_s"}

Values = Dict[Tuple[str, str], List[float]]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    a: Sequence[float],
    b: Sequence[float],
    better: str,
    bound: float,
    floor: float = 0.0,
    median_only: bool = False,
) -> str:
    """``ok``, ``worse`` or ``unresolved`` for candidate runs ``b`` against ``a``.

    Infinite values are failed measurements, the worst value there is.
    With ``median_only`` the spread never makes a row unresolved.
    """
    failed_a = sum(math.isinf(v) for v in a) / len(a)
    failed_b = sum(math.isinf(v) for v in b) / len(b)
    if failed_b > failed_a:
        return "worse"
    if failed_b:
        return "unresolved"
    if failed_a:
        return "ok"
    q1a, median_a, q3a = quartiles(a)
    q1b, median_b, q3b = quartiles(b)
    allowed = max(bound * abs(median_a), floor)
    lower = better == "lower"
    if (max(b) < min(a)) if lower else (min(b) > max(a)):
        return "ok"
    if not median_only and max(q3a - q1a, q3b - q1b) > allowed:
        return "unresolved"
    worse_by = median_b - median_a if lower else median_a - median_b
    return "worse" if worse_by > allowed else "ok"


def run_verdict(name: str, a: Sequence[float], b: Sequence[float]) -> str:
    """``correct``: worse when any run of B failed its checks.
    ``failed_share``: worse when B's worst run fails more than A's."""
    if name == "correct":
        return "worse" if min(b) < 1.0 else "ok"
    return "worse" if max(b) > max(a) else "ok"


def load(paths: Sequence[str]) -> List[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs


def check_comparable(a_runs: Sequence[dict], b_runs: Sequence[dict]) -> None:
    """Raise ``ValueError`` unless every run is untraced and equally long."""
    runs = list(a_runs) + list(b_runs)
    if any(run["trace"] for run in runs):
        raise ValueError("traced runs hold no end-to-end metrics; compare --trace 0 runs")
    lengths = sorted({run["seconds"] for run in runs})
    if len(lengths) > 1:
        raise ValueError(f"runs of different lengths cannot be compared: --seconds {lengths}")


def values(runs: Sequence[dict], spec: dict) -> Values:
    """Values per (workload, metric) over one set; a null becomes the worst value."""
    worst = {
        m["name"]: math.inf if m["better"] == "lower" else -math.inf for m in spec["end_to_end"]
    }
    out: Values = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                value = worst.get(metric, math.nan) if value is None else float(value)
                out.setdefault((workload, metric), []).append(value)
            out.setdefault((workload, "correct"), []).append(float(result["correct"]))
            share = result["failed"] / result["attempted"]
            out.setdefault((workload, "failed_share"), []).append(share)
    return out


def compare(spec: dict, a_runs: Sequence[dict], b_runs: Sequence[dict]) -> List[dict]:
    check_comparable(a_runs, b_runs)
    a, b = values(a_runs, spec), values(b_runs, spec)
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [("correct", "fraction", "higher", 0.0), ("failed_share", "fraction", "lower", 0.0)]
    rows = []
    for workload in sorted({w for w, _ in a}):
        for name, unit, better, bound in metrics:
            key = (workload, name)
            if key not in a:
                continue
            if key not in b:
                status = "worse"
            elif name in ("correct", "failed_share"):
                status = run_verdict(name, a[key], b[key])
            else:
                status = verdict(
                    a[key], b[key], better, bound, FLOORS.get(name, 0.0), name in MEDIAN_ONLY
                )
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "a": quartiles(a[key]),
                    "b": quartiles(b[key]) if key in b else None,
                    "bound": bound,
                    "floor": FLOORS.get(name, 0.0),
                    "status": status,
                }
            )
    return rows


def _format(row: dict) -> str:
    q1a, ma, q3a = row["a"]
    text = f"{row['workload']:12} {row['metric']:18} A {ma:.5g} [{q1a:.5g}, {q3a:.5g}]  "
    if row["b"] is None:
        text += "B missing  "
    else:
        q1b, mb, q3b = row["b"]
        change = (mb - ma) / abs(ma) * 100 if ma and math.isfinite(ma) else math.nan
        text += f"B {mb:.5g} [{q1b:.5g}, {q3b:.5g}] {row['unit']}  {change:+.1f}%  "
    bound = f"bound {row['bound']:.3g}"
    if row["floor"]:
        bound += f" (floor {row['floor']:g})"
    return f"{text}{bound}  {row['status']}"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1 :]
    if not a_paths or not b_paths:
        print("error: both sets need at least one run file", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        rows = compare(spec, load(a_paths), load(b_paths))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"A: {len(a_paths)} run(s)  B: {len(b_paths)} run(s)  quartiles as [q1, q3]")
    for row in rows:
        print(_format(row))
    return 1 if any(row["status"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
