"""Serving benchmark: stream-int8, fleet-float, bulk-int8 and bulk-float.

Run from the repository root::

    python bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                        [--trace 0|1] [--spans PATH] [--out PATH]

It prints one ``workload metric value unit`` line per metric, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` (the default) reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics, plus each layer's self time and the tracing overhead
as text lines.  The process exits non-zero when a correctness check
fails.  It writes nothing unless ``--spans`` or ``--out`` name a file.

``--seed`` chooses the recordings and windows, never the model.  Seed 0
is for development; seed 1 is held out for verifying claims.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")


def _value(value: float):
    """A JSON-safe number: a non-finite value (a failed run) becomes null."""
    value = float(value)
    return value if math.isfinite(value) else None


def render(results) -> dict:
    """The final JSON object; metric names carry a ``workload/`` prefix
    only when more than one workload ran."""
    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for name, (value, unit) in result.metrics.items():
            key = f"{result.workload}/{name}" if prefix else name
            metrics[key] = {"value": _value(value), "unit": unit}
    return {
        "correct": all(result.correct for result in results),
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed phase per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans of every workload as JSON")
    parser.add_argument("--out", help="write every workload's result as JSON (for compare.py)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: the repro package is missing under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCE, HERE]
    import harness

    names = args.workload or list(harness.WORKLOADS)
    unknown = [name for name in names if name not in harness.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(harness.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    fixture = harness.load_fixture()
    results = []
    for name in names:
        result = harness.run_workload(
            fixture, harness.WORKLOADS[name], args.seed, args.seconds, trace=bool(args.trace)
        )
        results.append(result)
        for metric, (value, unit) in list(result.metrics.items()) + list(result.extra.items()):
            print(f"{name} {metric} {value:.6g} {unit}", flush=True)
        for failure in result.failures:
            print(f"{name} CHECK FAILED: {failure}", flush=True)

    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(
                {r.workload: r.spans.to_json() for r in results if r.spans is not None}, handle
            )
    summary = render(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "workloads": {r.workload: render([r]) for r in results},
                },
                handle,
                indent=1,
            )
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
