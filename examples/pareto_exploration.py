"""Architecture exploration — the accuracy/complexity Pareto space (Fig. 5).

The Bioformer's front-end filter dimension and its depth/heads settings span
a space of architectures; the paper navigates it by profiling MACs and
parameters for every candidate and keeping the Pareto-optimal ones.  This
example rebuilds those Pareto planes, reports which models survive, and then
re-ranks the frontier by *energy per inference* on GAP8 — the metric a
battery-powered product actually cares about.

Run with::

    python examples/pareto_exploration.py
"""

from repro.analysis import ParetoPoint, pareto_frontier
from repro.deploy import estimate_deployment, trace_model
from repro.experiments import render_figure5, run_figure5
from repro.models import build_model


def main() -> None:
    # 1. The paper's Fig. 5: accuracy vs MACs and vs parameters.
    result = run_figure5()
    print(render_figure5(result))

    print("\naccuracy-vs-MACs Pareto frontier:")
    for point in result.pareto_by_macs():
        print(f"  {point.label:28s} {point.cost / 1e6:6.2f} MMAC  {100 * point.accuracy:.2f}%")

    print(
        f"\nBio1 (f=10) uses {result.mac_reduction_vs_temponet('bio1', 10):.1f}x fewer MACs "
        f"than TEMPONet; Bio2 (f=10) {result.mac_reduction_vs_temponet('bio2', 10):.1f}x fewer."
    )

    # 2. Re-rank by energy on GAP8 instead of raw MACs: the 2-head Bioformer
    #    parallelises poorly on the 8-core cluster, so its energy advantage
    #    shrinks — exactly why the paper reports both planes.
    print("\nenergy-based ranking on GAP8:")
    energy_points = []
    for point in result.points:
        if point.variant == "temponet":
            model = build_model("temponet")
        else:
            model = build_model(point.variant, patch_size=point.filter_dimension)
        record = estimate_deployment(trace_model(model))
        energy_points.append(ParetoPoint(point.label, record.energy_mj, point.accuracy))
    for point in pareto_frontier(energy_points):
        print(f"  {point.label:28s} {point.cost:6.3f} mJ   {100 * point.accuracy:.2f}%")


if __name__ == "__main__":
    main()
