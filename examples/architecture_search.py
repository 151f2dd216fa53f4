"""Hardware-aware architecture search over the Bioformer design space.

The paper selects its two reference architectures with a grid search over
depth, heads and front-end filter size under a complexity budget.  This
example runs the same selection problem with the search package:

1. define the Bioformer design space (reduced to the synthetic dataset's
   window geometry);
2. evaluate candidates with a short training run (accuracy) and the
   GAP8 cost model over the traced candidate (MACs, latency, memory);
3. run random search under a MAC budget, then evolutionary search;
4. print the best feasible candidates and the accuracy-vs-MACs Pareto
   frontier (the Fig. 5 construction).

Run with::

    python examples/architecture_search.py
"""

from repro.data import NinaProDB6, NinaProDB6Config, subject_split
from repro.search import (
    EvolutionarySearch,
    RandomSearch,
    SearchSpace,
    TrainedAccuracyEvaluator,
)


def main() -> None:
    dataset = NinaProDB6(NinaProDB6Config.small(num_subjects=2))
    split = subject_split(dataset, subject=1, include_pretrain=False)
    channels, samples = split.train.windows.shape[1:]

    space = SearchSpace.reduced(num_channels=channels, window_samples=samples)
    print(f"design space: {space.size} candidate architectures")

    evaluator = TrainedAccuracyEvaluator(split.train, split.test, epochs=3, seed=0)
    constraints = {"max_macs": 2e6, "max_memory_kb": 120.0}

    random_search = RandomSearch(space, evaluator, constraints=constraints, seed=1)
    random_result = random_search.run(budget=6)
    print()
    print(random_result.render(top=6))

    evolutionary = EvolutionarySearch(
        space, evaluator, constraints=constraints, population_size=4, seed=2
    )
    evolution_result = evolutionary.run(generations=2)
    print()
    print(evolution_result.render(top=6))

    best = max(
        (random_result.best, evolution_result.best), key=lambda candidate: candidate.accuracy
    )
    print(
        f"\nbest feasible candidate: {best.name} — {100 * best.accuracy:.1f}% accuracy, "
        f"{best.mmacs:.2f} MMAC, {best.memory_kb:.1f} kB, {best.latency_ms:.2f} ms on GAP8"
    )

    print("\naccuracy-vs-MACs Pareto frontier (evolutionary history):")
    for point in evolution_result.pareto("macs"):
        print(f"  {point.label}: {100 * point.accuracy:.1f}% at {point.cost / 1e6:.2f} MMAC")


if __name__ == "__main__":
    main()
