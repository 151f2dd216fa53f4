"""Tests for the architecture-search package (space, objectives, strategies)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import NinaProDB6, NinaProDB6Config, subject_split
from repro.models.bioformer import BioformerConfig
from repro.search import (
    CandidateEvaluation,
    ComplexityEvaluator,
    EvolutionarySearch,
    GridSearch,
    RandomSearch,
    SearchSpace,
    TrainedAccuracyEvaluator,
    candidate_name,
    evaluate_candidate,
)


def proxy_accuracy(config: BioformerConfig) -> dict:
    """Deterministic stand-in for training: prefers 8 heads and filter 10.

    Mirrors the paper's empirical finding so strategy tests have a known
    optimum without paying for actual training.
    """
    score = 0.5
    score += 0.04 * (config.num_heads / 8.0)
    score -= 0.02 * abs(config.patch_size - 10) / 10.0
    score -= 0.01 * (config.depth - 1)
    return {"accuracy": score, "train_accuracy": score + 0.1}


@pytest.fixture(scope="module")
def small_space():
    return SearchSpace(
        depths=(1, 2),
        heads=(2, 4, 8),
        patch_sizes=(5, 10, 20),
        num_channels=4,
        window_samples=60,
    )


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


# --------------------------------------------------------------------- #
# Search space
# --------------------------------------------------------------------- #
class TestSearchSpace:
    def test_size_and_enumeration_agree(self, small_space):
        candidates = list(small_space.enumerate())
        assert len(candidates) == small_space.size == 2 * 3 * 3

    def test_enumeration_yields_valid_unique_configs(self, small_space):
        names = [candidate_name(config) for config in small_space.enumerate()]
        assert len(set(names)) == len(names)
        for config in small_space.enumerate():
            config.validate()
            assert small_space.contains(config)

    def test_sample_within_space(self, small_space, rng):
        for _ in range(20):
            assert small_space.contains(small_space.sample(rng))

    def test_mutate_changes_exactly_one_axis(self, small_space, rng):
        config = small_space.make_config(depth=1, num_heads=4, patch_size=10)
        for _ in range(20):
            mutated = small_space.mutate(config, rng)
            assert small_space.contains(mutated)
            differences = sum(
                getattr(mutated, name) != getattr(config, name)
                for name in ("depth", "num_heads", "patch_size", "embed_dim", "hidden_dim")
            )
            assert differences == 1

    def test_mutate_single_point_space_is_identity(self, rng):
        space = SearchSpace(
            depths=(1,), heads=(2,), patch_sizes=(10,), num_channels=4, window_samples=60
        )
        config = space.make_config(1, 2, 10)
        mutated = space.mutate(config, rng)
        assert candidate_name(mutated) == candidate_name(config)

    def test_crossover_stays_in_space(self, small_space, rng):
        first = small_space.make_config(1, 2, 5)
        second = small_space.make_config(2, 8, 20)
        for _ in range(10):
            child = small_space.crossover(first, second, rng)
            assert small_space.contains(child)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(depths=()).validate()

    def test_patch_larger_than_window_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(patch_sizes=(500,), window_samples=300).validate()

    def test_paper_space_matches_paper_grid(self):
        space = SearchSpace.paper()
        assert space.depths == (1, 2, 3, 4)
        assert space.heads == (1, 2, 4, 8)
        assert space.patch_sizes == (1, 5, 10, 20, 30)
        assert space.size == 4 * 4 * 5

    def test_reduced_space_respects_window(self):
        space = SearchSpace.reduced(num_channels=4, window_samples=40)
        assert all(patch <= 10 for patch in space.patch_sizes)
        assert space.size > 0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sampling_property(self, seed):
        space = SearchSpace.reduced(num_channels=4, window_samples=60)
        config = space.sample(np.random.default_rng(seed))
        config.validate()
        assert space.contains(config)


# --------------------------------------------------------------------- #
# Objectives
# --------------------------------------------------------------------- #
class TestObjectives:
    def test_complexity_evaluator_keys(self, small_space):
        cost = ComplexityEvaluator()(small_space.make_config(1, 8, 10))
        assert set(cost) == {"params", "macs", "latency_ms", "energy_mj", "memory_kb"}
        assert all(value > 0 for value in cost.values())

    def test_complexity_memory_is_one_int8_byte_per_weight(self, small_space):
        cost = ComplexityEvaluator()(small_space.make_config(1, 8, 10))
        assert cost["memory_kb"] == cost["params"] / 1e3
        with pytest.raises(TypeError):
            ComplexityEvaluator(bits_per_weight=8)

    def test_larger_model_costs_more(self, small_space):
        evaluator = ComplexityEvaluator()
        small = evaluator(small_space.make_config(1, 2, 20))
        large = evaluator(small_space.make_config(2, 8, 5))
        assert large["macs"] > small["macs"]
        assert large["params"] > small["params"]
        assert large["latency_ms"] > small["latency_ms"]

    def test_evaluate_candidate_bundle(self, small_space):
        evaluation = evaluate_candidate(small_space.make_config(1, 8, 10), proxy_accuracy)
        assert isinstance(evaluation, CandidateEvaluation)
        assert evaluation.name == "h8-d1-f10-e64-m128"
        assert evaluation.accuracy == pytest.approx(0.54)
        assert evaluation.mmacs == evaluation.macs / 1e6

    def test_constraint_checking(self, small_space):
        evaluation = evaluate_candidate(small_space.make_config(1, 8, 10), proxy_accuracy)
        assert evaluation.meets({"max_macs": evaluation.macs + 1})
        assert not evaluation.meets({"max_macs": evaluation.macs - 1})
        with pytest.raises(KeyError):
            evaluation.meets({"max_flops": 1.0})

    def test_trained_evaluator_on_tiny_dataset(self):
        dataset = NinaProDB6(NinaProDB6Config.tiny())
        split = subject_split(dataset, 1, include_pretrain=False)
        channels, samples = split.train.windows.shape[1:]
        space = SearchSpace.reduced(channels, samples)
        evaluator = TrainedAccuracyEvaluator(split.train, split.test, epochs=1, seed=0)
        quality = evaluator(space.make_config(1, 2, space.patch_sizes[-1]))
        assert 0.0 <= quality["accuracy"] <= 1.0
        assert 0.0 <= quality["train_accuracy"] <= 1.0

    def test_trained_evaluator_rejects_empty_dataset(self):
        from repro.data import ArrayDataset

        empty = ArrayDataset(np.empty((0, 4, 10)), np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            TrainedAccuracyEvaluator(empty, empty)


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
class TestStrategies:
    def test_grid_search_covers_space(self, small_space):
        result = GridSearch(small_space, proxy_accuracy).run()
        assert result.num_evaluations == small_space.size
        # The proxy prefers 8 heads, depth 1, filter 10 — grid search must find it.
        assert result.best.name == "h8-d1-f10-e64-m128"

    def test_random_search_budget_and_uniqueness(self, small_space):
        result = RandomSearch(small_space, proxy_accuracy, seed=3).run(budget=6)
        assert result.num_evaluations == 6
        names = [candidate.name for candidate in result.history]
        assert len(set(names)) == len(names)

    def test_random_search_budget_capped_by_space(self, small_space):
        result = RandomSearch(small_space, proxy_accuracy, seed=3).run(budget=1000)
        assert result.num_evaluations <= small_space.size

    def test_random_search_invalid_budget(self, small_space):
        with pytest.raises(ValueError):
            RandomSearch(small_space, proxy_accuracy).run(budget=0)

    def test_evolutionary_search_improves_or_matches_initial_population(self, small_space):
        search = EvolutionarySearch(
            small_space, proxy_accuracy, population_size=4, seed=7
        )
        result = search.run(generations=3)
        initial_best = max(result.history[:4], key=lambda candidate: candidate.accuracy)
        assert result.best.accuracy >= initial_best.accuracy
        assert result.num_evaluations == 4 + 3 * 4

    def test_evolutionary_parameter_validation(self, small_space):
        with pytest.raises(ValueError):
            EvolutionarySearch(small_space, proxy_accuracy, population_size=1)
        with pytest.raises(ValueError):
            EvolutionarySearch(small_space, proxy_accuracy, tournament_size=0)
        with pytest.raises(ValueError):
            EvolutionarySearch(small_space, proxy_accuracy).run(generations=0)

    def test_constraints_steer_best_candidate(self, small_space):
        # Without constraints the best proxy model is the 8-head one; with a
        # tight MAC budget the best *feasible* model must respect the budget.
        unconstrained = GridSearch(small_space, proxy_accuracy).run()
        budget = 0.8 * unconstrained.best.macs
        constrained = GridSearch(small_space, proxy_accuracy, constraints={"max_macs": budget}).run()
        assert constrained.best.macs <= budget

    def test_infeasible_history_kept_for_pareto(self, small_space):
        result = GridSearch(
            small_space, proxy_accuracy, constraints={"max_macs": 1}
        ).run()
        assert result.feasible() == []
        assert result.best is not None  # falls back to the full history
        assert len(result.pareto()) >= 1

    def test_pareto_frontier_is_nondominated(self, small_space):
        result = GridSearch(small_space, proxy_accuracy).run()
        frontier = result.pareto("macs")
        for first in frontier:
            for second in frontier:
                if first is second:
                    continue
                dominated = second.cost <= first.cost and second.accuracy >= first.accuracy and (
                    second.cost < first.cost or second.accuracy > first.accuracy
                )
                assert not dominated

    def test_pareto_supports_every_cost_axis(self, small_space):
        result = RandomSearch(small_space, proxy_accuracy, seed=1).run(budget=5)
        for cost in ("macs", "params", "latency_ms", "energy_mj", "memory_kb"):
            assert len(result.pareto(cost)) >= 1

    def test_render_table(self, small_space):
        result = RandomSearch(small_space, proxy_accuracy, seed=1).run(budget=5)
        table = result.render(top=3)
        assert "random search" in table
        assert result.best.name in table

    def test_caching_avoids_duplicate_evaluations(self, small_space):
        calls = {"count": 0}

        def counting_proxy(config):
            calls["count"] += 1
            return proxy_accuracy(config)

        search = EvolutionarySearch(small_space, counting_proxy, population_size=4, seed=5)
        result = search.run(generations=3)
        assert calls["count"] <= result.num_evaluations
        assert calls["count"] <= small_space.size

    def test_empty_result_best_raises(self):
        from repro.search.strategies import SearchResult

        with pytest.raises(RuntimeError):
            SearchResult(strategy="empty").best
