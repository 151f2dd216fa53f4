"""``repro.search`` — hardware-aware architecture search for Bioformers.

The two reference Bioformers are the outcome of the paper's grid search over
depth, heads and front-end filter size under a complexity budget; the same
selection problem, at larger scale, is what TinyML practitioners solve with
hardware-aware NAS.  This package provides:

* :mod:`repro.search.space` — the discrete Bioformer design space
  (sample / mutate / crossover / enumerate);
* :mod:`repro.search.objectives` — per-candidate accuracy (short training
  runs) and GAP8 cost objectives of the traced candidate, plus deployment
  constraints;
* :mod:`repro.search.strategies` — grid, random and evolutionary search
  returning the evaluation history, the best feasible candidate and the
  accuracy-vs-complexity Pareto frontier.
"""

from .objectives import (
    CandidateEvaluation,
    ComplexityEvaluator,
    TrainedAccuracyEvaluator,
    evaluate_candidate,
)
from .space import SearchSpace, candidate_name
from .strategies import EvolutionarySearch, GridSearch, RandomSearch, SearchResult

__all__ = [
    "SearchSpace",
    "candidate_name",
    "CandidateEvaluation",
    "ComplexityEvaluator",
    "TrainedAccuracyEvaluator",
    "evaluate_candidate",
    "GridSearch",
    "RandomSearch",
    "EvolutionarySearch",
    "SearchResult",
]
