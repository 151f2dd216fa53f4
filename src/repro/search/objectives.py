"""Candidate evaluation: accuracy, complexity and deployment objectives.

Hardware-aware architecture search needs two kinds of measurements per
candidate:

* **cost** — parameters, MACs, estimated GAP8 latency/energy and memory,
  from :func:`repro.deploy.estimate_deployment` over the traced candidate
  (about a millisecond per candidate);
* **quality** — validation accuracy after a (short) training run on the
  target subject's data, by far the expensive part.

:class:`CandidateEvaluation` bundles both; :class:`ComplexityEvaluator`
computes the cost half, :class:`TrainedAccuracyEvaluator` the quality half
(with a configurable epoch budget so the search harness stays tractable on
the NumPy substrate), and :func:`evaluate_candidate` combines them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

import numpy as np

from ..data.dataset import ArrayDataset
from ..deploy.report import estimate_deployment
from ..deploy.tracers import trace_model
from ..hw.gap8 import GAP8Config
from ..models.bioformer import Bioformer, BioformerConfig
from ..nn import Adam
from ..training.trainer import Trainer, TrainingConfig, evaluate
from .space import candidate_name

__all__ = [
    "CandidateEvaluation",
    "ComplexityEvaluator",
    "TrainedAccuracyEvaluator",
    "evaluate_candidate",
]


@dataclass
class CandidateEvaluation:
    """Everything the search strategies need to know about one candidate."""

    config: BioformerConfig
    accuracy: float
    params: int
    macs: int
    latency_ms: float
    energy_mj: float
    memory_kb: float
    train_accuracy: Optional[float] = None

    @property
    def name(self) -> str:
        """Short architecture identifier."""
        return candidate_name(self.config)

    @property
    def mmacs(self) -> float:
        """MACs in millions."""
        return self.macs / 1e6

    def meets(self, constraints: Dict[str, float]) -> bool:
        """Whether the candidate satisfies upper-bound deployment constraints.

        Supported keys: ``max_params``, ``max_macs``, ``max_latency_ms``,
        ``max_energy_mj``, ``max_memory_kb``.
        """
        checks = {
            "max_params": self.params,
            "max_macs": self.macs,
            "max_latency_ms": self.latency_ms,
            "max_energy_mj": self.energy_mj,
            "max_memory_kb": self.memory_kb,
        }
        for key, value in constraints.items():
            if key not in checks:
                raise KeyError(f"unknown constraint '{key}'")
            if checks[key] > value:
                return False
        return True


class ComplexityEvaluator:
    """GAP8 cost of a candidate's traced graph (no training involved)."""

    def __init__(self, gap8: Optional[GAP8Config] = None) -> None:
        self.gap8 = gap8 if gap8 is not None else GAP8Config()

    def __call__(self, config: BioformerConfig) -> Dict[str, float]:
        graph = trace_model(Bioformer(config))
        estimate = estimate_deployment(graph, self.gap8, inference_period_s=None)
        return {
            "params": graph.total_weight_elements,
            "macs": graph.total_macs,
            "latency_ms": estimate.latency_ms,
            "energy_mj": estimate.energy_mj,
            "memory_kb": estimate.memory_kilobytes,
        }


class TrainedAccuracyEvaluator:
    """Short-budget training evaluation of a candidate.

    Parameters
    ----------
    train, validation:
        Subject-specific training and held-out window datasets.
    epochs, batch_size, learning_rate:
        The (reduced) training budget per candidate.
    seed:
        Seed for weight init / shuffling, so the search is reproducible.
    """

    def __init__(
        self,
        train: ArrayDataset,
        validation: ArrayDataset,
        epochs: int = 5,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        seed: int = 0,
    ) -> None:
        if len(train) == 0 or len(validation) == 0:
            raise ValueError("training and validation datasets must be non-empty")
        self.train = train
        self.validation = validation
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed

    def __call__(self, config: BioformerConfig) -> Dict[str, float]:
        config = replace(config, seed=self.seed)
        model = Bioformer(config)
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=self.learning_rate),
            config=TrainingConfig(epochs=self.epochs, batch_size=self.batch_size),
            rng=np.random.default_rng(self.seed),
        )
        history = trainer.fit(self.train)
        report = evaluate(model, self.validation, num_classes=config.num_classes)
        return {
            "accuracy": report.accuracy,
            "train_accuracy": history.final_train_accuracy,
        }


def evaluate_candidate(
    config: BioformerConfig,
    accuracy_evaluator: Callable[[BioformerConfig], Dict[str, float]],
    complexity_evaluator: Optional[ComplexityEvaluator] = None,
) -> CandidateEvaluation:
    """Evaluate one candidate with the given quality and cost evaluators."""
    complexity_evaluator = (
        complexity_evaluator if complexity_evaluator is not None else ComplexityEvaluator()
    )
    cost = complexity_evaluator(config)
    quality = accuracy_evaluator(config)
    return CandidateEvaluation(
        config=config,
        accuracy=float(quality["accuracy"]),
        train_accuracy=quality.get("train_accuracy"),
        params=int(cost["params"]),
        macs=int(cost["macs"]),
        latency_ms=float(cost["latency_ms"]),
        energy_mj=float(cost["energy_mj"]),
        memory_kb=float(cost["memory_kb"]),
    )
