"""Feature-extraction + classification pipelines and the baseline benchmark.

A classical sEMG recogniser is a three-stage pipeline: hand-crafted
time-domain features per channel, feature standardisation with training-set
statistics, and a shallow classifier.  :class:`FeaturePipeline` packages the
three stages behind the same window-level interface the deep models use, so
the benchmark harness can put TEMPONet, the Bioformers and the classical
baselines in one table.

:func:`default_baselines` returns the classifiers used by the comparison
(LDA, linear SVM, softmax regression, random forest, k-NN) and
:func:`evaluate_baselines` runs the paper's session protocol — train on
sessions 1-5, test per session on 6-10 — for each of them, which is the
experiment showing why inter-session variability pushed the field towards
end-to-end deep models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.splits import SubjectSplit
from ..utils.tables import format_table
from .base import BaseClassifier, StandardScaler
from .features import DEFAULT_FEATURES, FeatureSet
from .linear import LinearDiscriminantAnalysis, LinearSVM, SoftmaxRegression
from .neighbors import KNeighborsClassifier
from .trees import RandomForestClassifier

__all__ = [
    "FeaturePipeline",
    "BaselineResult",
    "default_baselines",
    "evaluate_baselines",
    "render_baseline_table",
]


class FeaturePipeline:
    """Feature extraction + standardisation + classical classifier.

    Parameters
    ----------
    classifier:
        Any :class:`~repro.baselines.base.BaseClassifier`.
    features:
        Feature selection; defaults to the Hudgins-style time-domain set.
    name:
        Label used in reports (defaults to the classifier class name).
    """

    def __init__(
        self,
        classifier: BaseClassifier,
        features: Optional[FeatureSet] = None,
        name: Optional[str] = None,
    ) -> None:
        self.classifier = classifier
        self.features = features if features is not None else FeatureSet(DEFAULT_FEATURES)
        self.scaler = StandardScaler()
        self.name = name if name is not None else type(classifier).__name__
        self._fitted = False

    # ------------------------------------------------------------------ #
    # Window-level interface (mirrors the deep models)
    # ------------------------------------------------------------------ #
    def _featurize(self, windows: np.ndarray) -> np.ndarray:
        return self.features.extract(np.asarray(windows))

    def fit(self, dataset: ArrayDataset) -> "FeaturePipeline":
        """Fit the scaler and the classifier on a window dataset."""
        if len(dataset) == 0:
            raise ValueError("cannot fit a pipeline on an empty dataset")
        matrix = self.scaler.fit_transform(self._featurize(dataset.windows))
        self.classifier.fit(matrix, dataset.labels)
        self._fitted = True
        return self

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Predict gesture classes for a batch of raw windows."""
        if not self._fitted:
            raise RuntimeError("pipeline must be fitted before prediction")
        return self.classifier.predict(self.scaler.transform(self._featurize(windows)))

    def score(self, dataset: ArrayDataset) -> float:
        """Accuracy on a window dataset."""
        if len(dataset) == 0:
            raise ValueError("cannot score an empty dataset")
        return float(np.mean(self.predict(dataset.windows) == dataset.labels))

    def score_per_session(self, per_session: Dict[int, ArrayDataset]) -> Dict[int, float]:
        """Accuracy broken down by test session (the Fig. 2 axis)."""
        return {session: self.score(dataset) for session, dataset in per_session.items()}

    @property
    def feature_dimension(self) -> Optional[int]:
        """Length of the extracted feature vector (known after fitting)."""
        if self.scaler.mean_ is None:
            return None
        return int(self.scaler.mean_.shape[0])


@dataclass
class BaselineResult:
    """Outcome of one classical baseline on the session protocol."""

    name: str
    train_accuracy: float
    test_accuracy: float
    per_session: Dict[int, float] = field(default_factory=dict)


def default_baselines(seed: int = 0) -> Dict[str, BaseClassifier]:
    """The classical classifiers compared against the deep models."""
    return {
        "LDA": LinearDiscriminantAnalysis(shrinkage=0.1),
        "LinearSVM": LinearSVM(epochs=25, seed=seed),
        "Softmax": SoftmaxRegression(epochs=150),
        "RandomForest": RandomForestClassifier(num_trees=20, max_depth=10, seed=seed),
        "kNN": KNeighborsClassifier(num_neighbors=7),
    }


def evaluate_baselines(
    split: SubjectSplit,
    classifiers: Optional[Dict[str, BaseClassifier]] = None,
    features: Optional[FeatureSet] = None,
    seed: int = 0,
) -> List[BaselineResult]:
    """Run the paper's session protocol for every classical baseline.

    Each classifier is trained on the subject's training sessions and scored
    on the held-out sessions, overall and per session.
    """
    classifiers = classifiers if classifiers is not None else default_baselines(seed)
    results: List[BaselineResult] = []
    for name, classifier in classifiers.items():
        pipeline = FeaturePipeline(classifier, features=features, name=name)
        pipeline.fit(split.train)
        results.append(
            BaselineResult(
                name=name,
                train_accuracy=pipeline.score(split.train),
                test_accuracy=pipeline.score(split.test),
                per_session=pipeline.score_per_session(split.test_per_session),
            )
        )
    return results


def render_baseline_table(results: Sequence[BaselineResult]) -> str:
    """Plain-text comparison table of the classical baselines."""
    sessions = sorted({session for result in results for session in result.per_session})
    headers = ["classifier", "train", "test"] + [f"s{session}" for session in sessions]
    rows = []
    for result in results:
        row = [
            result.name,
            f"{100 * result.train_accuracy:.1f}%",
            f"{100 * result.test_accuracy:.1f}%",
        ]
        row += [f"{100 * result.per_session.get(session, float('nan')):.1f}%" for session in sessions]
        rows.append(row)
    return format_table(headers, rows, title="Classical baselines (train sessions 1-5, test 6-10)")
