"""Loss functions as modules."""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module
from .tensor import Tensor

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss(Module):
    """Softmax cross-entropy with optional label smoothing.

    The reproduction uses plain cross-entropy (no smoothing) for both the
    inter-subject pre-training and the subject-specific fine-tuning, matching
    the paper's standard classification setup.
    """

    def __init__(self, label_smoothing: float = 0.0) -> None:
        super().__init__()
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must lie in [0, 1)")
        self.label_smoothing = label_smoothing

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, targets, label_smoothing=self.label_smoothing)

    def __repr__(self) -> str:
        return f"CrossEntropyLoss(label_smoothing={self.label_smoothing})"

