"""Quantisation-aware training (QAT).

The paper performs "a few epochs of quantisation aware training" to move
from fp32 to int8 with minimal accuracy loss.  The standard QAT recipe is
reproduced here with the straight-through estimator (STE):

* a *shadow* fp32 copy of every parameter is kept as the master weights;
* on every training step the model weights are replaced by their
  fake-quantised (quantise-dequantise) version before the forward pass;
* gradients flow as if the quantiser were the identity (STE) and are
  applied to the shadow weights.

After QAT, :func:`repro.serve.build_int8_backend` (serving) or
:func:`repro.deploy.deploy_graph` (deployment report, Table I's Q. Acc.)
lowers the fine-tuned model to the int8 executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..data.dataset import ArrayDataset, DataLoader
from ..nn import CrossEntropyLoss, clip_grad_norm
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..utils.logging import get_logger
from ..utils.rng import derive_rng
from .quantizers import QuantizationSpec, compute_scale_zero_point, fake_quantize

__all__ = ["QATConfig", "QATResult", "quantization_aware_finetune"]

_LOGGER = get_logger("qat")


@dataclass
class QATConfig:
    """Hyper-parameters of the quantisation-aware fine-tuning phase."""

    epochs: int = 5
    learning_rate: float = 5e-5
    batch_size: int = 64
    weight_bits: int = 8
    max_grad_norm: float = 5.0
    seed: int = 0

    @classmethod
    def paper(cls) -> "QATConfig":
        """A few epochs of QAT, as described in Sec. III-C."""
        return cls(epochs=5)

    @classmethod
    def small(cls, seed: int = 0) -> "QATConfig":
        """Reduced preset for the benchmark harness."""
        return cls(epochs=2, seed=seed)

    @classmethod
    def tiny(cls, seed: int = 0) -> "QATConfig":
        """Smoke-test preset."""
        return cls(epochs=1, batch_size=32, seed=seed)


@dataclass
class QATResult:
    """Outcome of a QAT run."""

    epochs: int
    final_train_accuracy: float
    final_train_loss: float


def _fake_quantize_weights(model: Module, spec: QuantizationSpec) -> Dict[str, np.ndarray]:
    """Replace every parameter by its fake-quantised version; return the shadows."""
    shadows: Dict[str, np.ndarray] = {}
    for name, parameter in model.named_parameters():
        shadows[name] = parameter.data.copy()
        scale, zero_point = compute_scale_zero_point(
            parameter.data.min(), parameter.data.max(), spec
        )
        parameter.data[...] = fake_quantize(parameter.data, scale, zero_point, spec)
    return shadows


def _restore_weights(model: Module, shadows: Dict[str, np.ndarray]) -> None:
    for name, parameter in model.named_parameters():
        parameter.data[...] = shadows[name]


def quantization_aware_finetune(
    model: Module,
    train_dataset: ArrayDataset,
    config: Optional[QATConfig] = None,
) -> QATResult:
    """Fine-tune ``model`` in place with fake-quantised weights (STE).

    Parameters
    ----------
    model:
        A trained float model; its weights are updated in place and remain
        in float (lower afterwards with ``build_int8_backend`` or
        ``deploy_graph``).
    train_dataset:
        The subject-specific training set (sessions 1-5).
    config:
        QAT hyper-parameters.
    """
    config = config if config is not None else QATConfig()
    spec = QuantizationSpec(bits=config.weight_bits, symmetric=True)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    loss_function = CrossEntropyLoss()
    rng = derive_rng("qat", seed=config.seed)
    loader = DataLoader(train_dataset, batch_size=config.batch_size, shuffle=True, rng=rng)

    final_accuracy = 0.0
    final_loss = 0.0
    for epoch in range(1, config.epochs + 1):
        model.train()
        correct = 0
        seen = 0
        epoch_loss = 0.0
        for windows, labels in loader:
            shadows = _fake_quantize_weights(model, spec)
            logits = model(Tensor(windows))
            loss = loss_function(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            # Straight-through estimator: gradients computed at the quantised
            # point are applied to the full-precision shadow weights.
            _restore_weights(model, shadows)
            clip_grad_norm(optimizer.parameters, config.max_grad_norm)
            optimizer.step()

            predictions = np.argmax(logits.data, axis=-1)
            correct += int((predictions == labels).sum())
            seen += labels.shape[0]
            epoch_loss += float(loss.data) * labels.shape[0]
        final_accuracy = correct / max(seen, 1)
        final_loss = epoch_loss / max(seen, 1)
        _LOGGER.info(
            "QAT epoch %d/%d loss %.4f accuracy %.3f", epoch, config.epochs, final_loss, final_accuracy
        )
    return QATResult(
        epochs=config.epochs, final_train_accuracy=final_accuracy, final_train_loss=final_loss
    )
