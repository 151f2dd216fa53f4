"""Weight initialisation schemes.

All initialisers take an explicit :class:`numpy.random.Generator` so that
every experiment in the reproduction is seeded and repeatable (a requirement
for the per-figure benchmark harness, which compares runs across
configurations).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "calculate_fan",
    "xavier_uniform",
    "kaiming_uniform",
    "kaiming_normal",
    "zeros",
    "ones",
    "normal",
    "uniform",
]


def calculate_fan(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor shape.

    For linear layers the shape is ``(out_features, in_features)``; for 1-D
    convolutions it is ``(out_channels, in_channels, kernel_size)`` where the
    kernel size multiplies both fans (PyTorch convention).
    """
    if len(shape) < 2:
        raise ValueError("fan computation requires at least a 2-D shape")
    receptive_field = 1
    for dim in shape[2:]:
        receptive_field *= dim
    fan_in = shape[1] * receptive_field
    fan_out = shape[0] * receptive_field
    return fan_in, fan_out


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = calculate_fan(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator, a: float = math.sqrt(5)) -> np.ndarray:
    """He/Kaiming uniform initialisation (PyTorch's default for conv/linear)."""
    fan_in, _ = calculate_fan(shape)
    gain = math.sqrt(2.0 / (1.0 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def kaiming_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialisation for ReLU networks."""
    fan_in, _ = calculate_fan(shape)
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases, layer-norm offsets)."""
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    """All-one initialisation (layer-norm / batch-norm gains)."""
    return np.ones(shape)


def normal(shape: Tuple[int, ...], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Truncated-free normal initialisation used for class tokens in ViT."""
    return rng.normal(0.0, std, size=shape)


def uniform(shape: Tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    """Uniform initialisation in ``[-bound, bound]``."""
    return rng.uniform(-bound, bound, size=shape)
