"""Stateful neural-network layers built on the functional API.

The layer set covers exactly what the Bioformer and TEMPONet architectures
need: linear projections, 1-D convolutions (strided, padded and dilated),
layer / batch normalisation, dropout, pooling and the usual activations.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Conv1d",
    "LayerNorm",
    "BatchNorm1d",
    "Dropout",
    "ReLU",
    "GELU",
    "Softmax",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Flatten",
    "AvgPool1d",
    "MaxPool1d",
    "GlobalAveragePool1d",
]


def _default_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    """Return ``rng`` or a freshly seeded generator."""
    return rng if rng is not None else np.random.default_rng()


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to add a learnable bias.
    rng:
        Random generator used for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        generator = _default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), generator), name="weight"
        )
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias: Optional[Parameter] = Parameter(
                init.uniform((out_features,), generator, bound), name="bias"
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return (
            f"Linear(in_features={self.in_features}, out_features={self.out_features}, "
            f"bias={self.bias is not None})"
        )


class Conv1d(Module):
    """1-D convolution over ``(batch, channels, length)`` inputs.

    Supports stride, zero padding and dilation; groups are not needed by the
    reproduced architectures and are intentionally omitted.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        dilation: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        generator = _default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size), generator),
            name="weight",
        )
        if bias:
            bound = 1.0 / math.sqrt(in_channels * kernel_size)
            self.bias: Optional[Parameter] = Parameter(
                init.uniform((out_channels,), generator, bound), name="bias"
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv1d(
            x,
            self.weight,
            bias=None,
            stride=self.stride,
            padding=self.padding,
            dilation=self.dilation,
        )
        if self.bias is not None:
            out = out + self.bias.reshape((1, self.out_channels, 1))
        return out

    def output_length(self, length: int) -> int:
        """Length of the output sequence for an input of ``length`` samples."""
        effective = self.dilation * (self.kernel_size - 1) + 1
        return (length + 2 * self.padding - effective) // self.stride + 1

    def __repr__(self) -> str:
        return (
            f"Conv1d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, dilation={self.dilation})"
        )


class LayerNorm(Module):
    """Layer normalisation with learnable affine parameters."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)), name="weight")
        self.bias = Parameter(init.zeros((normalized_shape,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_shape}, eps={self.eps})"


class BatchNorm1d(Module):
    """Batch normalisation for 2-D ``(B, C)`` or 3-D ``(B, C, L)`` inputs."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(
            x,
            self.running_mean,
            self.running_var,
            self.weight,
            self.bias,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features}, eps={self.eps}, momentum={self.momentum})"


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, probability: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.probability = probability
        self._rng = _default_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.probability, training=self.training, rng=self._rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.probability})"


class ReLU(Module):
    """Rectified linear unit activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class GELU(Module):
    """Gaussian error linear unit activation (tanh approximation)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Softmax(Module):
    """Softmax along ``axis``; keeps the detached output of the last call."""

    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis
        self.last_output: Optional[np.ndarray] = None

    def forward(self, x: Tensor) -> Tensor:
        out = F.softmax(x, axis=self.axis)
        self.last_output = out.data.copy()
        return out


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Identity(Module):
    """Pass-through module, useful as a configurable placeholder."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Flatten(Module):
    """Flatten every dimension after ``start_dim`` into a single one."""

    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=self.start_dim)


class AvgPool1d(Module):
    """Average pooling over the temporal dimension of ``(B, C, L)`` inputs."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool1d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool1d(kernel_size={self.kernel_size}, stride={self.stride})"


class MaxPool1d(Module):
    """Max pooling over the temporal dimension of ``(B, C, L)`` inputs."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool1d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool1d(kernel_size={self.kernel_size}, stride={self.stride})"


class GlobalAveragePool1d(Module):
    """Average over the whole temporal dimension, producing ``(B, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=-1)
