"""Functional (stateless) neural-network operations.

Every function in this module consumes and produces :class:`repro.nn.Tensor`
objects and is differentiable through the autograd engine.  The module plays
the role of ``torch.nn.functional`` for the reproduction: the layer classes
in :mod:`repro.nn.layers` are thin stateful wrappers around these functions.

The float forward ops of a deployed graph (:func:`linear`, :func:`relu`,
:func:`gelu`, :func:`softmax`, :func:`layer_norm`, :func:`avg_pool1d`) also
run on plain ``np.ndarray`` inputs, without autograd: the float graph
executor (:class:`repro.deploy.FloatGraphExecutor`) binds them, and
:func:`conv1d` runs its forward through :func:`conv1d_array`, which the
executor binds too.  A traced graph therefore runs the very code the model
trains with, and reproduces ``model(Tensor(x))`` bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, TypeVar

import numpy as np

from .tensor import Tensor

__all__ = [
    "linear",
    "relu",
    "gelu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "layer_norm",
    "batch_norm",
    "fold_batch_norm",
    "im2col",
    "conv1d_array",
    "conv1d",
    "avg_pool1d",
    "max_pool1d",
    "cross_entropy",
    "one_hot",
    "nll_loss",
    "mse_loss",
]

#: A ``Tensor`` (autograd) or an ``np.ndarray`` (the float graph executor).
Array = TypeVar("Array", Tensor, np.ndarray)


# Operator overloading runs the float ops on both types; these four and
# :func:`relu` cover the ``Tensor`` methods ``np.ndarray`` lacks, and are the
# only places an op branches on type.
def _tanh(x: Array) -> Array:
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def _exp(x: Array) -> Array:
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def _sqrt(x: Array) -> Array:
    return x.sqrt() if isinstance(x, Tensor) else np.sqrt(x)


def _detach(x: Array) -> Array:
    return x.detach() if isinstance(x, Tensor) else x


def linear(x: Array, weight: Array, bias: Optional[Array] = None) -> Array:
    """Affine transformation ``x @ weight.T + bias``.

    Parameters
    ----------
    x:
        Input of shape ``(..., in_features)``.
    weight:
        Weight matrix of shape ``(out_features, in_features)``.
    bias:
        Optional bias of shape ``(out_features,)``.
    """
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def relu(x: Array) -> Array:
    """Rectified linear unit, ``max(x, 0)``.

    An array takes ``Tensor.relu``'s ``x * mask``, so a negative input gives
    ``-0.0`` on both types.
    """
    return x.relu() if isinstance(x, Tensor) else x * (x > 0)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def gelu(x: Array) -> Array:
    """Gaussian error linear unit (tanh approximation).

    This is the same approximation used by BERT/ViT implementations and by
    the integer-only I-BERT kernels the paper deploys, which keeps the
    float and quantized paths consistent.
    """
    coefficient = math.sqrt(2.0 / math.pi)
    inner = (x + (x * x * x) * 0.044715) * coefficient
    return x * (_tanh(inner) + 1.0) * 0.5


def softmax(x: Array, axis: int = -1) -> Array:
    """Numerically stable softmax along ``axis``."""
    shifted = x - _detach(x.max(axis=axis, keepdims=True))
    exponentials = _exp(shifted)
    return exponentials / exponentials.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(
    x: Tensor,
    probability: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: zero each element with ``probability`` when training."""
    if not training or probability <= 0.0:
        return x
    if probability >= 1.0:
        raise ValueError("dropout probability must be < 1")
    generator = rng if rng is not None else np.random.default_rng()
    mask = (generator.random(x.shape) >= probability).astype(x.data.dtype)
    scale = 1.0 / (1.0 - probability)
    return x * Tensor(mask * scale)


def layer_norm(
    x: Array,
    weight: Optional[Array] = None,
    bias: Optional[Array] = None,
    eps: float = 1e-5,
) -> Array:
    """Layer normalisation over the last dimension.

    Normalises each feature vector to zero mean / unit variance and applies
    an optional learnable affine transform.
    """
    mean = x.mean(axis=-1, keepdims=True)
    variance = x.var(axis=-1, keepdims=True)
    normalised = (x - mean) / _sqrt(variance + eps)
    if weight is not None:
        normalised = normalised * weight
    if bias is not None:
        normalised = normalised + bias
    return normalised


def fold_batch_norm(
    running_mean: np.ndarray,
    running_var: np.ndarray,
    weight: Optional[Tensor],
    bias: Optional[Tensor],
    eps: float = 1e-5,
) -> Tuple[Tensor, Tensor]:
    """Evaluation batch-norm as a per-channel affine ``(scale, shift)``.

    ``scale = weight / sqrt(running_var + eps)`` and
    ``shift = bias - running_mean * scale``, so the normalised output is
    ``x * scale + shift``.  This is the single definition of eval-mode
    batch-norm: :func:`batch_norm` applies it and the deployment tracer
    folds it into a ``channel_affine`` node, which keeps the traced graph
    bitwise equal to the model.  Gradients flow into ``weight``/``bias``.
    """
    std = np.sqrt(np.asarray(running_var) + eps)
    scale = weight / std if weight is not None else Tensor(1.0 / std)
    shift = (bias if bias is not None else 0.0) - Tensor(running_mean) * scale
    return scale, shift


def batch_norm(
    x: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    weight: Optional[Tensor],
    bias: Optional[Tensor],
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over the batch (and length) dimensions.

    Supports 2-D inputs ``(batch, features)`` and 3-D inputs
    ``(batch, channels, length)``.  ``running_mean`` / ``running_var`` are
    updated in place when ``training`` is true; in evaluation the running
    statistics are folded into ``x * scale + shift`` by
    :func:`fold_batch_norm`.
    """
    if x.ndim == 2:
        axes: Tuple[int, ...] = (0,)
        stat_shape = (1, -1)
    elif x.ndim == 3:
        axes = (0, 2)
        stat_shape = (1, -1, 1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 3-D input, got {x.ndim}-D")

    if not training:
        scale, shift = fold_batch_norm(running_mean, running_var, weight, bias, eps)
        return x * scale.reshape(stat_shape) + shift.reshape(stat_shape)

    batch_mean = x.mean(axis=axes, keepdims=True)
    batch_var = x.var(axis=axes, keepdims=True)
    running_mean *= 1.0 - momentum
    running_mean += momentum * batch_mean.data.reshape(-1)
    running_var *= 1.0 - momentum
    running_var += momentum * batch_var.data.reshape(-1)

    normalised = (x - batch_mean) / (batch_var + eps).sqrt()
    if weight is not None:
        normalised = normalised * weight.reshape(stat_shape)
    if bias is not None:
        normalised = normalised + bias.reshape(stat_shape)
    return normalised


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int, dilation: int) -> np.ndarray:
    """Lower a ``(B, C, L)`` array to convolution patches ``(B, L_out, C*K)``.

    One fancy-indexed gather builds every ``(output position, tap)`` pair,
    so a 1-D convolution becomes a single matmul against the flattened
    ``(O, C*K)`` weight matrix.  The framework convolution, the float graph
    executor and the integer engine all lower through this function, which
    keeps their contraction order (and hence their bits) identical.
    """
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    batch, channels, length = x.shape
    out_length = (length - (dilation * (kernel - 1) + 1)) // stride + 1
    if out_length <= 0:
        raise ValueError(
            f"conv1d produces non-positive output length ({out_length}) "
            f"for padded input length {length}"
        )
    starts = np.arange(out_length) * stride
    taps = np.arange(kernel) * dilation
    # (B, C, L_out, K) -> (B, L_out, C, K) -> (B, L_out, C*K)
    columns = x[:, :, starts[:, None] + taps[None, :]].transpose(0, 2, 1, 3)
    return columns.reshape(batch, out_length, channels * kernel)


def conv1d_array(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """The forward of :func:`conv1d` on arrays: ``(output, patches)``.

    :func:`im2col` plus one batched matmul against the flattened
    ``(O, C*K)`` weight: the lowering and contraction the integer engine
    and the generated C code use too.  ``patches`` is the ``(B, L_out,
    C*K)`` im2col matrix, which the autograd backward keeps for the weight
    gradient.
    """
    in_channels = x.shape[1]
    out_channels, weight_in_channels, kernel = weight.shape
    if in_channels != weight_in_channels:
        raise ValueError(
            f"conv1d channel mismatch: weight expects {weight_in_channels} input channels, "
            f"input has {in_channels}"
        )
    patches = im2col(x, kernel, stride, padding, dilation)
    output = patches @ weight.reshape(out_channels, in_channels * kernel).T  # (B, L_out, O)
    if bias is not None:
        output = output + bias
    return output.transpose(0, 2, 1), patches


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> Tensor:
    """1-D cross-correlation, the workhorse of both Bioformer and TEMPONet.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, length)``.
    weight:
        Filters of shape ``(out_channels, in_channels, kernel_size)``.
    bias:
        Optional bias of shape ``(out_channels,)``.
    stride, padding, dilation:
        Usual convolution hyper-parameters (single integers).

    Implementation
    --------------
    The forward is :func:`conv1d_array`, a matrix multiplication over
    :func:`im2col` patches, with a fused, hand-written backward pass: the
    input gradient is reconstructed tap-by-tap (``kernel_size`` vectorised
    additions) instead of a generic scatter-add, which is what makes
    training the TEMPONet baseline practical on the NumPy substrate.
    """
    out_data, columns_flat = conv1d_array(
        x.data, weight.data, None if bias is None else bias.data, stride, padding, dilation
    )
    batch, in_channels, length = x.shape
    out_channels, _, kernel = weight.shape
    out_length = columns_flat.shape[1]
    flat_weight = weight.data.reshape(out_channels, in_channels * kernel)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        # grad: (batch, out_channels, out_length) -> (batch, out_length, out_channels)
        grad_out = grad.transpose(0, 2, 1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_out.sum(axis=(0, 1)))
        if weight.requires_grad:
            grad_flat_weight = np.einsum("bto,btk->ok", grad_out, columns_flat)
            weight._accumulate(grad_flat_weight.reshape(out_channels, in_channels, kernel))
        if x.requires_grad:
            # (batch, out_length, C*K) -> (batch, out_length, C, K)
            grad_columns = (grad_out @ flat_weight).reshape(
                batch, out_length, in_channels, kernel
            )
            grad_padded = np.zeros((batch, in_channels, length + 2 * padding), dtype=grad.dtype)
            starts = np.arange(out_length) * stride
            for tap in range(kernel):
                positions = starts + tap * dilation
                grad_padded[:, :, positions] += grad_columns[:, :, :, tap].transpose(0, 2, 1)
            if padding > 0:
                grad_padded = grad_padded[:, :, padding : padding + length]
            x._accumulate(grad_padded)

    return x._make_child(out_data, tuple(parents), backward)


def avg_pool1d(x: Array, kernel_size: int, stride: Optional[int] = None) -> Array:
    """Average pooling over the last dimension of a ``(B, C, L)`` tensor."""
    stride = stride if stride is not None else kernel_size
    batch, channels, length = x.shape
    out_length = (length - kernel_size) // stride + 1
    starts = np.arange(out_length) * stride
    taps = np.arange(kernel_size)
    gather_index = starts[:, None] + taps[None, :]
    windows = x[:, :, gather_index]
    return windows.mean(axis=-1)


def max_pool1d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over the last dimension of a ``(B, C, L)`` tensor."""
    stride = stride if stride is not None else kernel_size
    batch, channels, length = x.shape
    out_length = (length - kernel_size) // stride + 1
    starts = np.arange(out_length) * stride
    taps = np.arange(kernel_size)
    gather_index = starts[:, None] + taps[None, :]
    windows = x[:, :, gather_index]
    return windows.max(axis=-1)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a one-hot encoding of integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("labels out of range for one_hot encoding")
    encoded = np.zeros((labels.size, num_classes))
    encoded[np.arange(labels.size), labels.reshape(-1)] = 1.0
    return encoded.reshape(labels.shape + (num_classes,))


def nll_loss(log_probabilities: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probabilities``."""
    num_classes = log_probabilities.shape[-1]
    encoded = Tensor(one_hot(targets, num_classes))
    per_sample = -(log_probabilities * encoded).sum(axis=-1)
    return per_sample.mean()


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Softmax cross-entropy between ``logits`` and integer ``targets``.

    Parameters
    ----------
    logits:
        Unnormalised scores of shape ``(batch, num_classes)``.
    targets:
        Integer class labels of shape ``(batch,)``.
    label_smoothing:
        Optional label-smoothing factor in ``[0, 1)``.
    """
    num_classes = logits.shape[-1]
    log_probabilities = log_softmax(logits, axis=-1)
    encoded = one_hot(targets, num_classes)
    if label_smoothing > 0.0:
        encoded = encoded * (1.0 - label_smoothing) + label_smoothing / num_classes
    per_sample = -(log_probabilities * Tensor(encoded)).sum(axis=-1)
    return per_sample.mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between ``prediction`` and ``target``."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    difference = prediction - target
    return (difference * difference).mean()
