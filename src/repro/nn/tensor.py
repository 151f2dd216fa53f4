"""Reverse-mode automatic differentiation over NumPy arrays.

This module implements the :class:`Tensor` class, the foundation of the
``repro.nn`` deep-learning substrate.  A ``Tensor`` wraps a ``numpy.ndarray``
and records the operations applied to it so that gradients can later be
propagated backwards through the resulting computation graph, exactly like
``torch.Tensor`` with ``requires_grad=True``.

The design follows the classic "define-by-run" tape approach:

* every differentiable operation produces a new ``Tensor`` whose
  ``_backward`` closure knows how to push the output gradient onto the
  gradients of its inputs;
* :meth:`Tensor.backward` topologically sorts the recorded graph and calls
  the closures in reverse order;
* broadcasting is handled by summing gradients over the broadcast axes
  (:func:`unbroadcast`).

Only the operations needed by the Bioformer / TEMPONet models are
implemented, but they are implemented completely (full broadcasting,
arbitrary axes for reductions, negative indexing for transposes, ...), so
the module is usable as a small general-purpose autograd engine.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "inference_mode", "is_grad_enabled", "unbroadcast"]

ArrayLike = Union[np.ndarray, float, int, list, tuple]

# Switch mirroring ``torch.no_grad()``: while disabled, no graph is
# recorded, which makes pure inference both faster and allocation-free.
# Thread-local so an inference thread running under ``no_grad`` cannot
# disable gradients for a training loop on another thread.
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Return ``True`` when operations record the autograd graph."""
    return getattr(_GRAD_STATE, "enabled", True)


class no_grad:
    """Context manager (and decorator) that disables gradient recording.

    The switch is per-thread (as in PyTorch): entering ``no_grad`` on one
    thread leaves autograd untouched everywhere else.

    Example
    -------
    >>> with no_grad():
    ...     logits = model(x)
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GRAD_STATE.enabled = self._previous

    def __call__(self, function):
        def wrapper(*args, **kwargs):
            with no_grad():
                return function(*args, **kwargs)

        wrapper.__name__ = getattr(function, "__name__", "wrapped")
        wrapper.__doc__ = function.__doc__
        return wrapper


class inference_mode(no_grad):
    """Inference variant of :class:`no_grad` (mirrors ``torch.inference_mode``).

    Numerically identical to :class:`no_grad`; it lets inference code state
    its intent.  Modules run the same autograd forward either way, only
    without recording the graph.  Float serving does not use it: it replays
    the traced graph (:class:`repro.serve.FloatBackend`).
    """


def unbroadcast(gradient: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``gradient`` so that it matches ``shape``.

    When an operand of shape ``shape`` was broadcast to a larger shape
    during the forward pass, the corresponding gradient must be summed over
    every broadcast axis to recover a gradient of the original shape.

    Parameters
    ----------
    gradient:
        Gradient with the (possibly broadcast) output shape.
    shape:
        Shape of the original operand.
    """
    if gradient.shape == tuple(shape):
        return gradient
    # Sum over leading axes that were added by broadcasting.
    extra_dims = gradient.ndim - len(shape)
    if extra_dims > 0:
        gradient = gradient.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size 1 in the original operand.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and gradient.shape[axis] != 1
    )
    if axes:
        gradient = gradient.sum(axis=axes, keepdims=True)
    return gradient.reshape(shape)


def _as_array(data: ArrayLike, dtype=np.float64) -> np.ndarray:
    """Convert ``data`` to a float ndarray without copying when possible."""
    if isinstance(data, np.ndarray):
        if data.dtype == dtype:
            return data
        return data.astype(dtype)
    return np.asarray(data, dtype=dtype)


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array, scalar or nested sequence holding the tensor values.
    requires_grad:
        When ``True`` the tensor accumulates gradients in ``self.grad``
        during :meth:`backward`.
    name:
        Optional human-readable label, useful when debugging graphs.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_prev")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.name = name
        self._backward = None
        self._prev: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """NumPy dtype of the underlying array."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose of a 2-D tensor (alias for :meth:`transpose`)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the raw ndarray (shared memory, not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def copy(self) -> "Tensor":
        """Return a detached deep copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Wrap non-tensor operands so binary ops accept plain numbers."""
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make_child(self, data: np.ndarray, parents: Tuple["Tensor", ...], backward) -> "Tensor":
        """Create the output tensor of an op and register its backward."""
        requires = is_grad_enabled() and any(parent.requires_grad for parent in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(parent for parent in parents if parent.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, gradient: np.ndarray) -> None:
        """Add ``gradient`` into ``self.grad`` (allocating on first use)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += gradient

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(grad, other.shape))

        return self._make_child(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make_child(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(-grad, other.shape))

        return self._make_child(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad * other.data, self.shape))
            other._accumulate(unbroadcast(grad * self.data, other.shape))

        return self._make_child(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                unbroadcast(-grad * self.data / (other.data**2), other.shape)
            )

        return self._make_child(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__truediv__(self)

    def __pow__(self, exponent: Union[int, float]) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_child(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Batched matrix multiplication with full broadcasting support."""
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.expand_dims(grad, -1) * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad) if grad.ndim == 1 else (
                        np.expand_dims(self.data, -1) * grad
                    )
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(unbroadcast(grad_other, other.shape))

        return self._make_child(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make_child(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make_child(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return self._make_child(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make_child(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make_child(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_child(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at the origin)."""
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return self._make_child(out_data, (self,), backward)

    def clip(self, minimum: Optional[float] = None, maximum: Optional[float] = None) -> "Tensor":
        """Clamp values to ``[minimum, maximum]``; gradient is zero outside."""
        out_data = np.clip(self.data, minimum, maximum)
        inside = np.ones_like(self.data, dtype=bool)
        if minimum is not None:
            inside &= self.data >= minimum
        if maximum is not None:
            inside &= self.data <= maximum

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * inside)

        return self._make_child(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum of elements over the given axis (or all axes)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy())

        return self._make_child(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over the given axis (or all axes)."""
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy() / count)

        return self._make_child(out_data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased variance (denominator ``N``) over the given axis."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over the given axis; ties share gradient equally."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded_out = out_data
            expanded_grad = grad
            if axis is not None and not keepdims:
                expanded_out = np.expand_dims(out_data, axis)
                expanded_grad = np.expand_dims(grad, axis)
            mask = (self.data == expanded_out).astype(self.data.dtype)
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * expanded_grad / counts)

        return self._make_child(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum over the given axis (implemented via :meth:`max`)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        """Return a tensor with the same data and a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return self._make_child(out_data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten all dimensions from ``start_dim`` onward into one."""
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(new_shape)

    def transpose(self, *axes) -> "Tensor":
        """Permute dimensions (defaults to reversing them)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make_child(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Exchange two axes of the tensor."""
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(axes)

    def expand_dims(self, axis: int) -> "Tensor":
        """Insert a new axis of length one at position ``axis``."""
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return self._make_child(out_data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        """Remove axes of length one."""
        original_shape = self.shape
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return self._make_child(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make_child(out_data, (self,), backward)

    def pad(self, pad_width: Sequence[Tuple[int, int]], value: float = 0.0) -> "Tensor":
        """Pad the tensor with a constant ``value``.

        ``pad_width`` follows the :func:`numpy.pad` convention: one
        ``(before, after)`` pair per dimension.
        """
        pad_width = tuple(tuple(pair) for pair in pad_width)
        out_data = np.pad(self.data, pad_width, mode="constant", constant_values=value)
        slices = tuple(
            slice(before, before + size) for (before, _), size in zip(pad_width, self.shape)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[slices])

        return self._make_child(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Combination
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate a sequence of tensors along ``axis``."""
        tensors = [Tensor._ensure(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        reference = tensors[0]

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                indexer = [slice(None)] * grad.ndim
                indexer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(indexer)])

        return reference._make_child(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new axis."""
        tensors = [Tensor._ensure(t) for t in tensors]
        expanded = [t.expand_dims(axis) for t in tensors]
        return Tensor.concatenate(expanded, axis=axis)

    @staticmethod
    def where(condition: np.ndarray, positive: "Tensor", negative: "Tensor") -> "Tensor":
        """Select from ``positive`` where ``condition`` else ``negative``."""
        positive = Tensor._ensure(positive)
        negative = Tensor._ensure(negative)
        condition = np.asarray(condition, dtype=bool)
        out_data = np.where(condition, positive.data, negative.data)

        def backward(grad: np.ndarray) -> None:
            positive._accumulate(unbroadcast(grad * condition, positive.shape))
            negative._accumulate(unbroadcast(grad * (~condition), negative.shape))

        return positive._make_child(out_data, (positive, negative), backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, gradient: Optional[np.ndarray] = None) -> None:
        """Back-propagate gradients from this tensor through the graph.

        Parameters
        ----------
        gradient:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1`` which is only valid for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError("gradient must be provided for non-scalar outputs")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=self.data.dtype)

        ordering: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS post-order to avoid recursion limits on deep graphs.
        while stack:
            node, processed = stack.pop()
            if processed:
                ordering.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(gradient)
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # Free the graph: intermediate closures are not reusable anyway.
        for node in ordering:
            if node is not self and node._backward is not None:
                node._backward = None
                node._prev = ()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        """Tensor filled with zeros."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        """Tensor filled with ones."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> "Tensor":
        """Tensor of standard-normal samples (optionally from ``rng``)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        generator = rng if rng is not None else np.random.default_rng()
        return Tensor(generator.standard_normal(shape), requires_grad=requires_grad)
