"""Tracer: record a model's own forward pass as a deployment :class:`ComputeGraph`.

:func:`trace_model` runs ``model.forward`` on a batch-1 *recording tensor*
with a static shape and no values.  A call of a module in :data:`LEAVES`
appends a node named after the module's path; other modules run their own
``forward``, whose tensor operations append ``<module path>.<op>`` nodes.
No kernel runs, anything else raises ``TypeError``, and the model is only
read.  The capture stage in ``docs/compiler.md`` describes the contract.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Dict, List, Tuple

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor
from .graph import ComputeGraph, GraphNode, TensorSpec

__all__ = ["LEAVES", "trace_model"]


def _require(condition, operation: str) -> None:
    if not condition:
        raise TypeError(f"cannot trace {operation}")


def _copies(module: nn.Module, *names: str) -> dict:
    return {n: getattr(module, n).data.copy() for n in names if getattr(module, n) is not None}


def _batchnorm(bn: nn.BatchNorm1d, shape):
    _require(len(shape) == 2, f"BatchNorm1d on a {len(shape) + 1}-D input")
    scale, shift = F.fold_batch_norm(bn.running_mean, bn.running_var, bn.weight, bn.bias, bn.eps)
    return "channel_affine", shape, {}, {"scale": scale.data, "shift": shift.data}


def _softmax(softmax: nn.Softmax, shape):
    axis, rank = softmax.axis, len(shape) + 1
    _require(-rank < axis < rank and axis != 0, f"Softmax(axis={axis}) on a {rank}-D input")
    return "softmax", shape, {"axis": axis if axis < 0 else axis - 1}, {}


def _flatten(flatten: nn.Flatten, shape):
    _require(flatten.start_dim == 1, f"Flatten(start_dim={flatten.start_dim})")
    return "flatten", (math.prod(shape),), {}, {}


#: Leaf handlers by exact module type.  ``handler(module, input_shape)``
#: returns ``(op, output_shape, attrs, weights)``, shapes without the batch
#: axis; ``None`` passes the input through.  Leaves have their evaluation
#: semantics: ``Dropout`` is the identity, ``BatchNorm1d`` a folded affine.
LEAVES: Dict[type, Callable] = {
    nn.Conv1d: lambda conv, shape: (
        "conv1d", (conv.out_channels, conv.output_length(shape[-1])),
        {"stride": conv.stride, "padding": conv.padding, "dilation": conv.dilation},
        _copies(conv, "weight", "bias"),
    ),
    nn.Linear: lambda linear, shape: (
        "linear", shape[:-1] + (linear.out_features,), {}, _copies(linear, "weight", "bias")
    ),
    nn.LayerNorm: lambda norm, shape: (
        "layernorm", shape, {"eps": norm.eps}, _copies(norm, "weight", "bias")
    ),
    nn.BatchNorm1d: _batchnorm,
    nn.ReLU: lambda relu, shape: ("relu", shape, {}, {}),
    nn.GELU: lambda gelu, shape: ("gelu", shape, {}, {}),
    nn.Softmax: _softmax,
    nn.AvgPool1d: lambda pool, shape: (
        "avgpool1d", shape[:-1] + ((shape[-1] - pool.kernel_size) // pool.stride + 1,),
        {"kernel_size": pool.kernel_size, "stride": pool.stride}, {},
    ),
    nn.Flatten: _flatten,
    nn.Dropout: lambda dropout, shape: None,
}


def _constant(value) -> bool:
    return isinstance(value, Tensor) and not isinstance(value, _Recording)


def _dims(args) -> Tuple[int, ...]:
    return tuple(args[0]) if len(args) == 1 and isinstance(args[0], (tuple, list)) else args


class _Recorder:
    """The graph one trace builds, shared by its recording tensors."""

    def __init__(self, model: nn.Module) -> None:
        self.paths = {id(module): path for path, module in model.named_modules()}
        self.scope = ""  # "<path>." of the module whose forward is running
        self.nodes: List[GraphNode] = []
        self.uses: Dict[str, int] = {}

    def record(self, name, op, inputs, shape, attrs=None, weights=None) -> "_Recording":
        count = self.uses.get(name, 0)
        self.uses[name] = count + 1
        name = f"{name}_{count}" if count else name
        inputs = [value._tensor() for value in inputs]
        output = TensorSpec(name, shape)
        self.nodes.append(GraphNode(name, op, inputs, output, attrs or {}, weights or {}))
        return _Recording(self, (1,) + shape, name)


class _Recording(Tensor):
    """A shape-only batch-1 activation; ``name`` is its graph tensor.

    While ``name`` is ``None`` the value is *pending*: its transpose, reshape
    or matmul node waits for the consumer, so that ``reshape`` + ``transpose``
    become one ``split_heads`` and ``matmul`` + ``* scale`` one ``matmul``.
    """

    __slots__ = ("_recorder", "shape", "_pending")

    def __init__(self, recorder: _Recorder, shape, name=None, pending=None) -> None:
        self._recorder = recorder
        self.shape = tuple(shape)
        self._pending = pending  # (node name, op, inputs, attrs)
        self.name = name
        self.requires_grad = False

    @property
    def data(self):
        _require(False, f"'{sys._getframe(1).f_code.co_name}': no graph node records it")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def _tensor(self) -> str:
        """The graph tensor of this value, recording its pending node first."""
        if self.name is None:
            name, op, inputs, attrs = self._pending
            _require(op != "reshape", f"a reshape to {self.shape} outside head split/merge")
            self.name = self._recorder.record(name, op, inputs, self.shape[1:], attrs).name
        return self.name

    def _pending_op(self):
        return self._pending[1] if self.name is None else None

    def _emit(self, op, inputs, shape, attrs=None, weights=None) -> "_Recording":
        return self._recorder.record(self._recorder.scope + op, op, inputs, shape, attrs, weights)

    def _defer(self, op, inputs, shape, attrs=None) -> "_Recording":
        pending = (self._recorder.scope + op, op, inputs, attrs or {})
        return _Recording(self._recorder, shape, pending=pending)

    def __module_call__(self, module: nn.Module, *args, **kwargs):
        recorder = self._recorder
        path = recorder.paths.get(id(module), type(module).__name__)
        handler = LEAVES.get(type(module))
        if handler is not None:
            node = handler(module, self.shape[1:])  # (op, shape, attrs, weights)
            return self if node is None else recorder.record(path, node[0], [self], *node[1:])
        _require(module._modules, f"{type(module).__name__} module '{path}': not a registered leaf")
        outer, recorder.scope = recorder.scope, f"{path}." if path else ""
        try:
            return module.forward(self, *args, **kwargs)
        finally:
            recorder.scope = outer

    def __add__(self, other) -> "_Recording":
        shape = self.shape[1:]
        if isinstance(other, _Recording):
            _require(other.shape == self.shape, f"'+' of shapes {self.shape} and {other.shape}")
            return self._emit("add", [self, other], shape)
        _require(_constant(other) and other.shape in (self.shape, shape), f"'+' of {other!r}")
        positions = other.data.reshape(shape).copy()
        return self._emit("add_positional", [self], shape, weights={"positions": positions})

    def __mul__(self, other) -> "_Recording":
        scales = self._pending_op() == "matmul" and self._pending[3]["scale"] == 1.0
        _require(scales and isinstance(other, (int, float)), "'*' other than scaling a matmul")
        name, op, inputs, attrs = self._pending
        scaled = (name, op, inputs, {**attrs, "scale": float(other)})
        return _Recording(self._recorder, self.shape, pending=scaled)

    def matmul(self, other) -> "_Recording":
        _require(isinstance(other, _Recording), "matmul with a constant operand")
        rank = other.ndim - 1
        swap_last = tuple(range(rank - 2)) + (rank - 1, rank - 2)
        transpose_b = other._pending_op() == "transpose" and other._pending[3]["axes"] == swap_last
        right = other._pending[2][0] if transpose_b else other
        columns = right.shape[-2] if transpose_b else right.shape[-1]
        attrs = {"transpose_b": transpose_b, "scale": 1.0, "inner_dim": self.shape[-1]}
        return self._defer("matmul", [self, right], self.shape[:-1] + (columns,), attrs)

    def transpose(self, *axes) -> "_Recording":
        axes = _dims(axes)
        _require(axes[:1] == (0,), f"a transpose {axes} that moves the batch axis")
        shape = tuple(self.shape[axis] for axis in axes)
        if self._pending_op() == "reshape" and axes == (0, 2, 1, 3):
            (source,) = self._pending[2]
            batch, sequence, heads, head_dim = self.shape
            if source.shape == (batch, sequence, heads * head_dim):
                attrs = {"num_heads": heads, "head_dim": head_dim}
                return self._emit("split_heads", [source], shape[1:], attrs)
        return self._defer("transpose", [self], shape, {"axes": tuple(a - 1 for a in axes[1:])})

    def reshape(self, *shape) -> "_Recording":
        shape = _dims(shape)
        if self._pending_op() == "transpose" and self._pending[3]["axes"] == (1, 0, 2):
            (source,) = self._pending[2]
            batch, heads, sequence, head_dim = source.shape
            if shape == (batch, sequence, heads * head_dim):
                attrs = {"num_heads": heads, "head_dim": head_dim}
                return self._emit("merge_heads", [source], shape[1:], attrs)
        return self._defer("reshape", [self], shape)

    def concat(self, *others, axis: int = 0) -> "_Recording":
        token = others[0] if len(others) == 1 else None
        appends = _constant(token) and self.ndim == 3 and token.shape == (1, 1, self.shape[2])
        _require(appends and axis == 1, "concat other than appending one constant token")
        shape, token = (self.shape[1] + 1, self.shape[2]), token.data.reshape(1, -1).copy()
        return self._emit("append_token", [self], shape, weights={"token": token})

    def __getitem__(self, index) -> "_Recording":
        every = slice(None)
        token = isinstance(index, tuple) and len(index) == 3 and isinstance(index[1], int)
        spans = token and all(isinstance(part, slice) and part == every for part in index[::2])
        _require(self.ndim == 3 and spans, f"indexing with {index!r}")
        return self._emit("select_token", [self], self.shape[2:], {"index": index[1]})

    def mean(self, axis=None, keepdims: bool = False) -> "_Recording":
        _require(self.ndim == 3 and axis == 1 and not keepdims, f"mean over axis {axis}")
        return self._emit("mean_tokens", [self], self.shape[2:])


def trace_model(model: nn.Module, name: str = "") -> ComputeGraph:
    """Trace ``model`` on one ``(model.config.num_channels, .window_samples)`` window.

    The graph is named ``name`` or ``model.name`` and outputs ``logits``; the
    float executor runs it bit for bit like ``model(Tensor(x))`` in eval mode.
    """
    _require(isinstance(model, nn.Module), f"object of type {type(model).__name__}")
    config = model.config
    graph_input = TensorSpec("input", (config.num_channels, config.window_samples))
    recorder = _Recorder(model)
    output = model(_Recording(recorder, (1,) + graph_input.shape, graph_input.name))
    nodes = recorder.nodes
    ends = isinstance(output, _Recording) and nodes and output._tensor() == nodes[-1].name
    _require(ends, f"{type(model).__name__}: its forward does not end in a recorded node")
    nodes[-1].output = TensorSpec("logits", nodes[-1].output.shape)
    return ComputeGraph(name or getattr(model, "name", type(model).__name__), graph_input, nodes)
