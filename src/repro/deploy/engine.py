"""The bound node schedule of both graph executors, and the float executor.

:class:`BoundSchedule` binds each original kernel of a traced
:class:`~repro.deploy.graph.ComputeGraph` once, composes fused chains into
one closure and runs one loop over the bound kernels; the float and integer
executors differ only in their ``_bind``, and share the shape-only kernels.
The float executor's kernels run the framework's own NumPy calls in the
framework's order (no autograd, evaluation semantics), so a traced graph
reproduces ``model(Tensor(x))`` bit for bit.  It serves four purposes:

1. **Trace validation** — its output must equal the original model's forward
   pass exactly, which proves the tracer captured every operator faithfully
   (the test-suite pins this with exact equality);
2. **Calibration** — :meth:`FloatGraphExecutor.run` hands each activation,
   as it is produced, to an ``observe`` callback, which the compiler's
   calibration stage uses to pick activation scales;
3. **Reference for the integer engine** — the integer executor in
   :mod:`repro.deploy.int_engine` is checked against it;
4. **Float serving** — :class:`repro.serve.FloatBackend` runs the same
   traced graph that the int8 backend lowers.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from ..nn.functional import im2col
from .graph import SHAPE_OPERATORS, ComputeGraph, GraphNode
from .memory import last_uses

__all__ = [
    "SHAPE_KERNELS", "BoundSchedule", "FloatGraphExecutor", "Kernel", "Observer",
    "conv1d_reference", "gelu_reference", "softmax_reference",
]

#: A bound node kernel: ``kernel(x, tensors)`` maps the node's first input
#: ``x`` (and, for two-operand ops, the live ``tensors``) to its output.
Kernel = Callable[[np.ndarray, Dict[str, np.ndarray]], np.ndarray]

#: A per-tensor observer: ``observe(name, values)`` sees the graph input and
#: then each node's output, in schedule order, as it is produced.
Observer = Callable[[str, np.ndarray], None]


def conv1d_reference(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    dilation: int,
) -> np.ndarray:
    """1-D convolution over ``(batch, channels, length)`` inputs.

    :func:`~repro.nn.functional.im2col` plus one batched matmul: the same
    lowering and contraction as the framework convolution
    (:func:`repro.nn.functional.conv1d`), the integer engine and the
    generated C code.
    """
    batch, in_channels, _ = x.shape
    out_channels, weight_in, kernel = weight.shape
    if weight_in != in_channels:
        raise ValueError(
            f"weight expects {weight_in} input channels, activation has {in_channels}"
        )
    columns = im2col(x, kernel, stride, padding, dilation)
    output = columns @ weight.reshape(out_channels, in_channels * kernel).T  # (B, L_out, O)
    if bias is not None:
        output = output + bias
    return output.transpose(0, 2, 1)


def gelu_reference(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU in the op order of :func:`repro.nn.functional.gelu`."""
    coefficient = math.sqrt(2.0 / math.pi)
    inner = (x + (x * x * x) * 0.044715) * coefficient
    return x * (np.tanh(inner) + 1.0) * 0.5


def softmax_reference(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def avgpool1d_reference(x: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Average pooling over the last axis of ``(batch, channels, length)``.

    A window gather plus ``mean``, as :func:`repro.nn.functional.avg_pool1d`.
    """
    out_length = (x.shape[-1] - kernel_size) // stride + 1
    starts = np.arange(out_length) * stride
    return x[:, :, starts[:, None] + np.arange(kernel_size)[None, :]].mean(axis=-1)


def layernorm_reference(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
) -> np.ndarray:
    """Layer normalisation in the op order of :func:`repro.nn.functional.layer_norm`."""
    centered = x - x.mean(axis=-1, keepdims=True)
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(variance + eps) * weight + bias


def _flatten(node: GraphNode) -> Kernel:
    # Sized from the spec, not ``-1``: an empty batch has nothing to infer from.
    features = node.output.num_elements
    return lambda x, tensors: x.reshape(x.shape[0], features)


def _split_heads(node: GraphNode) -> Kernel:
    heads, head_dim = int(node.attrs["num_heads"]), int(node.attrs["head_dim"])
    return lambda x, tensors: x.reshape(x.shape[:2] + (heads, head_dim)).transpose(0, 2, 1, 3)


def _merge_heads(node: GraphNode) -> Kernel:
    return lambda x, tensors: x.transpose(0, 2, 1, 3).reshape(
        x.shape[0], x.shape[2], x.shape[1] * x.shape[3]
    )


def _transpose(node: GraphNode) -> Kernel:
    axes = (0,) + tuple(axis + 1 for axis in node.attrs["axes"])
    return lambda x, tensors: x.transpose(axes)


def _select_token(node: GraphNode) -> Kernel:
    index = int(node.attrs["index"])
    return lambda x, tensors: x[:, index, :]


#: The kernel binder of each shape-only operator.  Data movement is the same
#: on float and int8 activations, so both executors bind these.
SHAPE_KERNELS: Dict[str, Callable[[GraphNode], Kernel]] = {
    op: globals()[f"_{op}"] for op in SHAPE_OPERATORS
}


def _compose(kernels: List[Kernel]) -> Kernel:
    """One kernel that feeds each of ``kernels`` its predecessor's output."""
    head, *tails = kernels
    if not tails:
        return head

    def run(x, tensors):
        x = head(x, tensors)
        for tail in tails:
            x = tail(x, tensors)
        return x

    return run


class BoundSchedule:
    """A graph's node schedule bound once to kernels.

    ``bind(node)`` is called once per original kernel at construction:
    every member of every node's ``fusion_chain``, in schedule order.  A
    fused chain runs as one composed closure with the per-stage arithmetic
    of its members unchanged.  Each tail of a chain consumes only its
    predecessor's output (see :func:`repro.deploy.passes._forward_fuse`),
    so the intermediates never enter the tensor map.
    """

    def __init__(self, graph: ComputeGraph, bind: Callable[[GraphNode], Kernel]) -> None:
        self.graph = graph
        # Activations whose last consumer is node ``i``: ``run`` drops them
        # right after it, so a batch reuses freed buffers instead of
        # faulting in fresh pages for every intermediate.
        dead_after: List[List[str]] = [[] for _ in graph.nodes]
        for name, end in last_uses(graph).items():
            if name != graph.output.name:
                dead_after[end].append(name)
        self._steps = []
        for node, dead in zip(graph.nodes, dead_after):
            kernel = _compose([bind(sub) for sub in node.fusion_chain])
            self._steps.append((node.inputs[0], node.output.name, kernel, dead))

    def run(self, batch: np.ndarray, observe: Optional[Observer] = None) -> np.ndarray:
        """Run the schedule on a prepared input batch; returns the graph output.

        ``observe``, when given, sees the input and each node's output (a
        fused chain's intermediates are never materialised).
        """
        tensors = {self.graph.graph_input.name: batch}
        if observe is not None:
            observe(self.graph.graph_input.name, batch)
        for source, target, kernel, dead in self._steps:
            tensors[target] = kernel(tensors[source], tensors)
            if observe is not None:
                observe(target, tensors[target])
            for name in dead:
                del tensors[name]
        return tensors[self.graph.output.name]


class FloatGraphExecutor:
    """Executes a :class:`ComputeGraph` on float32/float64 NumPy arrays."""

    def __init__(self, graph: ComputeGraph) -> None:
        self.graph = graph
        self.schedule = BoundSchedule(graph, self._bind)

    def _bind(self, node: GraphNode) -> Kernel:
        """One original node's kernel, closed over its weights and attributes."""
        op, weights, attrs = node.op, node.weights, node.attrs
        if op in SHAPE_KERNELS:
            return SHAPE_KERNELS[op](node)
        if op == "conv1d":
            weight, bias = weights["weight"], weights.get("bias")
            stride, padding, dilation = (int(attrs[key]) for key in ("stride", "padding", "dilation"))
            return lambda x, tensors: conv1d_reference(x, weight, bias, stride, padding, dilation)
        if op == "linear":
            weight_t, bias = weights["weight"].T, weights.get("bias")
            if bias is None:
                return lambda x, tensors: x @ weight_t
            return lambda x, tensors: x @ weight_t + bias
        if op == "channel_affine":
            scale, shift = (weights[key].reshape(1, -1, 1) for key in ("scale", "shift"))
            return lambda x, tensors: x * scale + shift
        if op == "layernorm":
            weight, bias, eps = weights["weight"], weights["bias"], float(attrs["eps"])
            return lambda x, tensors: layernorm_reference(x, weight, bias, eps)
        if op == "relu":
            return lambda x, tensors: np.maximum(x, 0.0)
        if op == "gelu":
            return lambda x, tensors: gelu_reference(x)
        if op == "softmax":
            axis = int(attrs.get("axis", -1))
            return lambda x, tensors: softmax_reference(x, axis=axis)
        if op == "matmul":
            other, scale = node.inputs[1], float(attrs.get("scale", 1.0))
            if attrs.get("transpose_b", False):
                return lambda x, tensors: (x @ np.swapaxes(tensors[other], -1, -2)) * scale
            return lambda x, tensors: (x @ tensors[other]) * scale
        if op == "add":
            other = node.inputs[1]
            return lambda x, tensors: x + tensors[other]
        if op == "append_token":
            token = weights["token"].reshape(1, 1, -1)
            return lambda x, tensors: np.concatenate(
                [x, np.broadcast_to(token, (x.shape[0], 1, x.shape[2]))], axis=1
            )
        if op == "add_positional":
            positions = weights["positions"][None, :, :]
            return lambda x, tensors: x + positions
        if op == "avgpool1d":
            kernel_size, stride = int(attrs["kernel_size"]), int(attrs["stride"])
            return lambda x, tensors: avgpool1d_reference(x, kernel_size, stride)
        if op == "mean_tokens":
            return lambda x, tensors: x.mean(axis=1)
        raise NotImplementedError(f"float executor does not implement '{op}'")

    def run(self, inputs: np.ndarray, observe: Optional[Observer] = None) -> np.ndarray:
        """Run the graph on a ``(batch, channels, samples)`` input batch;
        ``observe`` sees every activation (see :meth:`BoundSchedule.run`)."""
        return self.schedule.run(self.graph.batched_input(inputs), observe)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Class predictions (argmax over the graph output logits)."""
        return np.argmax(self.run(inputs), axis=-1)
