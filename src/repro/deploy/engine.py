"""The bound node schedule of both graph executors, and the float executor.

:class:`BoundSchedule` binds each original kernel of a traced
:class:`~repro.deploy.graph.ComputeGraph` once, composes fused chains into
one closure and runs one loop over the bound kernels; the float and integer
executors differ only in their ``_bind``, and share the shape-only kernels.
The float executor writes no float op of its own.  It binds the
framework's functional ops (:mod:`repro.nn.functional`, which run on
``np.ndarray`` as on ``Tensor``) for ``conv1d``, ``linear``, ``layernorm``,
``relu``, ``gelu``, ``softmax`` and ``avgpool1d``, and the forwards' own
array expressions (``+``, ``*``, ``@``, ``mean``) for the rest, so a traced
graph runs the code the model trains with and reproduces
``model(Tensor(x))`` bit for bit.  A new operator needs its functional op
written once, not a second float kernel here.  The float executor serves
four purposes:

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

from typing import Callable, Dict, List, Optional

import numpy as np

from ..nn import functional as F
from .graph import SHAPE_OPERATORS, ComputeGraph, GraphNode
from .memory import last_uses

__all__ = ["SHAPE_KERNELS", "BoundSchedule", "FloatGraphExecutor", "Kernel", "Observer"]

#: A bound node kernel: ``kernel(x, tensors)`` maps the node's first input
#: ``x`` (and, for two-operand ops, the live ``tensors``) to its output.
Kernel = Callable[[np.ndarray, Dict[str, np.ndarray]], np.ndarray]

#: A per-tensor observer: ``observe(name, values)`` sees the graph input and
#: then each node's output, in schedule order, as it is produced.
Observer = Callable[[str, np.ndarray], None]


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
            return lambda x, tensors: F.conv1d_array(x, weight, bias, stride, padding, dilation)[0]
        if op == "linear":
            weight, bias = weights["weight"], weights.get("bias")
            return lambda x, tensors: F.linear(x, weight, bias)
        if op == "channel_affine":
            scale, shift = (weights[key].reshape(1, -1, 1) for key in ("scale", "shift"))
            return lambda x, tensors: x * scale + shift
        if op == "layernorm":
            weight, bias, eps = weights["weight"], weights["bias"], float(attrs["eps"])
            return lambda x, tensors: F.layer_norm(x, weight, bias, eps)
        if op == "relu":
            return lambda x, tensors: F.relu(x)
        if op == "gelu":
            return lambda x, tensors: F.gelu(x)
        if op == "softmax":
            axis = int(attrs.get("axis", -1))
            return lambda x, tensors: F.softmax(x, axis)
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
            return lambda x, tensors: F.avg_pool1d(x, kernel_size, stride)
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
