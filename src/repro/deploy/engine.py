"""Floating-point executor for deployment graphs.

The float executor replays a traced :class:`~repro.deploy.graph.ComputeGraph`
with plain NumPy (no autograd, evaluation semantics).  Its kernels run the
framework's own NumPy calls in the framework's order, so a traced graph
reproduces ``model(Tensor(x))`` bit for bit.  It serves four purposes:

1. **Trace validation** — its output must equal the original model's forward
   pass exactly, which proves the tracer captured every operator faithfully
   (the test-suite pins this with exact equality);
2. **Calibration** — :meth:`FloatGraphExecutor.run_recording` returns every
   intermediate activation, which the int8 lowering pass uses to pick
   activation scales;
3. **Reference for the integer engine** — the integer executor in
   :mod:`repro.deploy.int_engine` is checked against it;
4. **Float serving** — :class:`repro.serve.FloatBackend` runs the same
   traced graph that the int8 backend lowers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..nn.functional import im2col
from .graph import ComputeGraph, GraphNode
from .memory import live_ranges

__all__ = ["FloatGraphExecutor", "conv1d_reference", "gelu_reference", "softmax_reference"]


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


class FloatGraphExecutor:
    """Executes a :class:`ComputeGraph` on float32/float64 NumPy arrays."""

    def __init__(self, graph: ComputeGraph) -> None:
        self.graph = graph
        # Activations whose last consumer is node ``i``: ``run`` drops them
        # right after it, so a batch reuses freed buffers instead of
        # faulting in fresh pages for every intermediate.
        self._dead_after: List[List[str]] = [[] for _ in graph.nodes]
        for name, live in live_ranges(graph).items():
            if name != graph.output.name:
                self._dead_after[live.end].append(name)

    # ------------------------------------------------------------------ #
    # Single-node dispatch
    # ------------------------------------------------------------------ #
    def _run_node(self, node: GraphNode, tensors: Dict[str, np.ndarray]) -> np.ndarray:
        if node.is_fused:
            # Replay the original kernels of a fused node (see
            # repro.deploy.passes) so optimized graphs run bit-identically
            # to their source capture in the float reference too.
            local = dict(tensors)
            value = None
            for sub in node.fusion_chain:
                value = self._run_node(sub, local)
                local[sub.output.name] = value
            return value
        op = node.op
        x = tensors[node.inputs[0]]
        if op == "conv1d":
            return conv1d_reference(
                x,
                node.weights["weight"],
                node.weights.get("bias"),
                stride=int(node.attrs["stride"]),
                padding=int(node.attrs["padding"]),
                dilation=int(node.attrs["dilation"]),
            )
        if op == "linear":
            out = x @ node.weights["weight"].T
            if "bias" in node.weights:
                out = out + node.weights["bias"]
            return out
        if op == "channel_affine":
            scale = node.weights["scale"].reshape(1, -1, 1)
            shift = node.weights["shift"].reshape(1, -1, 1)
            return x * scale + shift
        if op == "layernorm":
            return layernorm_reference(
                x, node.weights["weight"], node.weights["bias"], float(node.attrs["eps"])
            )
        if op == "relu":
            return np.maximum(x, 0.0)
        if op == "gelu":
            return gelu_reference(x)
        if op == "softmax":
            return softmax_reference(x, axis=int(node.attrs.get("axis", -1)))
        if op == "matmul":
            other = tensors[node.inputs[1]]
            if node.attrs.get("transpose_b", False):
                other = np.swapaxes(other, -1, -2)
            return (x @ other) * float(node.attrs.get("scale", 1.0))
        if op == "add":
            return x + tensors[node.inputs[1]]
        if op == "append_token":
            token = node.weights["token"].reshape(1, 1, -1)
            token = np.broadcast_to(token, (x.shape[0], 1, x.shape[2]))
            return np.concatenate([x, token], axis=1)
        if op == "add_positional":
            return x + node.weights["positions"][None, :, :]
        if op == "avgpool1d":
            return avgpool1d_reference(
                x, int(node.attrs["kernel_size"]), int(node.attrs["stride"])
            )
        if op == "flatten":
            return x.reshape(x.shape[0], -1)
        if op == "split_heads":
            heads = int(node.attrs["num_heads"])
            head_dim = int(node.attrs["head_dim"])
            batch, sequence, _ = x.shape
            return x.reshape(batch, sequence, heads, head_dim).transpose(0, 2, 1, 3)
        if op == "merge_heads":
            batch, heads, sequence, head_dim = x.shape
            return x.transpose(0, 2, 1, 3).reshape(batch, sequence, heads * head_dim)
        if op == "transpose":
            axes = tuple(node.attrs["axes"])
            batch_axes = (0,) + tuple(axis + 1 for axis in axes)
            return x.transpose(batch_axes)
        if op == "select_token":
            return x[:, int(node.attrs["index"]), :]
        if op == "mean_tokens":
            return x.mean(axis=1)
        raise NotImplementedError(f"float executor does not implement '{op}'")

    # ------------------------------------------------------------------ #
    # Whole-graph execution
    # ------------------------------------------------------------------ #
    def _batched_input(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == len(self.graph.graph_input.shape):
            inputs = inputs[None, ...]
        expected = self.graph.graph_input.shape
        if tuple(inputs.shape[1:]) != tuple(expected):
            raise ValueError(
                f"graph '{self.graph.name}' expects input shape {expected}, "
                f"got {tuple(inputs.shape[1:])}"
            )
        return inputs

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Run the graph on a ``(batch, channels, samples)`` input batch."""
        tensors = {self.graph.graph_input.name: self._batched_input(inputs)}
        for node, dead in zip(self.graph.nodes, self._dead_after):
            tensors[node.output.name] = self._run_node(node, tensors)
            for name in dead:
                del tensors[name]
        return tensors[self.graph.output.name]

    def run_recording(self, inputs: np.ndarray) -> Dict[str, np.ndarray]:
        """Run the graph and return *every* intermediate activation.

        The returned mapping is keyed by tensor name and includes the graph
        input; it is what the int8 lowering pass calibrates on.
        """
        tensors = {self.graph.graph_input.name: self._batched_input(inputs)}
        for node in self.graph.nodes:
            tensors[node.output.name] = self._run_node(node, tensors)
        return tensors

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Class predictions (argmax over the graph output logits)."""
        return np.argmax(self.run(inputs), axis=-1)
