"""Tracers: convert trained models into deployment :class:`ComputeGraph` s.

A tracer walks the module tree of a trained model (in evaluation mode, so
dropout disappears and batch-norm uses its running statistics) and emits the
equivalent flat sequence of primitive kernels with static shapes and frozen
weights.  The resulting graph is what the quantiser, the tiler, the memory
planner and the code generator operate on.

Two tracers are provided, one per architecture family of the paper:

* :func:`trace_bioformer` — patch embedding, class token, positional
  embedding, ``depth`` pre-norm MHSA/FFN blocks, final norm and head;
* :func:`trace_temponet` — three TCN blocks (dilated convs + strided conv +
  pooling, with batch-norm folded into per-channel affines) and the fully
  connected classifier.

:func:`trace_model` dispatches on the model type.
"""

from __future__ import annotations

import math
from typing import List, Union

from ..models.bioformer import Bioformer
from ..models.temponet import TEMPONet
from ..nn import functional as F
from .graph import ComputeGraph, GraphNode, TensorSpec

__all__ = ["trace_bioformer", "trace_temponet", "trace_model"]


def _conv_weights(conv) -> dict:
    weights = {"weight": conv.weight.data.copy()}
    if conv.bias is not None:
        weights["bias"] = conv.bias.data.copy()
    return weights


def _linear_weights(linear) -> dict:
    weights = {"weight": linear.weight.data.copy()}
    if linear.bias is not None:
        weights["bias"] = linear.bias.data.copy()
    return weights


def _folded_batchnorm(bn) -> dict:
    """Fold an evaluation-mode BatchNorm1d into a per-channel affine."""
    scale, shift = F.fold_batch_norm(bn.running_mean, bn.running_var, bn.weight, bn.bias, bn.eps)
    return {"scale": scale.data.copy(), "shift": shift.data.copy()}


def trace_bioformer(model: Bioformer, name: str = "") -> ComputeGraph:
    """Trace a (trained) Bioformer into a deployment graph.

    The trace mirrors :meth:`Bioformer.forward` in evaluation mode; the
    float graph executor reproduces the model output bit for bit (pinned
    by the test-suite with exact equality).
    """
    cfg = model.config
    graph_name = name or cfg.describe()
    tokens = cfg.num_tokens
    sequence = cfg.sequence_length
    dim = cfg.embed_dim
    heads = model.blocks[0].attention.num_heads
    head_dim = model.blocks[0].attention.head_dim
    total_dim = heads * head_dim

    graph_input = TensorSpec("input", (cfg.num_channels, cfg.window_samples))
    nodes: List[GraphNode] = []

    nodes.append(
        GraphNode(
            name="patch_embedding",
            op="conv1d",
            inputs=["input"],
            output=TensorSpec("patches", (dim, tokens)),
            attrs={"stride": cfg.patch_size, "padding": 0, "dilation": 1},
            weights=_conv_weights(model.patch_embedding),
        )
    )
    nodes.append(
        GraphNode(
            name="to_tokens",
            op="transpose",
            inputs=["patches"],
            output=TensorSpec("tokens", (tokens, dim)),
            attrs={"axes": (1, 0)},
        )
    )
    current = "tokens"
    if cfg.pooling == "class_token":
        nodes.append(
            GraphNode(
                name="append_class_token",
                op="append_token",
                inputs=[current],
                output=TensorSpec("tokens_cls", (sequence, dim)),
                weights={"token": model.class_token.data.reshape(1, dim).copy()},
            )
        )
        current = "tokens_cls"
    if cfg.use_positional_embedding:
        nodes.append(
            GraphNode(
                name="positional_embedding",
                op="add_positional",
                inputs=[current],
                output=TensorSpec("embedded", (sequence, dim)),
                weights={
                    "positions": model.positional_embedding.data.reshape(sequence, dim).copy()
                },
            )
        )
        current = "embedded"

    for index, block in enumerate(model.blocks):
        prefix = f"block{index}"
        attention = block.attention
        residual_in = current

        nodes.append(
            GraphNode(
                name=f"{prefix}.attention_norm",
                op="layernorm",
                inputs=[current],
                output=TensorSpec(f"{prefix}.normed1", (sequence, dim)),
                attrs={"eps": block.attention_norm.eps},
                weights={
                    "weight": block.attention_norm.weight.data.copy(),
                    "bias": block.attention_norm.bias.data.copy(),
                },
            )
        )
        normed = f"{prefix}.normed1"
        for role, projection in (
            ("query", attention.query_projection),
            ("key", attention.key_projection),
            ("value", attention.value_projection),
        ):
            nodes.append(
                GraphNode(
                    name=f"{prefix}.attention.{role}",
                    op="linear",
                    inputs=[normed],
                    output=TensorSpec(f"{prefix}.{role}", (sequence, total_dim)),
                    weights=_linear_weights(projection),
                )
            )
            nodes.append(
                GraphNode(
                    name=f"{prefix}.attention.{role}_heads",
                    op="split_heads",
                    inputs=[f"{prefix}.{role}"],
                    output=TensorSpec(f"{prefix}.{role}_h", (heads, sequence, head_dim)),
                    attrs={"num_heads": heads, "head_dim": head_dim},
                )
            )
        nodes.append(
            GraphNode(
                name=f"{prefix}.attention.scores",
                op="matmul",
                inputs=[f"{prefix}.query_h", f"{prefix}.key_h"],
                output=TensorSpec(f"{prefix}.scores", (heads, sequence, sequence)),
                attrs={
                    "transpose_b": True,
                    "scale": 1.0 / math.sqrt(head_dim),
                    "inner_dim": head_dim,
                },
            )
        )
        nodes.append(
            GraphNode(
                name=f"{prefix}.attention.softmax",
                op="softmax",
                inputs=[f"{prefix}.scores"],
                output=TensorSpec(f"{prefix}.probs", (heads, sequence, sequence)),
                attrs={"axis": -1},
            )
        )
        nodes.append(
            GraphNode(
                name=f"{prefix}.attention.context",
                op="matmul",
                inputs=[f"{prefix}.probs", f"{prefix}.value_h"],
                output=TensorSpec(f"{prefix}.context", (heads, sequence, head_dim)),
                attrs={"transpose_b": False, "scale": 1.0, "inner_dim": sequence},
            )
        )
        nodes.append(
            GraphNode(
                name=f"{prefix}.attention.merge",
                op="merge_heads",
                inputs=[f"{prefix}.context"],
                output=TensorSpec(f"{prefix}.merged", (sequence, total_dim)),
                attrs={"num_heads": heads, "head_dim": head_dim},
            )
        )
        nodes.append(
            GraphNode(
                name=f"{prefix}.attention.out",
                op="linear",
                inputs=[f"{prefix}.merged"],
                output=TensorSpec(f"{prefix}.attn_out", (sequence, dim)),
                weights=_linear_weights(attention.output_projection),
            )
        )
        nodes.append(
            GraphNode(
                name=f"{prefix}.attention_residual",
                op="add",
                inputs=[residual_in, f"{prefix}.attn_out"],
                output=TensorSpec(f"{prefix}.res1", (sequence, dim)),
            )
        )
        current = f"{prefix}.res1"

        nodes.append(
            GraphNode(
                name=f"{prefix}.ffn_norm",
                op="layernorm",
                inputs=[current],
                output=TensorSpec(f"{prefix}.normed2", (sequence, dim)),
                attrs={"eps": block.feedforward_norm.eps},
                weights={
                    "weight": block.feedforward_norm.weight.data.copy(),
                    "bias": block.feedforward_norm.bias.data.copy(),
                },
            )
        )
        nodes.append(
            GraphNode(
                name=f"{prefix}.ffn.expand",
                op="linear",
                inputs=[f"{prefix}.normed2"],
                output=TensorSpec(f"{prefix}.hidden", (sequence, block.feedforward.hidden_dim)),
                weights=_linear_weights(block.feedforward.expand),
            )
        )
        nodes.append(
            GraphNode(
                name=f"{prefix}.ffn.gelu",
                op="gelu",
                inputs=[f"{prefix}.hidden"],
                output=TensorSpec(
                    f"{prefix}.hidden_act", (sequence, block.feedforward.hidden_dim)
                ),
            )
        )
        nodes.append(
            GraphNode(
                name=f"{prefix}.ffn.contract",
                op="linear",
                inputs=[f"{prefix}.hidden_act"],
                output=TensorSpec(f"{prefix}.ffn_out", (sequence, dim)),
                weights=_linear_weights(block.feedforward.contract),
            )
        )
        nodes.append(
            GraphNode(
                name=f"{prefix}.ffn_residual",
                op="add",
                inputs=[current, f"{prefix}.ffn_out"],
                output=TensorSpec(f"{prefix}.res2", (sequence, dim)),
            )
        )
        current = f"{prefix}.res2"

    nodes.append(
        GraphNode(
            name="final_norm",
            op="layernorm",
            inputs=[current],
            output=TensorSpec("final_normed", (sequence, dim)),
            attrs={"eps": model.final_norm.eps},
            weights={
                "weight": model.final_norm.weight.data.copy(),
                "bias": model.final_norm.bias.data.copy(),
            },
        )
    )
    if cfg.pooling == "class_token":
        nodes.append(
            GraphNode(
                name="class_token_output",
                op="select_token",
                inputs=["final_normed"],
                output=TensorSpec("pooled", (dim,)),
                attrs={"index": -1},
            )
        )
    else:
        nodes.append(
            GraphNode(
                name="mean_pooling",
                op="mean_tokens",
                inputs=["final_normed"],
                output=TensorSpec("pooled", (dim,)),
            )
        )
    nodes.append(
        GraphNode(
            name="head",
            op="linear",
            inputs=["pooled"],
            output=TensorSpec("logits", (cfg.num_classes,)),
            weights=_linear_weights(model.head),
        )
    )
    return ComputeGraph(graph_name, graph_input, nodes)


def trace_temponet(model: TEMPONet, name: str = "TEMPONet") -> ComputeGraph:
    """Trace a (trained) TEMPONet into a deployment graph.

    Evaluation-mode batch normalisation is folded into per-channel affine
    nodes (``channel_affine``), exactly as an MCU deployment flow folds BN
    into the preceding convolution's requantisation step.
    """
    cfg = model.config
    graph_input = TensorSpec("input", (cfg.num_channels, cfg.window_samples))
    nodes: List[GraphNode] = []
    current = "input"
    length = cfg.window_samples

    for index, block in enumerate(model.blocks):
        prefix = f"block{index}"
        stages = (
            ("conv1", block.conv1, block.bn1),
            ("conv2", block.conv2, block.bn2),
            ("strided_conv", block.strided_conv, block.bn3),
        )
        for stage_name, conv, bn in stages:
            length = conv.output_length(length)
            channels = conv.out_channels
            conv_out = f"{prefix}.{stage_name}"
            nodes.append(
                GraphNode(
                    name=conv_out,
                    op="conv1d",
                    inputs=[current],
                    output=TensorSpec(conv_out + ".out", (channels, length)),
                    attrs={
                        "stride": conv.stride,
                        "padding": conv.padding,
                        "dilation": conv.dilation,
                    },
                    weights=_conv_weights(conv),
                )
            )
            nodes.append(
                GraphNode(
                    name=f"{conv_out}.bn",
                    op="channel_affine",
                    inputs=[conv_out + ".out"],
                    output=TensorSpec(conv_out + ".bn", (channels, length)),
                    weights=_folded_batchnorm(bn),
                )
            )
            nodes.append(
                GraphNode(
                    name=f"{conv_out}.relu",
                    op="relu",
                    inputs=[conv_out + ".bn"],
                    output=TensorSpec(conv_out + ".act", (channels, length)),
                )
            )
            current = conv_out + ".act"
        pooled_length = (length - block.pool.kernel_size) // block.pool.stride + 1
        nodes.append(
            GraphNode(
                name=f"{prefix}.pool",
                op="avgpool1d",
                inputs=[current],
                output=TensorSpec(f"{prefix}.pooled", (channels, pooled_length)),
                attrs={"kernel_size": block.pool.kernel_size, "stride": block.pool.stride},
            )
        )
        current = f"{prefix}.pooled"
        length = pooled_length

    nodes.append(
        GraphNode(
            name="flatten",
            op="flatten",
            inputs=[current],
            output=TensorSpec("flattened", (model.flatten_features,)),
        )
    )
    current = "flattened"
    classifier_linears = [
        module for module in model.classifier if type(module).__name__ == "Linear"
    ]
    for index, linear in enumerate(classifier_linears):
        out_name = f"fc{index + 1}"
        nodes.append(
            GraphNode(
                name=out_name,
                op="linear",
                inputs=[current],
                output=TensorSpec(out_name + ".out", (linear.out_features,)),
                weights=_linear_weights(linear),
            )
        )
        current = out_name + ".out"
        if index < len(classifier_linears) - 1:
            nodes.append(
                GraphNode(
                    name=f"{out_name}.relu",
                    op="relu",
                    inputs=[current],
                    output=TensorSpec(out_name + ".act", (linear.out_features,)),
                )
            )
            current = out_name + ".act"
    nodes[-1].output = TensorSpec("logits", nodes[-1].output.shape)
    return ComputeGraph(name, graph_input, nodes)


def trace_model(model: Union[Bioformer, TEMPONet], name: str = "") -> ComputeGraph:
    """Trace either supported architecture (dispatch helper)."""
    if isinstance(model, Bioformer):
        return trace_bioformer(model, name=name)
    if isinstance(model, TEMPONet):
        return trace_temponet(model, name=name or "TEMPONet")
    raise TypeError(f"cannot trace object of type {type(model).__name__}")
