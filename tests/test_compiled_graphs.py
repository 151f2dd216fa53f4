"""Golden compiled graphs: the fused schedule of every registry config.

The deploy compiler's fusion stage decides which traced kernels run as one
node.  These literals pin its result node for node -- name, op, the names of
the fused kernel chain, input tensors and output tensor -- for Bio1 and Bio2
at every patch size the models are built with here and for TEMPONet, all at
the registry's default 14-channel, 300-sample geometry.  A change to the
fusion rule that moves, adds or drops a single node fails here by name.
"""

import numpy as np
import pytest

from repro.deploy import lower_to_int8, trace_model
from repro.models import build_model

#: The compiled schedules, one ``(name, op, fusion chain, inputs, output)``
#: tuple per node.
BIO1 = (
    ("patch_embedding", "conv1d", ("patch_embedding",), ("input",), "patch_embedding"),
    ("transpose", "transpose", ("transpose",), ("patch_embedding",), "transpose"),
    ("append_token", "append_token", ("append_token",), ("transpose",), "append_token"),
    ("add_positional", "add_positional", ("add_positional",), ("append_token",), "add_positional"),
    ("blocks.0.attention_norm", "layernorm", ("blocks.0.attention_norm",), ("add_positional",),
     "blocks.0.attention_norm"),
    ("blocks.0.attention.query_projection", "linear", ("blocks.0.attention.query_projection",),
     ("blocks.0.attention_norm",), "blocks.0.attention.query_projection"),
    ("blocks.0.attention.split_heads", "split_heads", ("blocks.0.attention.split_heads",),
     ("blocks.0.attention.query_projection",), "blocks.0.attention.split_heads"),
    ("blocks.0.attention.key_projection", "linear", ("blocks.0.attention.key_projection",),
     ("blocks.0.attention_norm",), "blocks.0.attention.key_projection"),
    ("blocks.0.attention.split_heads_1", "split_heads", ("blocks.0.attention.split_heads_1",),
     ("blocks.0.attention.key_projection",), "blocks.0.attention.split_heads_1"),
    ("blocks.0.attention.value_projection", "linear", ("blocks.0.attention.value_projection",),
     ("blocks.0.attention_norm",), "blocks.0.attention.value_projection"),
    ("blocks.0.attention.split_heads_2", "split_heads", ("blocks.0.attention.split_heads_2",),
     ("blocks.0.attention.value_projection",), "blocks.0.attention.split_heads_2"),
    ("blocks.0.attention.matmul", "matmul", ("blocks.0.attention.matmul",),
     ("blocks.0.attention.split_heads", "blocks.0.attention.split_heads_1"),
     "blocks.0.attention.matmul"),
    ("blocks.0.attention.softmax", "softmax", ("blocks.0.attention.softmax",),
     ("blocks.0.attention.matmul",), "blocks.0.attention.softmax"),
    ("blocks.0.attention.matmul_1", "matmul", ("blocks.0.attention.matmul_1",),
     ("blocks.0.attention.softmax", "blocks.0.attention.split_heads_2"),
     "blocks.0.attention.matmul_1"),
    ("blocks.0.attention.merge_heads", "merge_heads", ("blocks.0.attention.merge_heads",),
     ("blocks.0.attention.matmul_1",), "blocks.0.attention.merge_heads"),
    ("blocks.0.attention.output_projection", "linear", ("blocks.0.attention.output_projection",),
     ("blocks.0.attention.merge_heads",), "blocks.0.attention.output_projection"),
    ("blocks.0.add", "add", ("blocks.0.add",),
     ("add_positional", "blocks.0.attention.output_projection"), "blocks.0.add"),
    ("blocks.0.feedforward_norm", "layernorm", ("blocks.0.feedforward_norm",), ("blocks.0.add",),
     "blocks.0.feedforward_norm"),
    ("blocks.0.feedforward.expand", "linear",
     ("blocks.0.feedforward.expand", "blocks.0.feedforward.activation"),
     ("blocks.0.feedforward_norm",), "blocks.0.feedforward.activation"),
    ("blocks.0.feedforward.contract", "linear", ("blocks.0.feedforward.contract",),
     ("blocks.0.feedforward.activation",), "blocks.0.feedforward.contract"),
    ("blocks.0.add_1", "add", ("blocks.0.add_1",),
     ("blocks.0.add", "blocks.0.feedforward.contract"), "blocks.0.add_1"),
    ("final_norm", "layernorm", ("final_norm",), ("blocks.0.add_1",), "final_norm"),
    ("select_token", "select_token", ("select_token",), ("final_norm",), "select_token"),
    ("head", "linear", ("head",), ("select_token",), "logits"),
)

BIO2 = (
    ("patch_embedding", "conv1d", ("patch_embedding",), ("input",), "patch_embedding"),
    ("transpose", "transpose", ("transpose",), ("patch_embedding",), "transpose"),
    ("append_token", "append_token", ("append_token",), ("transpose",), "append_token"),
    ("add_positional", "add_positional", ("add_positional",), ("append_token",), "add_positional"),
    ("blocks.0.attention_norm", "layernorm", ("blocks.0.attention_norm",), ("add_positional",),
     "blocks.0.attention_norm"),
    ("blocks.0.attention.query_projection", "linear", ("blocks.0.attention.query_projection",),
     ("blocks.0.attention_norm",), "blocks.0.attention.query_projection"),
    ("blocks.0.attention.split_heads", "split_heads", ("blocks.0.attention.split_heads",),
     ("blocks.0.attention.query_projection",), "blocks.0.attention.split_heads"),
    ("blocks.0.attention.key_projection", "linear", ("blocks.0.attention.key_projection",),
     ("blocks.0.attention_norm",), "blocks.0.attention.key_projection"),
    ("blocks.0.attention.split_heads_1", "split_heads", ("blocks.0.attention.split_heads_1",),
     ("blocks.0.attention.key_projection",), "blocks.0.attention.split_heads_1"),
    ("blocks.0.attention.value_projection", "linear", ("blocks.0.attention.value_projection",),
     ("blocks.0.attention_norm",), "blocks.0.attention.value_projection"),
    ("blocks.0.attention.split_heads_2", "split_heads", ("blocks.0.attention.split_heads_2",),
     ("blocks.0.attention.value_projection",), "blocks.0.attention.split_heads_2"),
    ("blocks.0.attention.matmul", "matmul", ("blocks.0.attention.matmul",),
     ("blocks.0.attention.split_heads", "blocks.0.attention.split_heads_1"),
     "blocks.0.attention.matmul"),
    ("blocks.0.attention.softmax", "softmax", ("blocks.0.attention.softmax",),
     ("blocks.0.attention.matmul",), "blocks.0.attention.softmax"),
    ("blocks.0.attention.matmul_1", "matmul", ("blocks.0.attention.matmul_1",),
     ("blocks.0.attention.softmax", "blocks.0.attention.split_heads_2"),
     "blocks.0.attention.matmul_1"),
    ("blocks.0.attention.merge_heads", "merge_heads", ("blocks.0.attention.merge_heads",),
     ("blocks.0.attention.matmul_1",), "blocks.0.attention.merge_heads"),
    ("blocks.0.attention.output_projection", "linear", ("blocks.0.attention.output_projection",),
     ("blocks.0.attention.merge_heads",), "blocks.0.attention.output_projection"),
    ("blocks.0.add", "add", ("blocks.0.add",),
     ("add_positional", "blocks.0.attention.output_projection"), "blocks.0.add"),
    ("blocks.0.feedforward_norm", "layernorm", ("blocks.0.feedforward_norm",), ("blocks.0.add",),
     "blocks.0.feedforward_norm"),
    ("blocks.0.feedforward.expand", "linear",
     ("blocks.0.feedforward.expand", "blocks.0.feedforward.activation"),
     ("blocks.0.feedforward_norm",), "blocks.0.feedforward.activation"),
    ("blocks.0.feedforward.contract", "linear", ("blocks.0.feedforward.contract",),
     ("blocks.0.feedforward.activation",), "blocks.0.feedforward.contract"),
    ("blocks.0.add_1", "add", ("blocks.0.add_1",),
     ("blocks.0.add", "blocks.0.feedforward.contract"), "blocks.0.add_1"),
    ("blocks.1.attention_norm", "layernorm", ("blocks.1.attention_norm",), ("blocks.0.add_1",),
     "blocks.1.attention_norm"),
    ("blocks.1.attention.query_projection", "linear", ("blocks.1.attention.query_projection",),
     ("blocks.1.attention_norm",), "blocks.1.attention.query_projection"),
    ("blocks.1.attention.split_heads", "split_heads", ("blocks.1.attention.split_heads",),
     ("blocks.1.attention.query_projection",), "blocks.1.attention.split_heads"),
    ("blocks.1.attention.key_projection", "linear", ("blocks.1.attention.key_projection",),
     ("blocks.1.attention_norm",), "blocks.1.attention.key_projection"),
    ("blocks.1.attention.split_heads_1", "split_heads", ("blocks.1.attention.split_heads_1",),
     ("blocks.1.attention.key_projection",), "blocks.1.attention.split_heads_1"),
    ("blocks.1.attention.value_projection", "linear", ("blocks.1.attention.value_projection",),
     ("blocks.1.attention_norm",), "blocks.1.attention.value_projection"),
    ("blocks.1.attention.split_heads_2", "split_heads", ("blocks.1.attention.split_heads_2",),
     ("blocks.1.attention.value_projection",), "blocks.1.attention.split_heads_2"),
    ("blocks.1.attention.matmul", "matmul", ("blocks.1.attention.matmul",),
     ("blocks.1.attention.split_heads", "blocks.1.attention.split_heads_1"),
     "blocks.1.attention.matmul"),
    ("blocks.1.attention.softmax", "softmax", ("blocks.1.attention.softmax",),
     ("blocks.1.attention.matmul",), "blocks.1.attention.softmax"),
    ("blocks.1.attention.matmul_1", "matmul", ("blocks.1.attention.matmul_1",),
     ("blocks.1.attention.softmax", "blocks.1.attention.split_heads_2"),
     "blocks.1.attention.matmul_1"),
    ("blocks.1.attention.merge_heads", "merge_heads", ("blocks.1.attention.merge_heads",),
     ("blocks.1.attention.matmul_1",), "blocks.1.attention.merge_heads"),
    ("blocks.1.attention.output_projection", "linear", ("blocks.1.attention.output_projection",),
     ("blocks.1.attention.merge_heads",), "blocks.1.attention.output_projection"),
    ("blocks.1.add", "add", ("blocks.1.add",),
     ("blocks.0.add_1", "blocks.1.attention.output_projection"), "blocks.1.add"),
    ("blocks.1.feedforward_norm", "layernorm", ("blocks.1.feedforward_norm",), ("blocks.1.add",),
     "blocks.1.feedforward_norm"),
    ("blocks.1.feedforward.expand", "linear",
     ("blocks.1.feedforward.expand", "blocks.1.feedforward.activation"),
     ("blocks.1.feedforward_norm",), "blocks.1.feedforward.activation"),
    ("blocks.1.feedforward.contract", "linear", ("blocks.1.feedforward.contract",),
     ("blocks.1.feedforward.activation",), "blocks.1.feedforward.contract"),
    ("blocks.1.add_1", "add", ("blocks.1.add_1",),
     ("blocks.1.add", "blocks.1.feedforward.contract"), "blocks.1.add_1"),
    ("final_norm", "layernorm", ("final_norm",), ("blocks.1.add_1",), "final_norm"),
    ("select_token", "select_token", ("select_token",), ("final_norm",), "select_token"),
    ("head", "linear", ("head",), ("select_token",), "logits"),
)

TEMPONET = (
    ("blocks.0.conv1", "conv1d", ("blocks.0.conv1", "blocks.0.bn1", "blocks.0.relu"), ("input",),
     "blocks.0.relu"),
    ("blocks.0.conv2", "conv1d", ("blocks.0.conv2", "blocks.0.bn2", "blocks.0.relu_1"),
     ("blocks.0.relu",), "blocks.0.relu_1"),
    ("blocks.0.strided_conv", "conv1d",
     ("blocks.0.strided_conv", "blocks.0.bn3", "blocks.0.relu_2", "blocks.0.pool"),
     ("blocks.0.relu_1",), "blocks.0.pool"),
    ("blocks.1.conv1", "conv1d", ("blocks.1.conv1", "blocks.1.bn1", "blocks.1.relu"),
     ("blocks.0.pool",), "blocks.1.relu"),
    ("blocks.1.conv2", "conv1d", ("blocks.1.conv2", "blocks.1.bn2", "blocks.1.relu_1"),
     ("blocks.1.relu",), "blocks.1.relu_1"),
    ("blocks.1.strided_conv", "conv1d",
     ("blocks.1.strided_conv", "blocks.1.bn3", "blocks.1.relu_2", "blocks.1.pool"),
     ("blocks.1.relu_1",), "blocks.1.pool"),
    ("blocks.2.conv1", "conv1d", ("blocks.2.conv1", "blocks.2.bn1", "blocks.2.relu"),
     ("blocks.1.pool",), "blocks.2.relu"),
    ("blocks.2.conv2", "conv1d", ("blocks.2.conv2", "blocks.2.bn2", "blocks.2.relu_1"),
     ("blocks.2.relu",), "blocks.2.relu_1"),
    ("blocks.2.strided_conv", "conv1d",
     ("blocks.2.strided_conv", "blocks.2.bn3", "blocks.2.relu_2", "blocks.2.pool"),
     ("blocks.2.relu_1",), "blocks.2.pool"),
    ("classifier.0", "flatten", ("classifier.0",), ("blocks.2.pool",), "classifier.0"),
    ("classifier.1", "linear", ("classifier.1", "classifier.2"), ("classifier.0",), "classifier.2"),
    ("classifier.4", "linear", ("classifier.4", "classifier.5"), ("classifier.2",), "classifier.5"),
    ("classifier.7", "linear", ("classifier.7",), ("classifier.5",), "logits"),
)

#: Patch size changes tensor shapes, not the schedule: one literal per
#: architecture serves all of its patch sizes.
GOLDEN = {"bio1": BIO1, "bio2": BIO2, "temponet": TEMPONET}

#: Bio1 and Bio2 at every patch size, plus each architecture's default.
CONFIGS = [(arch, patch) for arch in ("bio1", "bio2") for patch in (5, 10, 20, 30, 60)] + [
    ("bio1", None),
    ("bio2", None),
    ("temponet", None),
]


def config_id(config):
    arch, patch = config
    return arch if patch is None else f"{arch}-p{patch}"


@pytest.fixture(scope="module")
def calibration():
    return np.random.default_rng(5).normal(size=(2, 14, 300))


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_compiled_graph_matches_golden(config, calibration):
    arch, patch = config
    kwargs = {} if patch is None else {"patch_size": patch}
    compiled = lower_to_int8(trace_model(build_model(arch, **kwargs).eval()), calibration)
    schedule = [
        (
            node.name,
            node.op,
            tuple(sub.name for sub in node.fusion_chain),
            tuple(node.inputs),
            node.output.name,
        )
        for node in compiled.graph.nodes
    ]
    assert schedule == list(GOLDEN[arch])
