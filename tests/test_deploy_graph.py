"""Tests for the deployment graph IR and the recording tracer."""

import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.deploy import (
    ComputeGraph,
    FloatGraphExecutor,
    GraphNode,
    TensorSpec,
    graph_to_profile,
    trace_model,
)
from repro.models import Bioformer, BioformerConfig, build_model, bioformer_bio1, bioformer_bio2, temponet
from repro.nn import Tensor


#: (MACs, weight elements) per inference of the Table I rows and the Fig. 5
#: filter set at the paper geometry (14 x 300, 8 classes): the MMAC and
#: memory columns of Table I and the Fig. 5 axes must not move.
PAPER_GEOMETRY_TOTALS = {
    ("bio1", 1): (71314944, 104136),
    ("bio1", 5): (7171584, 92360),
    ("bio1", 10): (3300864, 94920),
    ("bio1", 20): (1711104, 102920),
    ("bio1", 30): (1232384, 111560),
    ("bio2", 1): (43189504, 87880),
    ("bio2", 5): (5219584, 76104),
    ("bio2", 10): (2546944, 78664),
    ("bio2", 20): (1383424, 86664),
    ("bio2", 30): (1021184, 95304),
}


def small_bioformer(**overrides):
    config = BioformerConfig(
        num_channels=4, window_samples=60, patch_size=10, depth=1, num_heads=2, seed=3, **overrides
    )
    return Bioformer(config)


def small_temponet():
    return temponet(num_channels=4, window_samples=80, seed=3)


# --------------------------------------------------------------------- #
# TensorSpec / GraphNode / ComputeGraph primitives
# --------------------------------------------------------------------- #
class TestGraphPrimitives:
    def test_tensor_spec_size(self):
        spec = TensorSpec("x", (3, 5))
        assert spec.num_elements == 15
        assert spec.nbytes(1) == 15
        assert spec.nbytes(4) == 60

    def test_scalar_tensor_spec(self):
        spec = TensorSpec("scalar", ())
        assert spec.num_elements == 1

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown operator"):
            GraphNode("bad", "not_an_op", ["x"], TensorSpec("y", (1,)))

    def test_node_without_inputs_rejected(self):
        with pytest.raises(ValueError, match="no inputs"):
            GraphNode("bad", "relu", [], TensorSpec("y", (1,)))

    def test_graph_rejects_undefined_input(self):
        node = GraphNode("n", "relu", ["missing"], TensorSpec("y", (1,)))
        with pytest.raises(ValueError, match="undefined tensor"):
            ComputeGraph("g", TensorSpec("input", (1,)), [node])

    def test_graph_rejects_duplicate_tensor(self):
        first = GraphNode("a", "relu", ["input"], TensorSpec("t", (1,)))
        second = GraphNode("b", "relu", ["t"], TensorSpec("t", (1,)))
        with pytest.raises(ValueError, match="defined twice"):
            ComputeGraph("g", TensorSpec("input", (1,)), [first, second])

    def test_graph_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one node"):
            ComputeGraph("g", TensorSpec("input", (1,)), [])

    def test_linear_node_macs(self):
        node = GraphNode(
            "fc",
            "linear",
            ["input"],
            TensorSpec("out", (6, 8)),
            weights={"weight": np.zeros((8, 4)), "bias": np.zeros(8)},
        )
        assert node.macs == 6 * 4 * 8
        assert node.weight_elements == 8 * 4 + 8

    def test_matmul_node_macs(self):
        node = GraphNode(
            "mm",
            "matmul",
            ["a", "b"],
            TensorSpec("out", (2, 7, 7)),
            attrs={"inner_dim": 16},
        )
        # Validation of graph-level SSA is skipped here; macs is node-local.
        assert node.macs == 2 * 7 * 7 * 16

    def test_shape_only_nodes_have_no_cost(self):
        node = GraphNode("t", "transpose", ["input"], TensorSpec("y", (4, 2)), attrs={"axes": (1, 0)})
        assert node.is_shape_only
        assert node.macs == 0
        assert node.elementwise_ops == 0


# --------------------------------------------------------------------- #
# Bioformer tracer
# --------------------------------------------------------------------- #
class TestBioformerTrace:
    def test_graph_shapes(self):
        model = small_bioformer()
        graph = trace_model(model)
        assert graph.graph_input.shape == (4, 60)
        assert graph.output.shape == (8,)
        assert graph.output.name == "logits"

    def test_sequence_length_includes_class_token(self):
        model = small_bioformer()
        graph = trace_model(model)
        embedded = graph.tensor_specs()["add_positional"]
        assert embedded.shape == (model.config.sequence_length, model.config.embed_dim)

    def test_depth_reflected_in_node_count(self):
        shallow = trace_model(bioformer_bio1(patch_size=10))
        deep = trace_model(bioformer_bio2(patch_size=10))
        per_block_nodes = 18
        assert len(deep) - len(shallow) == per_block_nodes

    def test_macs_match_analytical_profiler(self):
        """The profile of the trace keeps the Table I / Fig. 5 counts exactly."""
        for (variant, filter_dimension), totals in PAPER_GEOMETRY_TOTALS.items():
            profile = graph_to_profile(trace_model(build_model(variant, patch_size=filter_dimension)))
            assert (profile.total_macs, profile.total_params) == totals, (variant, filter_dimension)

    def test_weight_elements_match_model_parameters(self):
        model = small_bioformer()
        graph = trace_model(model)
        assert graph.total_weight_elements == model.num_parameters()

    def test_mean_pooling_variant(self):
        model = small_bioformer(pooling="mean")
        graph = trace_model(model)
        ops = [node.op for node in graph]
        assert "mean_tokens" in ops
        assert "append_token" not in ops

    def test_no_positional_embedding_variant(self):
        model = small_bioformer(use_positional_embedding=False)
        graph = trace_model(model)
        assert "add_positional" not in [node.op for node in graph]

    def test_summary_mentions_every_node(self):
        graph = trace_model(small_bioformer())
        summary = graph.summary()
        for node in graph:
            assert node.name in summary


# --------------------------------------------------------------------- #
# TEMPONet tracer
# --------------------------------------------------------------------- #
class TestTemponetTrace:
    def test_graph_shapes(self):
        model = small_temponet()
        graph = trace_model(model)
        assert graph.graph_input.shape == (4, 80)
        assert graph.output.name == "logits"
        assert graph.output.shape == (8,)

    def test_batchnorm_folded_to_channel_affine(self):
        graph = trace_model(small_temponet())
        ops = [node.op for node in graph]
        assert "channel_affine" in ops
        assert ops.count("conv1d") == 9  # 3 blocks x (2 dilated + 1 strided)

    def test_flatten_feeds_classifier(self):
        model = small_temponet()
        graph = trace_model(model)
        flattened = graph.tensor_specs()["classifier.0"]
        assert flattened.shape == (model.flatten_features,)

    def test_macs_close_to_analytical_profiler(self):
        """The paper-geometry TEMPONet keeps its Table I / Fig. 5 counts exactly."""
        profile = graph_to_profile(trace_model(temponet()))
        assert (profile.total_macs, profile.total_params) == (17_597_184, 463_372)

    def test_weight_elements_match_model_parameters(self):
        model = small_temponet()
        graph = trace_model(model)
        assert graph.total_weight_elements == model.num_parameters()


# --------------------------------------------------------------------- #
# Dispatch / utility
# --------------------------------------------------------------------- #
class TestTraceDispatch:
    def test_trace_model_dispatch(self):
        assert trace_model(small_bioformer()).name.startswith("Bioformer")
        assert trace_model(small_temponet()).name == "TEMPONet"

    def test_trace_model_rejects_unknown(self):
        with pytest.raises(TypeError):
            trace_model(object())

    def test_consumers_and_lookup(self):
        graph = trace_model(small_bioformer())
        node = graph.node("patch_embedding")
        assert node.op == "conv1d"
        consumers = graph.consumers(node.output.name)
        assert consumers and all(node.output.name in consumer.inputs for consumer in consumers)
        with pytest.raises(KeyError):
            graph.node("does_not_exist")

    def test_largest_activation_is_attention_matrix_for_small_patches(self):
        model = Bioformer(BioformerConfig(patch_size=1, depth=1, num_heads=8, num_channels=4, window_samples=60))
        graph = trace_model(model)
        largest = graph.largest_activation()
        # With patch 1 the sequence is long, so the attention scores dominate.
        node = graph.node(largest.name)
        assert node.op == "softmax" or (node.op == "matmul" and node.attrs["transpose_b"])
        sequence = model.config.sequence_length
        assert largest.shape == (8, sequence, sequence)


# --------------------------------------------------------------------- #
# Golden structure: op, attrs and output shape of every node
# --------------------------------------------------------------------- #
def _structure(graph):
    return [(node.op, node.attrs, node.output.shape) for node in graph]


def _attention_block(heads, sequence, dim=64, head_dim=32, hidden=128):
    split = {"num_heads": heads, "head_dim": head_dim}
    width = heads * head_dim
    return [
        ("layernorm", {"eps": 1e-05}, (sequence, dim)),
        ("linear", {}, (sequence, width)),
        ("split_heads", split, (heads, sequence, head_dim)),
        ("linear", {}, (sequence, width)),
        ("split_heads", split, (heads, sequence, head_dim)),
        ("linear", {}, (sequence, width)),
        ("split_heads", split, (heads, sequence, head_dim)),
        (
            "matmul",
            {"transpose_b": True, "scale": 1.0 / math.sqrt(head_dim), "inner_dim": head_dim},
            (heads, sequence, sequence),
        ),
        ("softmax", {"axis": -1}, (heads, sequence, sequence)),
        ("matmul", {"transpose_b": False, "scale": 1.0, "inner_dim": sequence}, (heads, sequence, head_dim)),
        ("merge_heads", split, (sequence, width)),
        ("linear", {}, (sequence, dim)),
        ("add", {}, (sequence, dim)),
        ("layernorm", {"eps": 1e-05}, (sequence, dim)),
        ("linear", {}, (sequence, hidden)),
        ("gelu", {}, (sequence, hidden)),
        ("linear", {}, (sequence, dim)),
        ("add", {}, (sequence, dim)),
    ]


def _temponet_block(channels, dilation, length, stride, out_length):
    dilated = {"stride": 1, "padding": dilation, "dilation": dilation}
    return [
        ("conv1d", dilated, (channels, length)),
        ("channel_affine", {}, (channels, length)),
        ("relu", {}, (channels, length)),
        ("conv1d", dilated, (channels, length)),
        ("channel_affine", {}, (channels, length)),
        ("relu", {}, (channels, length)),
        ("conv1d", {"stride": stride, "padding": 2, "dilation": 1}, (channels, out_length)),
        ("channel_affine", {}, (channels, out_length)),
        ("relu", {}, (channels, out_length)),
        ("avgpool1d", {"kernel_size": 2, "stride": 2}, (channels, out_length // 2)),
    ]


class TestGoldenStructure:
    def test_bio1(self):
        graph = trace_model(bioformer_bio1(patch_size=10))
        assert graph.name == "Bioformer(h=8,d=1,f=10)"
        assert _structure(graph) == [
            ("conv1d", {"stride": 10, "padding": 0, "dilation": 1}, (64, 30)),
            ("transpose", {"axes": (1, 0)}, (30, 64)),
            ("append_token", {}, (31, 64)),
            ("add_positional", {}, (31, 64)),
            *_attention_block(heads=8, sequence=31),
            ("layernorm", {"eps": 1e-05}, (31, 64)),
            ("select_token", {"index": -1}, (64,)),
            ("linear", {}, (8,)),
        ]

    def test_temponet(self):
        graph = trace_model(temponet())
        assert graph.name == "TEMPONet"
        assert _structure(graph) == [
            *_temponet_block(32, dilation=2, length=300, stride=1, out_length=300),
            *_temponet_block(64, dilation=4, length=150, stride=1, out_length=150),
            *_temponet_block(128, dilation=8, length=75, stride=2, out_length=38),
            ("flatten", {}, (2432,)),
            ("linear", {}, (100,)),
            ("relu", {}, (100,)),
            ("linear", {}, (128,)),
            ("relu", {}, (128,)),
            ("linear", {}, (8,)),
        ]


# --------------------------------------------------------------------- #
# Any model built from registered leaves traces
# --------------------------------------------------------------------- #
class TinyConvNet(nn.Module):
    """A model outside the registry: Conv1d -> BatchNorm1d -> act -> AvgPool1d -> Flatten -> Linear."""

    def __init__(self, activation=None):
        super().__init__()
        rng = np.random.default_rng(8)
        self.config = SimpleNamespace(num_channels=3, window_samples=32)
        self.conv = nn.Conv1d(3, 5, kernel_size=3, padding=1, rng=rng)
        self.norm = nn.BatchNorm1d(5)
        self.norm.weight.data[:] = rng.normal(size=5)
        self.norm.bias.data[:] = rng.normal(size=5)
        self.norm.running_mean[:] = rng.normal(size=5)
        self.norm.running_var[:] = rng.uniform(0.2, 2.0, size=5)
        self.activation = activation if activation is not None else nn.ReLU()
        self.pool = nn.AvgPool1d(2)
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(5 * 16, 4, rng=rng)

    def forward(self, x):
        x = self.pool(self.activation(self.norm(self.conv(x))))
        return self.classifier(self.flatten(x))


class TanhInForward(TinyConvNet):
    def forward(self, x):
        return self.classifier(self.flatten(self.pool(self.norm(self.conv(x)).tanh())))


class DenseThen(nn.Module):
    """Flatten -> Linear -> ``leaf``: a leaf applied to a 2-D (batch, features) input."""

    def __init__(self, leaf):
        super().__init__()
        self.config = SimpleNamespace(num_channels=3, window_samples=4)
        self.flatten = nn.Flatten()
        self.linear = nn.Linear(12, 5, rng=np.random.default_rng(8))
        self.leaf = leaf

    def forward(self, x):
        return self.leaf(self.linear(self.flatten(x)))


class TestGenericTrace:
    def test_model_outside_the_registry_traces_bitwise(self):
        model = TinyConvNet().eval()
        graph = trace_model(model)
        assert [node.op for node in graph] == [
            "conv1d", "channel_affine", "relu", "avgpool1d", "flatten", "linear"
        ]
        assert [node.name for node in graph] == [
            "conv", "norm", "activation", "pool", "flatten", "classifier"
        ]
        assert graph.name == "TinyConvNet"
        x = np.random.default_rng(9).normal(size=(4, 3, 32))
        np.testing.assert_array_equal(FloatGraphExecutor(graph).run(x), model(Tensor(x)).data)

    @pytest.mark.parametrize("leaf", [nn.MaxPool1d(2), nn.Tanh()], ids=["MaxPool1d", "Tanh"])
    def test_unregistered_leaf_raises_naming_it(self, leaf):
        with pytest.raises(TypeError, match=type(leaf).__name__):
            trace_model(TinyConvNet(activation=leaf))

    @pytest.mark.parametrize(
        "leaf, message",
        [(nn.BatchNorm1d(5), "BatchNorm1d on a 2-D input"), (nn.Softmax(axis=0), r"Softmax\(axis=0\)")],
        ids=["BatchNorm1d-2d", "Softmax-batch-axis"],
    )
    def test_leaf_on_an_input_the_executor_cannot_run_raises(self, leaf, message):
        with pytest.raises(TypeError, match=message):
            trace_model(DenseThen(leaf))

    def test_unregistered_tensor_operation_raises_naming_it(self):
        with pytest.raises(TypeError, match="tanh"):
            trace_model(TanhInForward())

    def test_non_module_rejected(self):
        with pytest.raises(TypeError):
            trace_model(object())


# --------------------------------------------------------------------- #
# Tracing only reads the model
# --------------------------------------------------------------------- #
def _module_state(model):
    return [
        (module.training, sorted(vars(module)), [id(value) for value in vars(module).values()])
        for module in model.modules()
    ]


class TestTraceLeavesModelUntouched:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("make", [small_bioformer, small_temponet], ids=["bioformer", "temponet"])
    def test_model_state_unchanged(self, make, training):
        model = make().eval()
        geometry = (model.config.num_channels, model.config.window_samples)
        model(Tensor(np.random.default_rng(4).normal(size=(2,) + geometry)))
        attentions = [m for m in model.modules() if isinstance(m, nn.MultiHeadSelfAttention)]
        maps = [attention.last_attention for attention in attentions]
        assert all(map_ is not None for map_ in maps)
        model.train(training)
        state = model.state_dict()
        before = _module_state(model)
        trace_model(model)
        assert _module_state(model) == before
        assert all(a.last_attention is map_ for a, map_ in zip(attentions, maps))
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, state[key])

    def test_graph_weights_are_copies(self):
        bioformer, tcn = small_bioformer(), small_temponet()
        nodes = [node for model in (bioformer, tcn) for node in trace_model(model)]
        snapshot = [{name: array.copy() for name, array in node.weights.items()} for node in nodes]
        for model in (bioformer, tcn):
            for parameter in model.parameters():
                parameter.data += 1.0
            for _, buffer in model.named_buffers():
                buffer += 1.0
        for node, weights in zip(nodes, snapshot):
            for name, array in weights.items():
                np.testing.assert_array_equal(node.weights[name], array)


# --------------------------------------------------------------------- #
# Thread safety: no global state is patched while tracing
# --------------------------------------------------------------------- #
def _signature(graph):
    return [
        (node.name, node.op, node.attrs, node.output, node.inputs,
         {name: array.tobytes() for name, array in node.weights.items()})
        for node in graph
    ]


class TestTraceThreadSafety:
    def test_concurrent_traces_and_forwards(self):
        models = {
            "bio1": bioformer_bio1(patch_size=10, window_samples=100).eval(),
            "tcn": small_temponet().eval(),
        }
        inputs = {
            "bio1": np.random.default_rng(1).normal(size=(2, 14, 100)),
            "tcn": np.random.default_rng(2).normal(size=(2, 4, 80)),
        }
        serial_graphs = {key: _signature(trace_model(model)) for key, model in models.items()}
        serial_outputs = {key: models[key](Tensor(inputs[key])).data for key in models}
        graphs = {key: [] for key in models}
        outputs = []
        errors = []
        start = threading.Barrier(3)

        def tracer(key):
            start.wait()
            try:
                for _ in range(20):
                    graphs[key].append(_signature(trace_model(models[key])))
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        def forwards():
            start.wait()
            try:
                for index in range(20):
                    key = ("bio1", "tcn")[index % 2]
                    outputs.append((key, models[key](Tensor(inputs[key])).data))
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=tracer, args=(key,)) for key in models]
        threads.append(threading.Thread(target=forwards))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside every trace
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for key, traced in graphs.items():
            assert len(traced) == 20
            assert all(signature == serial_graphs[key] for signature in traced)
        assert len(outputs) == 20
        for key, output in outputs:
            np.testing.assert_array_equal(output, serial_outputs[key])
