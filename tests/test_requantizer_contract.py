"""The requantiser contract: one ``(multiplier, shift)`` pair per kernel role.

``quantize_weights`` stores in ``QuantizedNode.requantizers`` exactly the
pairs each integer kernel applies; the executor, the GELU table builder and
codegen only read them.  These tests recompute every pair on the test side,
from the float activation scales and the output scales of the
``repro.quant.ibert`` kernels, across the registry × four calibration
percentiles, and check that every ``weights.h`` requantiser macro equals
the stored pair.
"""

import re
from dataclasses import fields

import numpy as np
import pytest

from repro.deploy import LoweringConfig, generate_c_sources, lower_to_int8, trace_model
from repro.deploy.lowering import GemmTileInfo, quantize_multiplier
from repro.models import build_model
from repro.quant import ibert

#: (architecture, model kwargs) of every registry-reachable configuration.
CONFIGS = {
    "bio1-p10": ("bio1", dict(patch_size=10)),
    "bio1-p20": ("bio1", dict(patch_size=20)),
    "bio2-p10": ("bio2", dict(patch_size=10)),
    "bio2-p20": ("bio2", dict(patch_size=20)),
    "temponet": ("temponet", {}),
    "bio1-mean": ("bio1", dict(patch_size=10, pooling="mean")),
}

#: Each calibration percentile moves nearly every activation scale off the
#: default 99.9th percentile one, so every pair is recomputed from
#: different scales.
LOWERINGS = {
    "default": LoweringConfig(),
    "p99": LoweringConfig(calibration_percentile=99.0),
    "p99.99": LoweringConfig(calibration_percentile=99.99),
    "absmax": LoweringConfig(calibration_percentile=100.0),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def graph(request):
    arch, kwargs = CONFIGS[request.param]
    model = build_model(arch, num_channels=4, window_samples=60, seed=11, **kwargs)
    return trace_model(model.eval())


@pytest.fixture(scope="module", params=sorted(LOWERINGS))
def quantized(request, graph):
    calibration = np.random.default_rng(5).normal(size=(16, 4, 60))
    return lower_to_int8(graph, calibration, config=LOWERINGS[request.param])


def signed_pair(factor):
    multiplier, shift = quantize_multiplier(abs(factor))
    return (-multiplier if factor < 0 else multiplier), shift


def expected_factors(quantized, lowered):
    """Each role's float requantisation factor, recomputed from the scales."""
    node = lowered.node
    scale = {name: act.scale for name, act in quantized.activations.items()}
    in_scale = scale[node.inputs[0]]
    out_scale = scale[node.output.name]
    op = node.op
    if op in ("conv1d", "linear"):
        return {"output": in_scale * lowered.constants["weight"].scale / out_scale}
    if op == "matmul":
        product = in_scale * scale[node.inputs[1]] * float(node.attrs.get("scale", 1.0))
        return {"output": product / out_scale}
    if op == "channel_affine":
        return {"output": in_scale * lowered.constants["scale"].scale / out_scale}
    if op == "relu":
        return {"output": in_scale / out_scale}
    if op == "add":
        return {"lhs": in_scale / out_scale, "rhs": scale[node.inputs[1]] / out_scale}
    if op in ("append_token", "add_positional"):
        return {"input": in_scale / out_scale}
    if op == "gelu":
        _, kernel_scale = ibert.integer_gelu(np.array([1]), in_scale)
        return {"output": kernel_scale / out_scale}
    if op == "softmax":
        _, kernel_scale = ibert.integer_softmax(np.array([[0, 1]]), in_scale)
        return {"output": kernel_scale / out_scale}
    if op == "layernorm":
        features = node.weights["weight"].shape[0]
        _, kernel_scale = ibert.integer_layernorm(
            np.arange(features)[None, :], in_scale, node.weights["weight"], node.weights["bias"]
        )
        return {"output": kernel_scale / out_scale}
    if op == "avgpool1d":
        return {"output": in_scale / int(node.attrs["kernel_size"]) / out_scale}
    if op == "mean_tokens":
        tokens = quantized.source_graph.tensor_specs()[node.inputs[0]].shape[0]
        return {"output": in_scale / tokens / out_scale}
    return {}  # shape-only: the int8 data moves unchanged


def test_every_stored_pair_is_the_pair_its_kernel_applies(quantized):
    assert quantized.nodes
    for name, lowered in quantized.nodes.items():
        factors = expected_factors(quantized, lowered)
        expected = {role: signed_pair(factor) for role, factor in factors.items()}
        assert lowered.requantizers == expected, name


def test_weights_h_macros_equal_the_stored_pairs(quantized):
    weights = generate_c_sources(quantized)["weights.h"].content
    emitted = {}
    for prefix, kind, value in re.findall(
        r"#define (\w+)_(MULTIPLIER|SHIFT) (-?\d+)", weights
    ):
        emitted.setdefault(prefix, {})[kind] = int(value)
    stored = {
        f"{name}_{role}".replace(".", "_").replace("-", "_").upper(): pair
        for name, lowered in quantized.nodes.items()
        for role, pair in lowered.requantizers.items()
    }
    assert stored
    assert set(emitted) == set(stored)
    for prefix, (multiplier, shift) in stored.items():
        assert emitted[prefix] == {"MULTIPLIER": multiplier, "SHIFT": shift}, prefix


def test_gemm_tile_is_the_shape_only():
    assert [field.name for field in fields(GemmTileInfo)] == ["m", "k", "n"]
