"""Golden pins of the GAP8 estimate and the L1 tiling plan.

The deployment columns of the paper's Table I, the per-layer GAP8 cycle
costs, the search objective's cost dict and the default-target tiling plans
are pinned as literals (floats as ``float.hex``), so a refactor of the cost
model or the tiler must reproduce every number bit for bit.  The plans are
those of the traced graphs; the fused schedule's tiling is tested in
``test_deploy_memory_tiling.py``.
"""

import pytest

from repro.deploy import estimate_deployment, plan_tiling, trace_model
from repro.experiments import run_table1
from repro.models import BioformerConfig, bioformer_bio1, bioformer_bio2, build_model, temponet
from repro.search.objectives import ComplexityEvaluator

#: Table I row -> (latency_ms, energy_mj, mmacs, memory_kb).
TABLE1 = {
    "Bio1, wind=30": ("0x1.0f7d21c3874a4p+0", "0x1.bb11d8e4fd8fbp-5", "0x1.3b7d84901d191p+0", "0x1.be3d70a3d70a4p+6"),
    "Bio1, wind=20": ("0x1.6fe647dff213cp+0", "0x1.2c34bdb8c9a18p-4", "0x1.b60ae9680e065p+0", "0x1.9bae147ae147bp+6"),
    "Bio1, wind=10": ("0x1.5fc6cb5ac4e91p+1", "0x1.1f0cb65242789p-3", "0x1.a682b62845996p+1", "0x1.7bae147ae147bp+6"),
    "Bio2, wind=30": ("0x1.a4d63188c772ap+0", "0x1.57671a157feefp-4", "0x1.056c508b32ce9p+0", "0x1.7d374bc6a7efap+6"),
    "Bio2, wind=10": ("0x1.1dcc196082c7fp+2", "0x1.d26bcf4da23c0p-3", "0x1.460242d05f288p+1", "0x1.3aa7ef9db22d1p+6"),
    "TEMPONet": ("0x1.5e89e5534a0f5p+4", "0x1.1e0a1f7b4293ap+0", "0x1.198e10cf5b1c8p+4", "0x1.cf5f3b645a1cbp+8"),
}

#: (name, kind, cycles) of every costed node.
COSTS_bio1_10 = [
    ("patch_embedding", "conv", "0x1.6760000000000p+14"),
    ("append_token", "activation", "0x1.a800000000000p+9"),
    ("add_positional", "activation", "0x1.a800000000000p+9"),
    ("blocks.0.attention_norm", "norm", "0x1.bf99999999999p+10"),
    ("blocks.0.attention.query_projection", "linear", "0x1.183e38e38e38ep+15"),
    ("blocks.0.attention.key_projection", "linear", "0x1.183e38e38e38ep+15"),
    ("blocks.0.attention.value_projection", "linear", "0x1.183e38e38e38ep+15"),
    ("blocks.0.attention.matmul", "attention_matmul", "0x1.570e38e38e38ep+14"),
    ("blocks.0.attention.softmax", "softmax", "0x1.f340000000000p+13"),
    ("blocks.0.attention.matmul_1", "attention_matmul", "0x1.570e38e38e38ep+14"),
    ("blocks.0.attention.output_projection", "linear", "0x1.183e38e38e38ep+15"),
    ("blocks.0.add", "activation", "0x1.a800000000000p+9"),
    ("blocks.0.feedforward_norm", "norm", "0x1.bf99999999999p+10"),
    ("blocks.0.feedforward.expand", "linear", "0x1.1cee38e38e38ep+14"),
    ("blocks.0.feedforward.activation", "activation", "0x1.4300000000000p+11"),
    ("blocks.0.feedforward.contract", "linear", "0x1.1cee38e38e38ep+14"),
    ("blocks.0.add_1", "activation", "0x1.a800000000000p+9"),
    ("final_norm", "norm", "0x1.bf99999999999p+10"),
    ("head", "linear", "0x1.3dc71c71c71c7p+9"),
]

COSTS_temponet = [
    ("blocks.0.conv1", "conv", "0x1.86b7878787878p+15"),
    ("blocks.0.bn1", "norm", "0x1.fe00000000000p+10"),
    ("blocks.0.relu", "activation", "0x1.c200000000000p+10"),
    ("blocks.0.conv2", "conv", "0x1.bb852d2d2d2d3p+16"),
    ("blocks.0.bn2", "norm", "0x1.fe00000000000p+10"),
    ("blocks.0.relu_1", "activation", "0x1.c200000000000p+10"),
    ("blocks.0.strided_conv", "conv", "0x1.70d1a5a5a5a5ap+17"),
    ("blocks.0.bn3", "norm", "0x1.fe00000000000p+10"),
    ("blocks.0.relu_2", "activation", "0x1.c200000000000p+10"),
    ("blocks.0.pool", "pool", "0x1.2c00000000000p+11"),
    ("blocks.1.conv1", "conv", "0x1.bb852d2d2d2d3p+16"),
    ("blocks.1.bn1", "norm", "0x1.fe00000000000p+10"),
    ("blocks.1.relu", "activation", "0x1.c200000000000p+10"),
    ("blocks.1.conv2", "conv", "0x1.ba592d2d2d2d3p+17"),
    ("blocks.1.bn2", "norm", "0x1.fe00000000000p+10"),
    ("blocks.1.relu_1", "activation", "0x1.c200000000000p+10"),
    ("blocks.1.strided_conv", "conv", "0x1.703ba5a5a5a5ap+18"),
    ("blocks.1.bn3", "norm", "0x1.fe00000000000p+10"),
    ("blocks.1.relu_2", "activation", "0x1.c200000000000p+10"),
    ("blocks.1.pool", "pool", "0x1.2c00000000000p+11"),
    ("blocks.2.conv1", "conv", "0x1.ba592d2d2d2d3p+17"),
    ("blocks.2.bn1", "norm", "0x1.fe00000000000p+10"),
    ("blocks.2.relu", "activation", "0x1.c200000000000p+10"),
    ("blocks.2.conv2", "conv", "0x1.b9c32d2d2d2d3p+18"),
    ("blocks.2.bn2", "norm", "0x1.fe00000000000p+10"),
    ("blocks.2.relu_1", "activation", "0x1.c200000000000p+10"),
    ("blocks.2.strided_conv", "conv", "0x1.75228c8c8c8c9p+18"),
    ("blocks.2.bn3", "norm", "0x1.4c66666666666p+10"),
    ("blocks.2.relu_2", "activation", "0x1.2e00000000000p+10"),
    ("blocks.2.pool", "pool", "0x1.7a00000000000p+10"),
    ("classifier.1", "linear", "0x1.11438e38e38e3p+14"),
    ("classifier.2", "activation", "0x1.3240000000000p+9"),
    ("classifier.4", "linear", "0x1.7438e38e38e39p+10"),
    ("classifier.5", "activation", "0x1.3400000000000p+9"),
    ("classifier.7", "linear", "0x1.4f8e38e38e38ep+9"),
]

#: ComplexityEvaluator()(COMPLEXITY_CONFIG).
COMPLEXITY_CONFIG = BioformerConfig(patch_size=20, num_heads=4)
COMPLEXITY = {
    "params": 69768,
    "macs": 1121280,
    "latency_ms": "0x1.535adf0211e16p+0",
    "energy_mj": "0x1.14e9e5141ef96p-4",
    "memory_kb": "0x1.17126e978d4fep+6",
}

#: (name, tile, num_tiles, tile_bytes, dma_bytes) of every MAC kernel.
TILING_bio1 = [
    ("patch_embedding", (("out_channels", 64), ("out_length", 30)), 1, 15336, 12864),
    ("blocks.0.attention.query_projection", (("rows", 31), ("out_features", 256)), 1, 27328, 32512),
    ("blocks.0.attention.key_projection", (("rows", 31), ("out_features", 256)), 1, 27328, 32512),
    ("blocks.0.attention.value_projection", (("rows", 31), ("out_features", 256)), 1, 27328, 32512),
    ("blocks.0.attention.matmul", (("heads", 8), ("rows", 31)), 1, 23560, 23064),
    ("blocks.0.attention.matmul_1", (("heads", 8), ("rows", 31)), 1, 23560, 23808),
    ("blocks.0.attention.output_projection", (("rows", 31), ("out_features", 64)), 1, 26560, 20416),
    ("blocks.0.feedforward.expand", (("rows", 31), ("out_features", 128)), 1, 14656, 16256),
    ("blocks.0.feedforward.contract", (("rows", 31), ("out_features", 64)), 1, 14400, 12224),
    ("head", (("rows", 1), ("out_features", 8)), 1, 616, 536),
]

TILING_bio2 = [
    ("patch_embedding", (("out_channels", 64), ("out_length", 30)), 1, 15336, 12864),
    ("blocks.0.attention.query_projection", (("rows", 31), ("out_features", 64)), 1, 8320, 8128),
    ("blocks.0.attention.key_projection", (("rows", 31), ("out_features", 64)), 1, 8320, 8128),
    ("blocks.0.attention.value_projection", (("rows", 31), ("out_features", 64)), 1, 8320, 8128),
    ("blocks.0.attention.matmul", (("heads", 2), ("rows", 31)), 1, 5890, 5766),
    ("blocks.0.attention.matmul_1", (("heads", 2), ("rows", 31)), 1, 5890, 5952),
    ("blocks.0.attention.output_projection", (("rows", 31), ("out_features", 64)), 1, 8320, 8128),
    ("blocks.0.feedforward.expand", (("rows", 31), ("out_features", 128)), 1, 14656, 16256),
    ("blocks.0.feedforward.contract", (("rows", 31), ("out_features", 64)), 1, 14400, 12224),
    ("blocks.1.attention.query_projection", (("rows", 31), ("out_features", 64)), 1, 8320, 8128),
    ("blocks.1.attention.key_projection", (("rows", 31), ("out_features", 64)), 1, 8320, 8128),
    ("blocks.1.attention.value_projection", (("rows", 31), ("out_features", 64)), 1, 8320, 8128),
    ("blocks.1.attention.matmul", (("heads", 2), ("rows", 31)), 1, 5890, 5766),
    ("blocks.1.attention.matmul_1", (("heads", 2), ("rows", 31)), 1, 5890, 5952),
    ("blocks.1.attention.output_projection", (("rows", 31), ("out_features", 64)), 1, 8320, 8128),
    ("blocks.1.feedforward.expand", (("rows", 31), ("out_features", 128)), 1, 14656, 16256),
    ("blocks.1.feedforward.contract", (("rows", 31), ("out_features", 64)), 1, 14400, 12224),
    ("head", (("rows", 1), ("out_features", 8)), 1, 616, 536),
]

TILING_temponet = [
    ("blocks.0.conv1", (("out_channels", 32), ("out_length", 300)), 1, 15328, 20576),
    ("blocks.0.conv2", (("out_channels", 32), ("out_length", 300)), 1, 22528, 22304),
    ("blocks.0.strided_conv", (("out_channels", 32), ("out_length", 300)), 1, 24576, 24352),
    ("blocks.1.conv1", (("out_channels", 64), ("out_length", 150)), 1, 21056, 25408),
    ("blocks.1.conv2", (("out_channels", 64), ("out_length", 75)), 2, 22656, 43904),
    ("blocks.1.strided_conv", (("out_channels", 32), ("out_length", 150)), 2, 25024, 60288),
    ("blocks.2.conv1", (("out_channels", 64), ("out_length", 75)), 2, 23168, 68608),
    ("blocks.2.conv2", (("out_channels", 32), ("out_length", 75)), 4, 26464, 216320),
    ("blocks.2.strided_conv", (("out_channels", 32), ("out_length", 19)), 8, 26464, 666112),
    ("classifier.1", (("rows", 1), ("out_features", 8)), 13, 21928, 3163100),
    ("classifier.4", (("rows", 1), ("out_features", 128)), 1, 13540, 13184),
    ("classifier.7", (("rows", 1), ("out_features", 8)), 1, 1192, 1048),
]


@pytest.fixture(scope="module")
def table1():
    return {row.label: row for row in run_table1(measure_accuracy=False).rows}


@pytest.mark.parametrize("label", sorted(TABLE1))
def test_table1_deployment_columns(table1, label):
    row = table1[label]
    assert (
        row.latency_ms.hex(), row.energy_mj.hex(), row.mmacs.hex(), row.memory_kb.hex()
    ) == TABLE1[label]


@pytest.mark.parametrize(
    "build,expected",
    [(lambda: build_model("bio1", patch_size=10), COSTS_bio1_10), (temponet, COSTS_temponet)],
    ids=["bio1_10", "temponet"],
)
def test_layer_costs(build, expected):
    costs = estimate_deployment(trace_model(build())).latency.layer_costs
    assert [(cost.name, cost.kind, cost.cycles.hex()) for cost in costs] == expected


def test_complexity_evaluator():
    costs = ComplexityEvaluator()(COMPLEXITY_CONFIG)
    assert {
        key: value.hex() if isinstance(value, float) else value for key, value in costs.items()
    } == COMPLEXITY


@pytest.mark.parametrize(
    "build,expected",
    [(bioformer_bio1, TILING_bio1), (bioformer_bio2, TILING_bio2), (temponet, TILING_temponet)],
    ids=["bio1", "bio2", "temponet"],
)
def test_default_tiling_plan(build, expected):
    plan = plan_tiling(trace_model(build()))
    assert [
        (layer.name, tuple(layer.tile.items()), layer.num_tiles, layer.tile_bytes, layer.dma_bytes)
        for layer in plan.layers
    ] == expected
