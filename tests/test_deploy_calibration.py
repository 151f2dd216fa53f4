"""Activation calibration of the deploy compiler.

``calibrate_activations``, the compiler's first stage, gives every
activation one symmetric int8 scale:

* a tensor whose scale is free covers the calibration percentile of its
  magnitudes.  ``_tail_percentile`` selects only the top tail, and it must
  equal ``np.percentile`` bit for bit;
* softmax outputs are pinned to ``1 / qmax``;
* shape-only outputs share their input's scale, because the integer
  executor and the generated ``net_copy_i8`` pass int8 data through
  without requantising it;
* a NaN or an infinity in any calibration activation raises, naming the
  tensor, and so does an empty calibration batch.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import (
    CalibrationError,
    FloatGraphExecutor,
    IntegerGraphExecutor,
    lower_to_int8,
    trace_model,
)
from repro.deploy.lowering import _TAIL_SAMPLE_STRIDE, _symmetric_scale, _tail_percentile
from repro.eval import RecordingGenerator, fit_probe_model
from repro.models import build_model
from repro.serve import build_int8_backend

GEOMETRY = dict(num_channels=4, window_samples=60, seed=11)

#: Every registry-reachable (architecture, patch_size) pair.
CONFIGS = [
    ("bio1", 10),
    ("bio1", 20),
    ("bio2", 10),
    ("bio2", 20),
    ("temponet", None),
]

PERCENTILES = [0.0, 50.0, 99.0, 99.9, 99.99, 100.0 - 1e-9]


def config_id(config):
    arch, patch = config
    return arch if patch is None else f"{arch}-p{patch}"


def make_model(arch, patch=10):
    kwargs = dict(GEOMETRY)
    if arch != "temponet":
        kwargs["patch_size"] = patch
    return build_model(arch, **kwargs).eval()


def bits_of(value):
    return np.float64(value).tobytes()


@pytest.fixture(scope="module")
def calibration():
    return np.random.default_rng(5).normal(size=(16, 4, 60))


@pytest.fixture(scope="module", params=CONFIGS, ids=config_id)
def lowered(request, calibration):
    arch, patch = request.param
    graph = trace_model(make_model(arch, patch))
    return graph, lower_to_int8(graph, calibration)


# --------------------------------------------------------------------- #
# The tail selector
# --------------------------------------------------------------------- #
def magnitudes(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return np.abs(rng.standard_normal(n))
    if kind == "ties":
        return rng.integers(0, 4, size=n).astype(np.float64)
    if kind == "zeros":
        return np.zeros(n)
    if kind == "cauchy":
        return np.abs(rng.standard_cauchy(n))
    if kind == "replicated":
        # One row tiled over a batch axis, like the class token in the
        # append_token output: its largest value sits at a sampled
        # position, so every copy of it lands in the sample.
        width = 4 * _TAIL_SAMPLE_STRIDE
        rows = -(-n // (16 * width))
        values = np.abs(rng.standard_normal((16, rows, width)))
        shared = 3.0 * np.abs(rng.standard_normal(width))
        shared[0] = shared.max() + 1.0
        values[:, 0, :] = shared
        return values.reshape(-1)[:n]
    # "strided": the sample positions hold the largest values, so the
    # sampled threshold keeps too few elements and the selector must grow
    # the sample or fall back to the whole array.
    values = np.abs(rng.standard_normal(n))
    values[::_TAIL_SAMPLE_STRIDE] += 1e3 + np.arange(values[::_TAIL_SAMPLE_STRIDE].size)
    return values


@given(
    n=st.integers(min_value=1, max_value=5000),
    kind=st.sampled_from(["normal", "ties", "zeros", "cauchy", "strided", "replicated"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=400, deadline=None)
def test_tail_percentile_equals_numpy_bitwise(n, kind, seed):
    values = magnitudes(kind, n, seed)
    for percentile in PERCENTILES:
        expected = np.percentile(values, percentile)
        assert bits_of(_tail_percentile(values, percentile)) == bits_of(expected), (
            n,
            kind,
            percentile,
        )


def test_sample_that_misses_the_tail_falls_back_to_the_whole_array():
    values = magnitudes("strided", 16000, seed=3)
    for percentile in (99.0, 99.9):
        need = values.size - int((values.size - 1) * (percentile / 100.0))
        sampled = values[::_TAIL_SAMPLE_STRIDE]
        keep = 2 * (need // _TAIL_SAMPLE_STRIDE) + 8
        threshold = np.sort(sampled)[sampled.size - keep]
        assert np.count_nonzero(values >= threshold) < need  # first threshold too high
        assert bits_of(_tail_percentile(values, percentile)) == bits_of(
            np.percentile(values, percentile)
        )


def test_replicated_row_grows_the_sample_instead_of_taking_the_whole_array(monkeypatch):
    values = magnitudes("replicated", 16 * 31 * 64, seed=3)
    percentile = 99.9
    need = values.size - int((values.size - 1) * (percentile / 100.0))
    sampled = values[::_TAIL_SAMPLE_STRIDE]
    keep = 2 * (need // _TAIL_SAMPLE_STRIDE) + 8
    threshold = np.sort(sampled)[sampled.size - keep]
    assert np.count_nonzero(values >= threshold) < need  # first threshold too high
    partitioned = []
    partition = np.partition

    def recording_partition(array, kth):
        partitioned.append(np.size(array))
        return partition(array, kth)

    monkeypatch.setattr(np, "partition", recording_partition)
    result = _tail_percentile(values, percentile)
    monkeypatch.undo()
    assert bits_of(result) == bits_of(np.percentile(values, percentile))
    # The final selection runs on a grown tail, not on the whole array.
    assert partitioned[-1] < values.size // _TAIL_SAMPLE_STRIDE


# --------------------------------------------------------------------- #
# Scales of the lowered registry graphs
# --------------------------------------------------------------------- #
def test_calibrated_scales_equal_numpy_percentile(lowered, calibration):
    graph, quantized = lowered
    percentile = quantized.config.calibration_percentile
    recorded = {}
    FloatGraphExecutor(graph).run(calibration, recorded.__setitem__)
    calibrated = [graph.graph_input.name] + [
        node.output.name
        for node in graph.nodes
        if not node.is_shape_only and node.op != "softmax"
    ]
    for name in calibrated:
        bound = max(float(np.percentile(np.abs(recorded[name]), percentile)), 1e-8)
        assert bits_of(quantized.activations[name].scale) == bits_of(bound / 127.0), name


def test_shape_only_outputs_share_their_input_scale(lowered):
    graph, quantized = lowered
    shape_only = [node for node in graph.nodes if node.is_shape_only]
    assert shape_only
    for node in shape_only:
        source = quantized.activations[node.inputs[0]]
        assert quantized.activations[node.output.name].scale == source.scale, node.name


# --------------------------------------------------------------------- #
# Int8 logits track float on a trained class-token Bioformer
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def generator():
    return RecordingGenerator(
        num_channels=4, num_classes=5, class_separation=2.5, noise_std=0.25, seed=7
    )


@pytest.mark.parametrize(
    "arch, patch", CONFIGS[:-1], ids=[config_id(config) for config in CONFIGS[:-1]]
)
def test_int8_logits_track_float_logits(generator, arch, patch):
    """The head reads ``select_token`` on the scale its int8 data carries.

    Were the token calibrated on its own subset, the head's matmul term
    would be rescaled against its bias and every logit shrunk.
    """
    model = fit_probe_model(
        generator, 60, architecture=arch, patch_size=patch, windows_per_class=16, epochs=6
    )
    assert model.config.pooling == "class_token"
    calibration = generator.windows(2, 60, seed=1000)[0]
    windows = generator.windows(4, 60, seed=1001)[0]
    graph = trace_model(model)
    int8 = IntegerGraphExecutor(lower_to_int8(graph, calibration)).run(windows)
    reference = FloatGraphExecutor(graph).run(windows)
    ratio = float((int8 * reference).sum() / (reference * reference).sum())
    assert abs(ratio - 1.0) < 0.05, ratio


# --------------------------------------------------------------------- #
# Non-finite calibration
# --------------------------------------------------------------------- #
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_calibration_raises_naming_the_tensor(calibration, bad):
    graph = trace_model(make_model("bio1"))
    corrupted = calibration.copy()
    corrupted[3, 1, 17] = bad
    with pytest.raises(ValueError, match=re.escape(f"'{graph.graph_input.name}'")):
        lower_to_int8(graph, corrupted)


@pytest.mark.parametrize("entry_point", ["lower_to_int8", "build_int8_backend"])
@pytest.mark.parametrize("arch", ["bio2", "temponet"])
def test_empty_calibration_batch_raises(arch, entry_point):
    """An empty batch used to lower silently with every free scale 1.0."""
    model = make_model(arch)
    empty = np.zeros((0, GEOMETRY["num_channels"], GEOMETRY["window_samples"]))
    with pytest.raises(CalibrationError, match="empty"):
        if entry_point == "lower_to_int8":
            lower_to_int8(trace_model(model), empty)
        else:
            build_int8_backend(model, empty)


def test_non_finite_intermediate_activation_is_named():
    values = np.array([[0.5, -np.inf], [1.0, 2.0]])
    with pytest.raises(CalibrationError, match="'encoder.ffn'"):
        _symmetric_scale(values, percentile=99.9, name="encoder.ffn")
