"""Ablation benchmark — int8 quantisation cost and the I-BERT integer kernels.

Two aspects of the deployment flow:

* the accuracy cost of int8 weights/activations after QAT, scored on the
  int8 executor (paper: ~1%);
* the fidelity and speed of the integer-only softmax/GELU kernels that
  replace the float operators inside MHSA on GAP8.
"""

import numpy as np
import pytest
from scipy.special import softmax as scipy_softmax

from conftest import report
from repro.data import subject_split
from repro.deploy import deploy_graph
from repro.experiments import build_architecture
from repro.experiments.table1_gap8 import CALIBRATION_WINDOWS
from repro.quant import QATConfig, integer_gelu, integer_softmax, quantization_aware_finetune
from repro.training import evaluate, train_subject_specific
from repro.utils.tables import format_table


@pytest.mark.slow
@pytest.mark.benchmark(group="quantization")
def test_quantization_accuracy_drop(benchmark, small_context):
    """Float vs int8 accuracy of Bio1 (filter 10) after QAT (SMALL scale)."""
    split = subject_split(small_context.dataset, 1, include_pretrain=False)

    def run():
        model = build_architecture("bio1", small_context, patch_size=10, seed=1)
        train_subject_specific(
            model, split, small_context.protocol, num_classes=small_context.num_classes
        )
        float_accuracy = evaluate(model, split.test, num_classes=8).accuracy
        quantization_aware_finetune(model, split.train, QATConfig.small())
        int8_accuracy = deploy_graph(
            model,
            split.train.windows[:CALIBRATION_WINDOWS],
            split.test.windows,
            split.test.labels,
        ).int8_accuracy
        return float_accuracy, int8_accuracy

    float_accuracy, int8_accuracy = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Ablation — int8 quantisation cost (SMALL scale, Bio1 f=10, subject 1)",
        format_table(
            ["precision", "test accuracy"],
            [["fp32", f"{100 * float_accuracy:.2f}%"], ["int8 (QAT)", f"{100 * int8_accuracy:.2f}%"]],
        ),
    )
    print(f"accuracy drop: {100 * (float_accuracy - int8_accuracy):.2f}% (paper: ~1%)")
    assert int8_accuracy >= float_accuracy - 0.10


@pytest.mark.benchmark(group="quantization")
def test_ibert_integer_softmax_kernel(benchmark):
    """Throughput and fidelity of the integer-only softmax over a realistic
    attention-score tensor (8 heads x 31 x 31, the Bio1 f=10 shape)."""
    rng = np.random.default_rng(0)
    scale = 1 / 128.0
    scores = rng.standard_normal((8, 31, 31)) * 2
    quantized_scores = np.round(scores / scale).astype(np.int64)

    q_out, out_scale = benchmark(integer_softmax, quantized_scores, scale)
    reference = scipy_softmax(scores, axis=-1)
    error = np.abs(q_out * out_scale - reference).max()
    print(f"max abs error vs float softmax: {error:.4f}")
    assert error < 0.02


@pytest.mark.benchmark(group="quantization")
def test_ibert_integer_gelu_kernel(benchmark):
    """Throughput and fidelity of the integer-only GELU over an FFN activation
    tensor (31 tokens x 128 hidden, the Bio1 f=10 shape)."""
    from scipy.special import erf

    rng = np.random.default_rng(1)
    scale = 1 / 64.0
    activations = rng.standard_normal((31, 128)) * 2
    quantized = np.round(activations / scale).astype(np.int64)

    q_out, out_scale = benchmark(integer_gelu, quantized, scale)
    reference = activations * 0.5 * (1.0 + erf(activations / np.sqrt(2)))
    error = np.abs(q_out * out_scale - reference).max()
    print(f"max abs error vs float GELU: {error:.4f}")
    assert error < 0.1
