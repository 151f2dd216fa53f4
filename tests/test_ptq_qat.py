"""Tests of the int8 build of a trained model and of quantisation-aware training.

The int8 model is the one the server and Table I run: ``deploy_graph`` /
``build_int8_backend`` lower the traced model and the integer executor
scores it.
"""

import numpy as np
import pytest

from repro.deploy import LoweringConfig, deploy_graph
from repro.models import bioformer_bio1, bioformer_bio2
from repro.quant import QATConfig, quantization_aware_finetune
from repro.serve import build_int8_backend
from repro.training import ProtocolConfig, evaluate, train_subject_specific


@pytest.fixture(scope="module")
def trained_model(tiny_split, tiny_dataset):
    """A Bioformer trained briefly on the tiny dataset."""
    model = bioformer_bio1(
        patch_size=10, window_samples=tiny_dataset.config.window_samples, seed=0
    )
    train_subject_specific(model, tiny_split, ProtocolConfig.tiny(), num_classes=8)
    return model


# The module-scoped fixtures need session-scoped dependencies re-exported.
@pytest.fixture(scope="module")
def tiny_dataset():
    from repro.data import NinaProDB6, NinaProDB6Config

    return NinaProDB6(NinaProDB6Config.tiny())


@pytest.fixture(scope="module")
def tiny_split(tiny_dataset):
    from repro.data import subject_split

    return subject_split(tiny_dataset, 1)


def int8_accuracy(model, split, config=None):
    """Accuracy of ``model`` on the int8 executor, calibrated on the train split."""
    return deploy_graph(
        model,
        split.train.windows,
        split.test.windows,
        split.test.labels,
        generate_code=False,
        config=config,
    ).int8_accuracy


class TestQuantizeParameters:
    """Weight quantisation of the int8 build."""

    def test_every_parameter_quantized(self):
        model = bioformer_bio2(patch_size=10, window_samples=100)
        quantized = build_int8_backend(model).quantized
        for node in quantized.graph:
            assert set(quantized.nodes[node.name].constants) == set(node.weights), node.name
        weights = [
            payload.constants["weight"]
            for payload in quantized.nodes.values()
            if payload.node.op in ("conv1d", "linear")
        ]
        assert weights
        for weight in weights:
            assert weight.dtype == "int8"
            assert -128 <= weight.values.min() and weight.values.max() <= 127

    def test_reconstruction_error_small(self):
        model = bioformer_bio1(patch_size=10, window_samples=100)
        quantized = build_int8_backend(model).quantized
        for node in quantized.graph:
            if node.op not in ("conv1d", "linear"):
                continue
            original = node.weights["weight"]
            weight = quantized.nodes[node.name].constants["weight"]
            reconstruction = weight.values * weight.scale
            scale = float(np.max(np.abs(original))) + 1e-12
            assert np.max(np.abs(original - reconstruction)) <= scale / 127 + 1e-9


class TestQuantizedModel:
    """The int8 model of a trained Bioformer on the integer executor."""

    def test_memory_matches_paper_table1(self):
        """Bio1 (filter 10) int8 constants are ~94 kB; Bio2 (filter 10) ~78 kB."""
        bio1 = build_int8_backend(bioformer_bio1(patch_size=10)).quantized
        bio2 = build_int8_backend(bioformer_bio2(patch_size=10)).quantized
        assert abs(bio1.weight_kilobytes - 94.2) < 4.0
        assert abs(bio2.weight_kilobytes - 78.3) < 4.0

    def test_compression_ratio_is_four(self):
        """Every weight matrix ships as int8: a quarter of its fp32 bytes."""
        quantized = build_int8_backend(bioformer_bio1(patch_size=10, window_samples=100)).quantized
        macs = [node for node in quantized.graph if node.op in ("conv1d", "linear")]
        float_bytes = sum(4 * node.weights["weight"].size for node in macs)
        int8_bytes = sum(quantized.nodes[node.name].constants["weight"].nbytes for node in macs)
        assert float_bytes / int8_bytes == pytest.approx(4.0)

    def test_quantized_accuracy_close_to_float(self, trained_model, tiny_split):
        float_accuracy = evaluate(trained_model, tiny_split.test, num_classes=8).accuracy
        quantized_accuracy = int8_accuracy(trained_model, tiny_split)
        # Int8 costs at most a few points of accuracy (paper: ~1%).
        assert quantized_accuracy >= float_accuracy - 0.10

    def test_float_weights_restored_after_evaluation(self, trained_model, tiny_split):
        """Building and scoring the int8 model leaves the float weights as they were."""
        before = {name: p.data.copy() for name, p in trained_model.named_parameters()}
        int8_accuracy(trained_model, tiny_split)
        for name, parameter in trained_model.named_parameters():
            np.testing.assert_array_equal(parameter.data, before[name])

    def test_evaluate_quantized_helper(self, trained_model, tiny_split):
        """The int8 build calibrated on the train split scores the test split."""
        report = deploy_graph(
            trained_model,
            tiny_split.train.windows,
            tiny_split.test.windows,
            tiny_split.test.labels,
            generate_code=False,
        )
        assert 0.0 <= report.int8_accuracy <= 1.0
        assert 0.0 <= report.float_agreement <= 1.0
        assert report.int8_accuracy == int8_accuracy(trained_model, tiny_split)

    def test_lower_weight_bits_degrade_more(self, trained_model, tiny_split):
        int8 = int8_accuracy(trained_model, tiny_split, LoweringConfig(weight_bits=8))
        int3 = int8_accuracy(trained_model, tiny_split, LoweringConfig(weight_bits=3))
        assert int3 <= int8 + 0.05


class TestQAT:
    def test_qat_runs_and_keeps_weights_float(self, trained_model, tiny_split):
        before_dtype = next(iter(trained_model.parameters())).data.dtype
        result = quantization_aware_finetune(trained_model, tiny_split.train, QATConfig.tiny())
        assert result.epochs == 1
        assert 0.0 <= result.final_train_accuracy <= 1.0
        assert next(iter(trained_model.parameters())).data.dtype == before_dtype

    def test_qat_does_not_destroy_accuracy(self, tiny_split, tiny_dataset):
        model = bioformer_bio2(
            patch_size=10, window_samples=tiny_dataset.config.window_samples, seed=1
        )
        train_subject_specific(model, tiny_split, ProtocolConfig.tiny(), num_classes=8)
        float_accuracy = evaluate(model, tiny_split.test, num_classes=8).accuracy
        quantization_aware_finetune(model, tiny_split.train, QATConfig.tiny())
        quantized = int8_accuracy(model, tiny_split)
        assert quantized >= float_accuracy - 0.15

    def test_qat_config_presets(self):
        assert QATConfig.paper().epochs >= QATConfig.small().epochs >= QATConfig.tiny().epochs
