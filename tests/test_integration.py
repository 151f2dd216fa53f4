"""End-to-end integration tests: data -> training -> quantisation -> deployment.

These exercise the full pipeline a user of the library would run, at the
tiny scale so the whole file completes in well under a minute.
"""

import numpy as np
import pytest

from repro.data import DataLoader, NinaProDB6, NinaProDB6Config, subject_split
from repro.deploy import deploy_graph, estimate_deployment, trace_model
from repro.hw import GAP8Config
from repro.models import bioformer_bio1, build_model, temponet
from repro.nn import Adam, CrossEntropyLoss, Tensor, save_checkpoint, load_checkpoint
from repro.quant import QATConfig, quantization_aware_finetune
from repro.training import (
    ProtocolConfig,
    Trainer,
    TrainingConfig,
    evaluate,
    run_two_step_protocol,
    train_subject_specific,
)


class TestEndToEndPipeline:
    def test_full_paper_pipeline_at_tiny_scale(self, tiny_dataset, tiny_split):
        """Train -> pre-train protocol -> QAT -> int8 eval -> GAP8 deployment."""
        window = tiny_dataset.config.window_samples
        model = bioformer_bio1(patch_size=10, window_samples=window, seed=2)

        outcome = run_two_step_protocol(model, tiny_split, ProtocolConfig.tiny(), num_classes=8)
        assert 0.0 <= outcome.test_accuracy <= 1.0

        quantization_aware_finetune(model, tiny_split.train, QATConfig.tiny())
        quantized = deploy_graph(
            model,
            tiny_split.train.windows,
            tiny_split.test.windows,
            tiny_split.test.labels,
        )
        assert 0.0 <= quantized.int8_accuracy <= 1.0

        record = estimate_deployment(trace_model(build_model("bio1", patch_size=10)))  # paper geometry
        assert record.memory_kilobytes < 512  # fits GAP8 L2
        assert record.latency_ms < 10
        assert record.duty_cycle.battery_life_hours > 50

    def test_training_improves_over_chance(self, tiny_dataset, tiny_split):
        """Even the tiny budget beats the 1/8 chance level on the train set."""
        window = tiny_dataset.config.window_samples
        model = bioformer_bio1(patch_size=10, window_samples=window, seed=0)
        outcome = train_subject_specific(model, tiny_split, ProtocolConfig.tiny(), num_classes=8)
        assert outcome.train_history.final_train_accuracy > 1.5 / 8

    def test_checkpoint_roundtrip_preserves_predictions(self, tmp_path, tiny_dataset, tiny_split):
        window = tiny_dataset.config.window_samples
        model = bioformer_bio1(patch_size=10, window_samples=window, seed=4)
        train_subject_specific(model, tiny_split, ProtocolConfig.tiny(), num_classes=8)
        model.eval()
        x = Tensor(tiny_split.test.windows[:8])
        before = model(x).data.copy()

        path = str(tmp_path / "bioformer.npz")
        save_checkpoint(model, path)
        restored = bioformer_bio1(patch_size=10, window_samples=window, seed=99)
        load_checkpoint(restored, path)
        restored.eval()
        np.testing.assert_allclose(restored(x).data, before, atol=1e-10)

    def test_manual_training_loop_with_dataloader(self, tiny_dataset):
        """The low-level API (DataLoader + Adam + CrossEntropy) works without
        the Trainer convenience wrapper."""
        train = tiny_dataset.training_dataset(1)
        window = tiny_dataset.config.window_samples
        model = temponet(window_samples=window, seed=1)
        optimizer = Adam(model.parameters(), lr=1e-3)
        loss_function = CrossEntropyLoss()
        loader = DataLoader(train, batch_size=16, shuffle=True, rng=np.random.default_rng(0))

        first_loss, last_loss = None, None
        for windows, labels in loader:
            logits = model(Tensor(windows))
            loss = loss_function(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = float(loss.data)
            last_loss = float(loss.data)
        assert first_loss is not None and np.isfinite(last_loss)

    def test_trainer_generic_over_architectures(self, tiny_dataset):
        """The same Trainer drives both the transformer and the TCN."""
        train = tiny_dataset.training_dataset(1)
        window = tiny_dataset.config.window_samples
        for model in (
            bioformer_bio1(patch_size=10, window_samples=window),
            temponet(window_samples=window),
        ):
            trainer = Trainer(
                model,
                Adam(model.parameters(), lr=1e-3),
                config=TrainingConfig(epochs=1, batch_size=32),
                rng=np.random.default_rng(0),
            )
            history = trainer.fit(train)
            assert len(history.records) == 1

    def test_cross_subject_generalisation_gap(self, tiny_dataset):
        """A model trained on subject 1 does better on subject 1's test data
        than on subject 2's — the subject-specificity that motivates the
        paper's per-subject fine-tuning."""
        window = tiny_dataset.config.window_samples
        split_1 = subject_split(tiny_dataset, 1, include_pretrain=False)
        model = bioformer_bio1(patch_size=10, window_samples=window, seed=6)
        protocol = ProtocolConfig(standard_epochs=6, standard_lr=1e-3, batch_size=32)
        train_subject_specific(model, split_1, protocol, num_classes=8)
        own = evaluate(model, split_1.test, num_classes=8).accuracy
        other = evaluate(model, tiny_dataset.testing_dataset(2), num_classes=8).accuracy
        assert own >= other - 0.05

    def test_deployment_of_every_registry_model(self):
        """Every architecture in the registry passes the deployment pipeline."""
        for model in (
            build_model("bio1", patch_size=10),
            build_model("bio2", patch_size=30),
            build_model("temponet"),
        ):
            record = estimate_deployment(trace_model(model), gap8=GAP8Config())
            assert record.mmacs > 0 and record.latency_ms > 0
            assert record.memory_kilobytes < 512
