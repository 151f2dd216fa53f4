"""Tests for gradient checking and training callbacks."""

import os

import numpy as np
import pytest

from repro import nn
from repro.models import Bioformer, BioformerConfig
from repro.nn import (
    GradientCheckError,
    Tensor,
    check_gradient,
    check_module_gradients,
    numerical_gradient,
)
from repro.training import BestModelCheckpoint, EarlyStopping, ExponentialMovingAverage


def small_bioformer():
    return Bioformer(
        BioformerConfig(num_channels=4, window_samples=60, patch_size=10, depth=1, num_heads=2, seed=1)
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(33)


# --------------------------------------------------------------------- #
# Gradient checking
# --------------------------------------------------------------------- #
class TestGradcheck:
    def test_numerical_gradient_of_quadratic(self, rng):
        value = rng.normal(size=(3, 4))
        gradient = numerical_gradient(lambda x: (x * x).sum(), value)
        np.testing.assert_allclose(gradient, 2 * value, atol=1e-5)

    def test_check_gradient_passes_for_correct_ops(self, rng):
        value = rng.normal(size=(4, 3))
        error = check_gradient(lambda x: (x.tanh() * x).sum(), value)
        assert error < 1e-5

    def test_check_gradient_scalar_requirement(self, rng):
        with pytest.raises(ValueError):
            check_gradient(lambda x: x * 2.0, rng.normal(size=(2, 2)))

    def test_check_gradient_detects_broken_gradient(self, rng):
        # A function whose "gradient" path deliberately drops a factor of 2:
        # detach the doubled term so autograd only sees half the contribution.
        def broken(x):
            return (x * x).sum() + Tensor(x.data * x.data).sum()

        with pytest.raises(GradientCheckError):
            check_gradient(broken, rng.normal(size=(3,)))

    def test_module_gradients_linear(self, rng):
        layer = nn.Linear(6, 3, rng=rng)
        results = check_module_gradients(layer, rng.normal(size=(5, 6)))
        assert set(results) == {"weight", "bias"}

    def test_module_gradients_small_bioformer_head(self, rng):
        model = small_bioformer()
        results = check_module_gradients(
            model,
            rng.normal(size=(2, 4, 60)),
            parameters=["head.weight", "head.bias", "class_token"],
            max_elements_per_parameter=4,
            rtol=1e-3,
            atol=1e-5,
        )
        assert len(results) == 3

    def test_module_gradients_unknown_parameter(self, rng):
        layer = nn.Linear(4, 2, rng=rng)
        with pytest.raises(KeyError):
            check_module_gradients(layer, rng.normal(size=(3, 4)), parameters=["nope"])


# --------------------------------------------------------------------- #
# Early stopping
# --------------------------------------------------------------------- #
class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2)
        metrics = [0.5, 0.6, 0.59, 0.58, 0.57]
        stops = [stopper.update(metric) for metric in metrics]
        assert stops == [False, False, False, True, True]
        assert stopper.best_metric == 0.6

    def test_improvement_resets_patience(self):
        stopper = EarlyStopping(patience=2)
        for metric in (0.5, 0.49, 0.55, 0.54):
            stopped = stopper.update(metric)
        assert not stopped
        assert stopper.bad_updates == 1

    def test_min_mode(self):
        stopper = EarlyStopping(patience=1, mode="min")
        stopper.update(1.0)
        assert not stopper.update(0.5)
        assert stopper.update(0.6)

    def test_min_delta(self):
        stopper = EarlyStopping(patience=1, min_delta=0.05)
        stopper.update(0.5)
        assert stopper.update(0.52)  # not enough improvement

    def test_restore_best_state(self, rng):
        model = nn.Linear(3, 2, rng=rng)
        stopper = EarlyStopping(patience=1)
        stopper.update(0.9, model)
        best_weight = model.weight.data.copy()
        model.weight.data[...] = 0.0
        stopper.update(0.1, model)
        assert stopper.restore(model)
        np.testing.assert_allclose(model.weight.data, best_weight)

    def test_restore_without_state(self, rng):
        assert not EarlyStopping().restore(nn.Linear(2, 2, rng=rng))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(mode="median")
        with pytest.raises(ValueError):
            EarlyStopping(min_delta=-0.1)


# --------------------------------------------------------------------- #
# Checkpointing and EMA
# --------------------------------------------------------------------- #
class TestCheckpointAndEMA:
    def test_checkpoint_saves_only_on_improvement(self, rng, tmp_path):
        model = nn.Linear(4, 2, rng=rng)
        checkpoint = BestModelCheckpoint(str(tmp_path / "best.npz"))
        assert checkpoint.update(0.5, model)
        assert not checkpoint.update(0.4, model)
        assert checkpoint.update(0.7, model)
        assert os.path.exists(str(tmp_path / "best.npz"))

    def test_checkpoint_round_trip(self, rng, tmp_path):
        model = nn.Linear(4, 2, rng=rng)
        checkpoint = BestModelCheckpoint(str(tmp_path / "best.npz"))
        checkpoint.update(0.9, model)
        saved_weight = model.weight.data.copy()
        model.weight.data[...] = -1.0
        checkpoint.load_best(model)
        np.testing.assert_allclose(model.weight.data, saved_weight)

    def test_checkpoint_load_before_save(self, rng, tmp_path):
        with pytest.raises(FileNotFoundError):
            BestModelCheckpoint(str(tmp_path / "best.npz")).load_best(nn.Linear(2, 2, rng=rng))

    def test_checkpoint_mode_validation(self, tmp_path):
        with pytest.raises(ValueError):
            BestModelCheckpoint(str(tmp_path / "x.npz"), mode="other")

    def test_ema_converges_to_constant_weights(self, rng):
        model = nn.Linear(3, 2, rng=rng)
        ema = ExponentialMovingAverage(model, decay=0.5)
        target = model.weight.data.copy()
        for _ in range(30):
            ema.update(model)
        np.testing.assert_allclose(ema.shadow["weight"], target, atol=1e-6)

    def test_ema_apply_and_restore(self, rng):
        model = nn.Linear(3, 2, rng=rng)
        ema = ExponentialMovingAverage(model, decay=0.9)
        original = model.weight.data.copy()
        model.weight.data[...] = original + 1.0
        ema.update(model)
        ema.apply_to(model)
        assert not np.allclose(model.weight.data, original + 1.0)
        ema.restore(model)
        np.testing.assert_allclose(model.weight.data, original + 1.0)

    def test_ema_restore_without_apply(self, rng):
        model = nn.Linear(2, 2, rng=rng)
        ema = ExponentialMovingAverage(model)
        with pytest.raises(RuntimeError):
            ema.restore(model)

    def test_ema_decay_validation(self, rng):
        model = nn.Linear(2, 2, rng=rng)
        with pytest.raises(ValueError):
            ExponentialMovingAverage(model, decay=1.0)
