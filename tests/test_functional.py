"""Tests of the functional ops (repro.nn.functional)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.deploy.tracers import _folded_batchnorm
from repro.nn import BatchNorm1d, Tensor
from repro.nn import functional as F
from repro.nn.gradcheck import check_gradient


def finite_difference(function, tensor, index, eps=1e-6):
    original = tensor.data[index]
    tensor.data[index] = original + eps
    up = float(function().data)
    tensor.data[index] = original - eps
    down = float(function().data)
    tensor.data[index] = original
    return (up - down) / (2 * eps)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)))
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_invariant_to_shift(self, rng):
        x = rng.standard_normal((3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_numerically_stable_for_large_logits(self):
        out = F.softmax(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.standard_normal((2, 6)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10
        )

    def test_softmax_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        (F.softmax(x) ** 2).sum().backward()
        index = (1, 2)
        numeric = finite_difference(lambda: (F.softmax(Tensor(x.data)) ** 2).sum(), x, index)
        assert abs(numeric - x.grad[index]) < 1e-5

    @given(arrays(np.float64, (3, 5), elements=st.floats(-30, 30)))
    @settings(max_examples=25, deadline=None)
    def test_softmax_probabilities_property(self, values):
        out = F.softmax(Tensor(values)).data
        assert np.all(out >= 0) and np.all(out <= 1)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


class TestActivations:
    def test_gelu_reference_values(self):
        # GELU(0) = 0, GELU(large) ~ identity, GELU(-large) ~ 0.
        out = F.gelu(Tensor([0.0, 10.0, -10.0])).data
        assert out[0] == pytest.approx(0.0, abs=1e-9)
        assert out[1] == pytest.approx(10.0, rel=1e-4)
        assert out[2] == pytest.approx(0.0, abs=1e-3)

    def test_gelu_matches_erf_formula(self, rng):
        from scipy.special import erf

        x = rng.standard_normal(100)
        expected = x * 0.5 * (1.0 + erf(x / np.sqrt(2)))
        np.testing.assert_allclose(F.gelu(Tensor(x)).data, expected, atol=5e-3)

    def test_relu_and_sigmoid_and_tanh(self):
        x = Tensor([-1.0, 2.0])
        np.testing.assert_allclose(F.relu(x).data, [0.0, 2.0])
        np.testing.assert_allclose(F.sigmoid(x).data, 1 / (1 + np.exp([1.0, -2.0])))
        np.testing.assert_allclose(F.tanh(x).data, np.tanh([-1.0, 2.0]))

    def test_gelu_gradcheck(self, rng):
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        F.gelu(x).sum().backward()
        numeric = finite_difference(lambda: F.gelu(Tensor(x.data)).sum(), x, (1,))
        assert abs(numeric - x.grad[1]) < 1e-5


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.standard_normal((10, 10)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        np.testing.assert_allclose(out.data, x.data)

    def test_training_scales_survivors(self, rng):
        x = Tensor(np.ones((2000,)))
        out = F.dropout(x, 0.25, training=True, rng=np.random.default_rng(0))
        survivors = out.data[out.data > 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)
        # The expected value is preserved (within sampling noise).
        assert abs(out.data.mean() - 1.0) < 0.08

    def test_invalid_probability_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.0, training=True)

    def test_zero_probability_is_identity(self):
        x = Tensor([1.0, 2.0])
        assert F.dropout(x, 0.0, training=True) is x


class TestLayerNorm:
    def test_output_statistics(self, rng):
        x = Tensor(rng.standard_normal((4, 16)) * 5 + 3)
        out = F.layer_norm(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_parameters_applied(self, rng):
        x = Tensor(rng.standard_normal((2, 8)))
        weight = Tensor(2 * np.ones(8))
        bias = Tensor(np.ones(8))
        out = F.layer_norm(x, weight, bias).data
        base = F.layer_norm(x).data
        np.testing.assert_allclose(out, 2 * base + 1, atol=1e-10)

    def test_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        (F.layer_norm(x) ** 2).sum().backward()
        numeric = finite_difference(lambda: (F.layer_norm(Tensor(x.data)) ** 2).sum(), x, (0, 3))
        assert abs(numeric - x.grad[0, 3]) < 1e-4


class TestBatchNorm:
    def test_training_normalises_and_updates_running_stats(self, rng):
        x = Tensor(rng.standard_normal((64, 5)) * 3 + 2)
        running_mean = np.zeros(5)
        running_var = np.ones(5)
        out = F.batch_norm(x, running_mean, running_var, None, None, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-7)
        assert np.all(running_mean != 0.0)

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((8, 3)))
        running_mean = np.array([1.0, 2.0, 3.0])
        running_var = np.array([4.0, 4.0, 4.0])
        out = F.batch_norm(x, running_mean, running_var, None, None, training=False)
        np.testing.assert_allclose(out.data, (x.data - running_mean) / np.sqrt(4.0 + 1e-5))

    def test_eval_is_the_traced_fold_bitwise(self):
        rng = np.random.default_rng(41)
        bn = BatchNorm1d(4)
        bn.weight.data[:] = rng.standard_normal(4)
        bn.bias.data[:] = rng.standard_normal(4)
        bn.running_mean[:] = rng.standard_normal(4)
        bn.running_var[:] = rng.uniform(0.2, 2.0, size=4)
        folded = _folded_batchnorm(bn)
        x = rng.standard_normal((3, 4, 9))
        out = F.batch_norm(
            Tensor(x), bn.running_mean, bn.running_var, bn.weight, bn.bias, training=False
        )
        expected = x * folded["scale"].reshape(1, -1, 1) + folded["shift"].reshape(1, -1, 1)
        np.testing.assert_array_equal(out.data, expected)

    @pytest.mark.parametrize("affine", ["none", "weight", "bias"])
    def test_eval_matches_textbook_formula(self, affine):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((5, 3, 6)))
        running_mean = rng.standard_normal(3)
        running_var = rng.uniform(0.2, 2.0, size=3)
        weight = Tensor(rng.standard_normal(3)) if affine == "weight" else None
        bias = Tensor(rng.standard_normal(3)) if affine == "bias" else None
        out = F.batch_norm(x, running_mean, running_var, weight, bias, training=False)
        expected = (x.data - running_mean[:, None]) / np.sqrt(running_var[:, None] + 1e-5)
        if weight is not None:
            expected = expected * weight.data[:, None]
        if bias is not None:
            expected = expected + bias.data[:, None]
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("wrt", ["x", "weight", "bias"])
    def test_eval_gradcheck(self, wrt):
        rng = np.random.default_rng(43)
        values = {
            "x": rng.standard_normal((3, 4, 5)),
            "weight": rng.standard_normal(4),
            "bias": rng.standard_normal(4),
        }
        running_mean = rng.standard_normal(4)
        running_var = rng.uniform(0.2, 2.0, size=4)

        def loss(tensor):
            args = {name: Tensor(value) for name, value in values.items()}
            args[wrt] = tensor
            out = F.batch_norm(
                args["x"], running_mean, running_var, args["weight"], args["bias"], training=False
            )
            return (out * out).sum()

        check_gradient(loss, values[wrt])

    def test_3d_input_normalised_per_channel(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 10)) + 5)
        out = F.batch_norm(x, np.zeros(3), np.ones(3), None, None, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-7)

    def test_rejects_4d_input(self):
        with pytest.raises(ValueError):
            F.batch_norm(Tensor(np.zeros((1, 2, 3, 4))), np.zeros(2), np.ones(2), None, None, True)


class TestConv1d:
    def test_matches_manual_convolution(self):
        x = Tensor(np.arange(10.0).reshape(1, 1, 10))
        weight = Tensor(np.array([[[1.0, 0.0, -1.0]]]))
        out = F.conv1d(x, weight)
        # Cross-correlation with [1, 0, -1]: x[i] - x[i+2] = -2 everywhere.
        np.testing.assert_allclose(out.data, np.full((1, 1, 8), -2.0))

    def test_stride_and_padding_output_length(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 20)))
        weight = Tensor(rng.standard_normal((4, 3, 5)))
        assert F.conv1d(x, weight, stride=5).shape == (2, 4, 4)
        assert F.conv1d(x, weight, padding=2).shape == (2, 4, 20)

    def test_dilation_output_length(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 30)))
        weight = Tensor(rng.standard_normal((2, 2, 3)))
        assert F.conv1d(x, weight, dilation=4).shape == (1, 2, 22)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 3, 10))), Tensor(np.zeros((2, 4, 3))))

    def test_too_short_input_raises(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 5))))

    def test_non_overlapping_patches_equal_linear_projection(self, rng):
        """kernel == stride: each output position is a linear map of one patch."""
        x_values = rng.standard_normal((2, 3, 12))
        weight_values = rng.standard_normal((5, 3, 4))
        out = F.conv1d(Tensor(x_values), Tensor(weight_values), stride=4).data
        patches = x_values.reshape(2, 3, 3, 4)
        expected = np.einsum("bcnk,ock->bon", patches, weight_values)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("stride,padding,dilation", [(1, 0, 1), (2, 2, 1), (1, 3, 3), (3, 1, 2)])
    def test_gradcheck_all_inputs(self, rng, stride, padding, dilation):
        x = Tensor(rng.standard_normal((2, 3, 16)), requires_grad=True)
        weight = Tensor(rng.standard_normal((4, 3, 3)) * 0.3, requires_grad=True)
        bias = Tensor(rng.standard_normal(4) * 0.3, requires_grad=True)

        def run():
            return (
                F.conv1d(Tensor(x.data), Tensor(weight.data), Tensor(bias.data),
                         stride=stride, padding=padding, dilation=dilation) ** 2
            ).sum()

        (F.conv1d(x, weight, bias, stride=stride, padding=padding, dilation=dilation) ** 2).sum().backward()
        for tensor, index in ((x, (1, 2, 5)), (weight, (2, 1, 1)), (bias, (1,))):
            numeric = finite_difference(run, tensor, index)
            assert abs(numeric - tensor.grad[index]) < 1e-4


class TestPooling:
    def test_avg_pool_values(self):
        x = Tensor(np.arange(8.0).reshape(1, 1, 8))
        out = F.avg_pool1d(x, kernel_size=2)
        np.testing.assert_allclose(out.data, [[[0.5, 2.5, 4.5, 6.5]]])

    def test_max_pool_values(self):
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 5.0]]]))
        out = F.max_pool1d(x, kernel_size=2)
        np.testing.assert_allclose(out.data, [[[3.0, 5.0]]])

    def test_pool_backward_shapes(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 12)), requires_grad=True)
        F.avg_pool1d(x, 3).sum().backward()
        assert x.grad.shape == x.shape


class TestLosses:
    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(encoded, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_cross_entropy_known_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1]])))
        loss = F.cross_entropy(logits, np.array([0]))
        assert float(loss.data) == pytest.approx(-np.log(0.7), rel=1e-6)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 8)))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=int))
        assert float(loss.data) == pytest.approx(np.log(8), rel=1e-6)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        targets = np.array([1, 0, 4])
        F.cross_entropy(logits, targets).backward()
        probabilities = F.softmax(Tensor(logits.data)).data
        expected = (probabilities - F.one_hot(targets, 5)) / 3
        np.testing.assert_allclose(logits.grad, expected, atol=1e-8)

    def test_label_smoothing_reduces_confidence_penalty(self, rng):
        logits = Tensor(rng.standard_normal((4, 6)) * 3)
        targets = np.array([0, 1, 2, 3])
        plain = float(F.cross_entropy(logits, targets).data)
        smoothed = float(F.cross_entropy(logits, targets, label_smoothing=0.1).data)
        assert smoothed != plain

    def test_nll_loss_consistent_with_cross_entropy(self, rng):
        logits = Tensor(rng.standard_normal((5, 4)))
        targets = np.array([0, 1, 2, 3, 0])
        ce = float(F.cross_entropy(logits, targets).data)
        nll = float(F.nll_loss(F.log_softmax(logits), targets).data)
        assert ce == pytest.approx(nll, rel=1e-10)

    def test_mse_loss(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert float(loss.data) == pytest.approx(2.5)

    def test_linear_matches_manual(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        weight = Tensor(rng.standard_normal((2, 4)))
        bias = Tensor(rng.standard_normal(2))
        np.testing.assert_allclose(
            F.linear(x, weight, bias).data, x.data @ weight.data.T + bias.data, atol=1e-12
        )
