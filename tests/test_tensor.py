"""Tests of the autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Tensor, no_grad
from repro.nn.tensor import unbroadcast


def numeric_gradient(function, tensor, index, eps=1e-6):
    """Central finite-difference derivative of ``function`` w.r.t. one element."""
    original = tensor.data[index]
    tensor.data[index] = original + eps
    up = float(function().data)
    tensor.data[index] = original - eps
    down = float(function().data)
    tensor.data[index] = original
    return (up - down) / (2 * eps)


class TestBasicOps:
    def test_addition_forward_and_backward(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        out = (a + b).sum()
        out.backward()
        np.testing.assert_allclose(out.data, 21.0)
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_multiplication_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_division_backward(self):
        a = Tensor([2.0, 8.0], requires_grad=True)
        b = Tensor([4.0, 2.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.25, 0.5])
        np.testing.assert_allclose(b.grad, [-2.0 / 16.0, -8.0 / 4.0])

    def test_subtraction_and_negation(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a - b).backward()
        assert a.grad[0] == 1.0 and b.grad[0] == -1.0
        c = Tensor([2.0], requires_grad=True)
        (-c).backward()
        assert c.grad[0] == -1.0

    def test_power_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a**3).backward()
        np.testing.assert_allclose(a.grad, [27.0])

    def test_power_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_scalar_operand_promotion(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (2.0 * a + 1.0 - 0.5) / 2.0
        np.testing.assert_allclose(out.data, [1.25, 2.25])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_rsub_and_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        np.testing.assert_allclose((10.0 - a).data, [8.0])
        np.testing.assert_allclose((10.0 / a).data, [5.0])


class TestBroadcasting:
    def test_broadcast_add_gradient_is_summed(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_broadcast_mul_keepdims_axis(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.ones((2, 1)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [[3.0], [12.0]])

    def test_unbroadcast_matches_shape(self):
        gradient = np.ones((5, 3, 4))
        reduced = unbroadcast(gradient, (3, 1))
        assert reduced.shape == (3, 1)
        np.testing.assert_allclose(reduced, 20 * np.ones((3, 1)))

    @given(
        arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=4),
               elements=st.floats(-10, 10)),
    )
    @settings(max_examples=30, deadline=None)
    def test_unbroadcast_roundtrip_property(self, base):
        """Broadcasting then unbroadcasting a gradient preserves totals."""
        target_shape = (2,) + base.shape
        broadcast = np.broadcast_to(base, target_shape)
        reduced = unbroadcast(np.ascontiguousarray(broadcast), base.shape)
        np.testing.assert_allclose(reduced, 2 * base)


class TestMatmul:
    def test_matmul_2d_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        (a.matmul(b) ** 2).sum().backward()
        index = (1, 2)
        numeric = numeric_gradient(lambda: (Tensor(a.data).matmul(Tensor(b.data)) ** 2).sum(), a, index)
        assert abs(numeric - a.grad[index]) < 1e-5

    def test_matmul_batched_shapes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3, 5, 6)), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (2, 3, 4, 6)
        out.sum().backward()
        assert a.grad.shape == a.shape and b.grad.shape == b.shape

    def test_matmul_broadcast_batch_dim(self, rng):
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 5, 6)), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (3, 4, 6)
        out.sum().backward()
        assert a.grad.shape == (4, 5)


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))

    def test_mean_gradient_scaling(self):
        a = Tensor(np.ones((2, 5)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 5), 0.1))

    def test_mean_axis_tuple(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 1 / 8))

    def test_max_backward_routes_to_argmax(self):
        a = Tensor([[1.0, 5.0, 2.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_share_gradient(self):
        a = Tensor([[3.0, 3.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5]])

    def test_min_via_max(self):
        a = Tensor([[4.0, -1.0, 2.0]], requires_grad=True)
        out = a.min(axis=1)
        np.testing.assert_allclose(out.data, [-1.0])

    def test_var_matches_numpy(self, rng):
        values = rng.standard_normal((4, 7))
        a = Tensor(values)
        np.testing.assert_allclose(a.var(axis=1).data, values.var(axis=1), atol=1e-12)


class TestElementwise:
    @pytest.mark.parametrize("name", ["exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs"])
    def test_elementwise_gradcheck(self, name, rng):
        values = np.abs(rng.standard_normal(6)) + 0.5  # positive (log/sqrt safe)
        a = Tensor(values, requires_grad=True)
        out = getattr(a, name)().sum()
        out.backward()
        index = (2,)
        numeric = numeric_gradient(lambda: getattr(Tensor(a.data), name)().sum(), a, index)
        assert abs(numeric - a.grad[index]) < 1e-5

    def test_clip_gradient_zero_outside(self):
        a = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        a.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestShapeOps:
    def test_reshape_backward(self, rng):
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (2, 6)

    def test_transpose_roundtrip(self, rng):
        values = rng.standard_normal((2, 3, 4))
        a = Tensor(values, requires_grad=True)
        out = a.transpose((2, 0, 1))
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)

    def test_swapaxes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        assert a.swapaxes(1, 2).shape == (2, 4, 3)

    def test_getitem_backward_scatter(self):
        a = Tensor(np.arange(10.0), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(a.grad, expected)

    def test_pad_backward_slices_interior(self):
        a = Tensor(np.ones((1, 2, 3)), requires_grad=True)
        out = a.pad(((0, 0), (0, 0), (2, 2)))
        assert out.shape == (1, 2, 7)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((1, 2, 3)))

    def test_concatenate_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, 2 * np.ones((2, 3)))

    def test_stack(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.zeros(3))
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 3)

    def test_where_selects_and_routes_gradient(self):
        condition = np.array([True, False, True])
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        out = Tensor.where(condition, a, b)
        np.testing.assert_allclose(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_squeeze_expand_dims(self):
        a = Tensor(np.ones((2, 1, 3)), requires_grad=True)
        assert a.squeeze(1).shape == (2, 3)
        assert a.expand_dims(0).shape == (1, 2, 1, 3)


class TestBackwardMechanics:
    def test_backward_requires_scalar_or_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        a = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * a  # a used twice
        out.backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 3
        assert not out.requires_grad

    def test_no_grad_as_decorator(self):
        a = Tensor([1.0], requires_grad=True)

        @no_grad()
        def run():
            return a * 2

        assert not run().requires_grad

    def test_no_grad_is_thread_local(self):
        # A serving thread under no_grad must not disable
        # gradient recording for a concurrently training thread.
        import threading

        entered = threading.Event()
        release = threading.Event()

        def serving_thread():
            with no_grad():
                entered.set()
                release.wait(timeout=10.0)

        worker = threading.Thread(target=serving_thread)
        worker.start()
        try:
            assert entered.wait(timeout=10.0)
            a = Tensor([2.0], requires_grad=True)
            out = a * a
            assert out.requires_grad
            out.backward()
            np.testing.assert_allclose(a.grad, [4.0])
        finally:
            release.set()
            worker.join(timeout=10.0)

    def test_detach_and_copy(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        d = a.detach()
        assert not d.requires_grad
        assert d.data is a.data
        c = a.copy()
        c.data[0] = 99.0
        assert a.data[0] == 1.0

    def test_deep_graph_does_not_hit_recursion_limit(self):
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(2000):
            out = out + 0.001
        out.backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None


class TestConstructors:
    def test_zeros_ones_randn(self, rng):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones((4,)).data.sum() == 4
        r = Tensor.randn(5, rng=rng)
        assert r.shape == (5,)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_item_and_len(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((4, 2)))) == 4
