"""Unit tests for the autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest

from repro.nn import Tensor, concat, ones, stack, tensor, zeros
from repro.nn import functional as F


def numerical_gradient(fn, value, epsilon=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        upper = fn(value.copy())
        flat[i] = original - epsilon
        lower = fn(value.copy())
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * epsilon)
    return grad


class TestBasics:
    def test_tensor_wraps_data_as_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_item_returns_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_zeros_ones_tensor_constructors(self):
        assert np.allclose(zeros(2, 3).data, 0.0)
        assert np.allclose(ones(4).data, 1.0)
        assert tensor([1.0]).shape == (1,)

    def test_len_and_repr(self):
        t = Tensor([[1.0, 2.0]], requires_grad=True)
        assert len(t) == 1
        assert "requires_grad" in repr(t)


class TestArithmeticGradients:
    def test_add_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3.0, 4.0])
        assert np.allclose(b.grad, [1.0, 2.0])

    def test_sub_and_neg_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (-(a - 3.0)).sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_div_gradient(self):
        a = Tensor([2.0, 4.0], requires_grad=True)
        (a / 2.0).sum().backward()
        assert np.allclose(a.grad, [0.5, 0.5])

    def test_pow_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a ** 2).sum().backward()
        assert np.allclose(a.grad, [4.0, 6.0])

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        assert np.allclose((1.0 - a).data, [-1.0])
        assert np.allclose((4.0 / a).data, [2.0])

    def test_broadcast_add_unbroadcasts_gradient(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 2)
        assert b.grad.shape == (2,)
        assert np.allclose(b.grad, [3.0, 3.0])

    def test_gradient_accumulates_over_multiple_uses(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2 + a * 3).sum().backward()
        assert np.allclose(a.grad, [5.0])


class TestMatmulAndShape:
    def test_matmul_2d_gradient(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3, 4)
        assert np.allclose(a.grad, np.ones((2, 4)) @ b.data.T)

    def test_matmul_vector_matrix(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        m = Tensor(np.ones((2, 3)), requires_grad=True)
        (a @ m).sum().backward()
        assert np.allclose(a.grad, [3.0, 3.0])

    def test_matmul_matrix_vector(self):
        m = Tensor(np.ones((2, 3)), requires_grad=True)
        v = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (m @ v).sum().backward()
        assert np.allclose(v.grad, [2.0, 2.0, 2.0])

    def test_batched_matmul(self):
        a = Tensor(np.ones((4, 2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 5)), requires_grad=True)
        out = a @ w
        assert out.shape == (4, 2, 5)
        out.sum().backward()
        assert w.grad.shape == (3, 5)
        assert np.allclose(w.grad, 8.0)

    def test_transpose_and_reshape(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        a.T.sum().backward()
        assert np.allclose(a.grad, 1.0)
        a.zero_grad()
        a.reshape(3, 2).sum().backward()
        assert a.grad.shape == (2, 3)


class TestReductionsIndexing:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_mean_gradient(self):
        a = Tensor([2.0, 4.0, 6.0], requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, [1 / 3] * 3)

    def test_getitem_gradient(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        a[1].backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_index_select_scatter_add(self):
        a = Tensor(np.eye(3), requires_grad=True)
        a.index_select(np.array([0, 0, 2])).sum().backward()
        assert np.allclose(a.grad[0], 2.0)
        assert np.allclose(a.grad[1], 0.0)
        assert np.allclose(a.grad[2], 1.0)

    def test_index_select_2d_indices(self):
        a = Tensor(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
        out = a.index_select(np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 2)


class TestActivationsNumerically:
    @pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu", "exp"])
    def test_gradients_match_numerical(self, name):
        value = np.array([0.3, -0.7, 1.2])
        t = Tensor(value, requires_grad=True)
        getattr(t, name)().sum().backward()
        numeric = numerical_gradient(
            lambda x: getattr(Tensor(x), name)().sum().item(), value)
        assert np.allclose(t.grad, numeric, atol=1e-5)

    def test_log_gradient(self):
        value = np.array([0.5, 2.0])
        t = Tensor(value, requires_grad=True)
        t.log().sum().backward()
        assert np.allclose(t.grad, 1.0 / value)

    def test_leaky_relu_negative_slope(self):
        t = Tensor([-1.0, 2.0], requires_grad=True)
        t.leaky_relu(0.1).sum().backward()
        assert np.allclose(t.grad, [0.1, 1.0])

    def test_clip_gradient_masks_out_of_range(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])


class TestConcatStack:
    def test_concat_routes_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = concat([a, b], axis=0)
        assert out.shape == (3,)
        (out * Tensor([1.0, 2.0, 3.0])).sum().backward()
        assert np.allclose(a.grad, [1.0, 2.0])
        assert np.allclose(b.grad, [3.0])

    def test_concat_last_axis_3d(self):
        a = Tensor(np.ones((2, 2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2, 1)), requires_grad=True)
        out = concat([a, b], axis=-1)
        assert out.shape == (2, 2, 4)
        out.sum().backward()
        assert np.allclose(b.grad, 1.0)

    def test_stack_creates_new_axis(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)


class TestFunctional:
    def test_softmax_sums_to_one(self):
        probs = F.softmax(Tensor([1.0, 2.0, 3.0]))
        assert probs.data.sum() == pytest.approx(1.0)
        assert probs.data.argmax() == 2

    def test_log_softmax_matches_softmax(self):
        logits = Tensor([0.5, -1.0, 2.0])
        assert np.allclose(np.exp(F.log_softmax(logits).data), F.softmax(logits).data)

    def test_softmax_gradient_numerical(self):
        value = np.array([0.1, 0.9, -0.4])
        t = Tensor(value, requires_grad=True)
        (F.softmax(t) * Tensor([1.0, 2.0, 3.0])).sum().backward()
        numeric = numerical_gradient(
            lambda x: (F.softmax(Tensor(x)) * Tensor([1.0, 2.0, 3.0])).sum().item(), value)
        assert np.allclose(t.grad, numeric, atol=1e-5)

    def test_cosine_similarity_bounds(self):
        assert F.cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
        assert F.cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
        assert F.cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)
        assert F.cosine_similarity([0, 0], [1, 0]) == pytest.approx(0.0)

    def test_kl_divergence_zero_for_identical(self):
        assert F.kl_divergence([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)
        assert F.kl_divergence([0.9, 0.1], [0.5, 0.5]) > 0
