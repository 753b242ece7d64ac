"""Tests for the autograd Tensor: forward values and finite-difference gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, concatenate, stack

import op_graph


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = fn(x)
        x[idx] = orig - eps
        f_minus = fn(x)
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(op, shape=(3, 4), seed=0, atol=1e-5):
    """Compare autograd gradients against finite differences for ``op``."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    tensor = Tensor(data.copy(), requires_grad=True)
    out = op(tensor)
    out.sum().backward()
    numeric = numerical_grad(lambda arr: op(Tensor(arr)).sum().item(), data.copy())
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol)


class TestBasicOps:
    def test_add_values_and_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = (a + b).sum()
        out.backward()
        np.testing.assert_allclose(out.item(), 10.0)
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_broadcast_add_sums_grad_to_shape(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, [3.0] * 4)

    def test_div_and_pow(self):
        check_gradient(lambda t: (t * t + 1.0) / (t.abs() + 2.0))
        check_gradient(lambda t: (t ** 2) + (t ** 3) * 0.1)

    def test_matmul_grad(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 2))
        check_gradient(lambda t: t @ Tensor(w), shape=(3, 4))

    def test_batched_matmul_grad(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 4, 3))
        check_gradient(lambda t: t @ Tensor(w), shape=(2, 5, 4))

    def test_scalar_arithmetic_with_python_numbers(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (2.0 * a + 1.0 - 0.5) / 2.0
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])


class TestUnaryOps:
    @pytest.mark.parametrize("op", [
        lambda t: t.exp(),
        lambda t: t.tanh(),
        lambda t: t.sigmoid(),
        lambda t: t.relu(),
        lambda t: t.abs(),
        lambda t: (t * t + 1.0).log(),
        lambda t: (t * t + 0.5).sqrt(),
    ])
    def test_gradients(self, op):
        check_gradient(op)

    def test_clip_grad_zero_outside_range(self):
        t = Tensor([-2.0, 0.0, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    @pytest.mark.parametrize("op", [
        lambda t: t.sum(),
        lambda t: t.sum(axis=0),
        lambda t: t.sum(axis=1, keepdims=True),
        lambda t: t.mean(),
        lambda t: t.mean(axis=1),
        lambda t: t.max(axis=1),
        lambda t: t.var(axis=0),
    ])
    def test_gradients(self, op):
        check_gradient(op)

    def test_max_value(self):
        t = Tensor([[1.0, 5.0, 3.0], [2.0, 2.0, 9.0]])
        np.testing.assert_allclose(t.max(axis=1).numpy(), [5.0, 9.0])


class TestShapeOps:
    def test_reshape_transpose_grad(self):
        check_gradient(lambda t: t.reshape(4, 3).transpose(1, 0) @ Tensor(np.ones((4, 2))))

    def test_getitem_grad(self):
        check_gradient(lambda t: t[:, 1:3] * 2.0)

    def test_take_rows(self):
        weight = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        out = weight.take_rows(np.array([[0, 1], [1, 3]]))
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        # Row 1 is used twice, rows 0 and 3 once, row 2 never.
        np.testing.assert_allclose(weight.grad[:, 0], [1.0, 2.0, 0.0, 1.0])

    # pad1d and unfold live on in the op-graph references of the fused layers.
    def test_pad_and_unfold_shapes(self):
        t = Tensor(np.arange(12, dtype=float).reshape(1, 6, 2))
        padded = op_graph.pad1d(t, 1, 1, axis=1)
        assert padded.shape == (1, 8, 2)
        windows = op_graph.unfold(padded, 3, step=1, axis=1)
        assert windows.shape == (1, 6, 3, 2)

    def test_unfold_grad(self):
        check_gradient(lambda t: op_graph.unfold(t, 3, step=1, axis=1).mean(axis=2),
                       shape=(2, 6, 3))

    def test_concatenate_and_stack_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        a.zero_grad()
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))


class TestCompositeOps:
    def test_softmax_sums_to_one(self):
        t = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        np.testing.assert_allclose(t.softmax(axis=-1).numpy().sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_grad(self):
        check_gradient(lambda t: t.softmax(axis=-1) * Tensor(np.arange(4.0)), shape=(3, 4))

    def test_log_softmax_matches_log_of_softmax(self):
        t = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_allclose(t.log_softmax().numpy(), np.log(t.softmax().numpy()), atol=1e-10)

    def test_masked_fill(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        mask = np.array([[True, False, False], [False, False, True]])
        out = t.masked_fill(mask, -5.0)
        np.testing.assert_allclose(out.numpy()[0], [-5.0, 1.0, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, (~mask).astype(float))


class TestGraphControl:
    def test_detach_cuts_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = (t.detach() * 3.0).sum()
        out.backward()
        assert t.grad is None

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_repr_and_len(self):
        t = Tensor(np.zeros((3, 2)))
        assert "shape=(3, 2)" in repr(t)
        assert len(t) == 3


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=8),
           st.lists(st.floats(-5, 5), min_size=1, max_size=8))
    def test_add_commutes(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = Tensor(xs[:n]), Tensor(ys[:n])
        np.testing.assert_allclose((a + b).numpy(), (b + a).numpy())

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=10))
    def test_softmax_is_a_distribution(self, xs):
        probs = Tensor(xs).softmax(axis=-1).numpy()
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5))
    def test_sum_grad_is_ones(self, rows, cols):
        t = Tensor(np.random.default_rng(0).normal(size=(rows, cols)), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((rows, cols)))
