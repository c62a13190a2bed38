"""Backward-pass correctness: analytic vs numerical gradients, every one
backpropagated by :class:`GradTape`, the engine that trains."""

import numpy as np
import pytest

from repro.nn.tensor import GradTape, Tensor, concatenate, is_grad_enabled, no_grad, stack


def numerical_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        index = it.multi_index
        original = x[index]
        x[index] = original + eps
        high = f()
        x[index] = original - eps
        low = f()
        x[index] = original
        grad[index] = (high - low) / (2 * eps)
    return grad


def backprop(forward, grad=None) -> Tensor:
    """Record ``forward()`` on a fresh :class:`GradTape` and backpropagate
    from its output (seeded with ``grad``)."""
    with GradTape() as tape:
        out = forward()
    tape.backward(out, grad)
    return out


def check_gradient(build, x: np.ndarray, atol: float = 2e-2):
    """Compare the tape gradient of ``build(Tensor)`` against finite differences."""
    t = Tensor(x, requires_grad=True)
    backprop(lambda: build(t))
    expected = numerical_grad(lambda: build(Tensor(x)).item(), x)
    np.testing.assert_allclose(t.grad, expected, atol=atol)


class TestElementwiseGradients:
    def test_add_mul(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        check_gradient(lambda t: ((t + 2.0) * t).sum(), x)

    def test_div(self):
        x = np.random.default_rng(1).standard_normal((3, 3)) + 3.0
        check_gradient(lambda t: (1.0 / t).sum(), x)

    def test_pow(self):
        x = np.abs(np.random.default_rng(2).standard_normal((4,))) + 0.5
        check_gradient(lambda t: (t**3).sum(), x)

    def test_exp_log(self):
        x = np.abs(np.random.default_rng(3).standard_normal((4,))) + 0.5
        check_gradient(lambda t: (t.log() + t.exp()).sum(), x)

    def test_sigmoid_tanh(self):
        x = np.random.default_rng(4).standard_normal((5,))
        check_gradient(lambda t: (t.sigmoid() * t.tanh()).sum(), x)

    def test_relu_subgradient(self):
        x = np.array([-1.0, 2.0, 3.0])
        t = Tensor(x, requires_grad=True)
        backprop(lambda: t.relu().sum())
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0])

    def test_abs_and_clip(self):
        x = np.array([-2.0, -0.5, 0.5, 2.0])
        t = Tensor(x, requires_grad=True)
        backprop(lambda: (t.abs() + t.clip(-1.0, 1.0)).sum())
        np.testing.assert_allclose(t.grad, [-1.0, 0.0, 2.0, 1.0])


class TestBroadcastGradients:
    def test_add_broadcast_sums_over_expanded_axes(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        backprop(lambda: (a + b).sum())
        assert a.grad.shape == (2, 3)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_broadcast_keepdim_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 1), 2.0), requires_grad=True)
        backprop(lambda: (a * b).sum())
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 1), 3.0))

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(3.0, requires_grad=True)
        backprop(lambda: (a * s).sum())
        assert s.grad.shape == ()
        assert s.grad == pytest.approx(4.0)


class TestMatmulGradients:
    def test_matmul(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        backprop(lambda: (ta @ tb).sum())
        np.testing.assert_allclose(ta.grad, np.ones((3, 2)) @ b.T, atol=1e-5)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 2)), atol=1e-5)


class TestReductionGradients:
    def test_sum_axis(self):
        x = np.random.default_rng(6).standard_normal((3, 4))
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), x)

    def test_mean_axis_keepdims(self):
        x = np.random.default_rng(7).standard_normal((2, 5))
        check_gradient(lambda t: (t.mean(axis=1, keepdims=True) * t).sum(), x)

    def test_max_routes_to_argmax(self):
        x = np.array([[1.0, 5.0, 2.0]])
        t = Tensor(x, requires_grad=True)
        backprop(lambda: t.max(axis=1).sum())
        np.testing.assert_allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_max_splits_ties(self):
        x = np.array([[3.0, 3.0]])
        t = Tensor(x, requires_grad=True)
        backprop(lambda: t.max(axis=1).sum())
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])

    def test_var(self):
        x = np.random.default_rng(8).standard_normal((6,))
        check_gradient(lambda t: t.var(), x)


class TestShapeGradients:
    def test_reshape_transpose(self):
        x = np.random.default_rng(9).standard_normal((2, 6))
        check_gradient(lambda t: (t.reshape(3, 4).transpose() ** 2).sum(), x)

    def test_getitem(self):
        x = np.random.default_rng(10).standard_normal((4, 4))
        check_gradient(lambda t: (t[1:3, :2] ** 2).sum(), x)

    def test_concatenate_routes_segments(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 2)), requires_grad=True)
        weights = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))
        backprop(lambda: (concatenate([a, b], axis=0) * weights).sum())
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_allclose(b.grad, [[4.0, 5.0]])

    def test_stack_gradients(self):
        parts = [Tensor(np.ones(3), requires_grad=True) for _ in range(2)]
        backprop(lambda: stack(parts, axis=0).sum())
        for part in parts:
            np.testing.assert_allclose(part.grad, np.ones(3))


class TestGraphMechanics:
    def test_gradient_accumulates_across_uses(self):
        t = Tensor([2.0], requires_grad=True)
        backprop(lambda: t * t, np.array([1.0]))
        np.testing.assert_allclose(t.grad, [4.0])

    def test_backward_twice_accumulates(self):
        t = Tensor([1.0], requires_grad=True)
        backprop(lambda: t * 3.0, np.array([1.0]))
        t_grad_first = t.grad.copy()
        backprop(lambda: t * 3.0, np.array([1.0]))
        np.testing.assert_allclose(t.grad, t_grad_first * 2)

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        backprop(lambda: t * 2.0, np.array([1.0]))
        t.zero_grad()
        assert t.grad is None

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError, match="grad tracking"):
            GradTape().backward(Tensor([1.0]))

    def test_backward_nonscalar_needs_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="non-scalar"):
            backprop(lambda: t * 2.0)

    def test_diamond_graph(self):
        t = Tensor([1.0], requires_grad=True)
        backprop(lambda: t * 2.0 + t * 3.0, np.array([1.0]))
        np.testing.assert_allclose(t.grad, [5.0])

    def test_deep_chain_does_not_recurse(self):
        t = Tensor([1.0], requires_grad=True)

        def chain():
            out = t
            for _ in range(3000):  # would overflow a recursive walk
                out = out + 0.0
            return out

        backprop(chain, np.array([1.0]))
        np.testing.assert_allclose(t.grad, [1.0])


class TestNoGrad:
    def test_no_grad_suppresses_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_requires_grad_ignored_under_no_grad(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad
