"""Forward-pass semantics of the tensor operations."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, as_tensor, concatenate, stack


class TestConstruction:
    def test_wraps_lists_as_float32(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float32
        assert t.shape == (2, 2)

    def test_wraps_existing_tensor_without_nesting(self):
        inner = Tensor([1.0, 2.0])
        outer = Tensor(inner)
        assert isinstance(outer.data, np.ndarray)
        np.testing.assert_array_equal(outer.data, inner.data)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_coerces_scalar(self):
        t = as_tensor(3.5)
        assert t.item() == pytest.approx(3.5)

    def test_repr_mentions_shape_and_grad(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert "shape=(2, 3)" in repr(t)
        assert "requires_grad=True" in repr(t)

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestArithmetic:
    def test_add_broadcasts(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3))
        out = a + b
        np.testing.assert_allclose(out.data, np.ones((2, 3)) + np.arange(3))

    def test_radd_with_scalar(self):
        out = 2.0 + Tensor([1.0, 2.0])
        np.testing.assert_allclose(out.data, [3.0, 4.0])

    def test_sub_and_rsub(self):
        t = Tensor([1.0, 2.0])
        np.testing.assert_allclose((t - 1.0).data, [0.0, 1.0])
        np.testing.assert_allclose((5.0 - t).data, [4.0, 3.0])

    def test_mul_div(self):
        t = Tensor([2.0, 4.0])
        np.testing.assert_allclose((t * 3.0).data, [6.0, 12.0])
        np.testing.assert_allclose((t / 2.0).data, [1.0, 2.0])
        np.testing.assert_allclose((8.0 / t).data, [4.0, 2.0])

    def test_pow_scalar_only(self):
        t = Tensor([2.0, 3.0])
        np.testing.assert_allclose((t**2).data, [4.0, 9.0])
        with pytest.raises(TypeError):
            t ** np.array([1.0, 2.0])

    def test_matmul_2d(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        b = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b)

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])


class TestElementwise:
    def test_exp_log_roundtrip(self):
        t = Tensor([0.5, 1.0, 2.0])
        np.testing.assert_allclose(t.exp().log().data, t.data, rtol=1e-6)

    def test_relu_zeroes_negatives(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_range(self):
        out = Tensor(np.linspace(-10, 10, 21)).sigmoid()
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 9).astype(np.float32)
        np.testing.assert_allclose(Tensor(x).tanh().data, np.tanh(x), rtol=1e-6)

    def test_clip(self):
        out = Tensor([-2.0, 0.5, 3.0]).clip(-1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.5, 1.0])

    def test_abs_and_sqrt(self):
        np.testing.assert_allclose(Tensor([-3.0, 4.0]).abs().data, [3.0, 4.0])
        np.testing.assert_allclose(Tensor([4.0, 9.0]).sqrt().data, [2.0, 3.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert t.sum().item() == pytest.approx(15.0)
        np.testing.assert_allclose(t.sum(axis=0).data, [3.0, 5.0, 7.0])
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert t.mean().item() == pytest.approx(2.5)
        np.testing.assert_allclose(t.mean(axis=1).data, [1.0, 4.0])

    def test_max(self):
        t = Tensor([[1.0, 5.0], [3.0, 2.0]])
        assert t.max().item() == pytest.approx(5.0)
        np.testing.assert_allclose(t.max(axis=0).data, [3.0, 5.0])

    def test_var(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        assert Tensor(x).var().item() == pytest.approx(x.var(), rel=1e-5)


class TestShapes:
    def test_reshape(self):
        t = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        assert t.reshape(6, 4).shape == (6, 4)
        assert t.reshape((4, 6)).shape == (4, 6)
        assert t.reshape(2, -1).shape == (2, 12)

    def test_transpose_default_and_axes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose().shape == (4, 3, 2)
        assert t.transpose(1, 0, 2).shape == (3, 2, 4)
        assert t.T.shape == (4, 3, 2)

    def test_getitem_slice_and_fancy(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        np.testing.assert_allclose(t[1].data, [4.0, 5.0, 6.0, 7.0])
        np.testing.assert_allclose(t[np.array([0, 2]), np.array([1, 3])].data, [1.0, 11.0])


class TestCombinators:
    def test_concatenate(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((3, 2)))
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)

    def test_stack(self):
        parts = [Tensor(np.full((2,), float(i))) for i in range(3)]
        out = stack(parts, axis=0)
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out.data[2], [2.0, 2.0])

    def test_detach_and_copy(self):
        t = Tensor([1.0], requires_grad=True)
        assert not t.detach().requires_grad
        c = t.copy()
        c.data[0] = 9.0
        assert t.data[0] == 1.0
