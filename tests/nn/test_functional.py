"""Conv/pool/locally-connected/softmax/loss functional operations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import GradTape, Tensor

from .test_tensor_autograd import backprop, numerical_grad


class TestIm2Col:
    def test_shapes(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 6, 6)).astype(np.float32)
        cols = F.im2col(x, (3, 3), stride=1)
        assert cols.shape == (2, 27, 4, 4)

    def test_stride(self):
        x = np.random.default_rng(0).standard_normal((1, 1, 6, 6)).astype(np.float32)
        cols = F.im2col(x, (2, 2), stride=2)
        assert cols.shape == (1, 4, 3, 3)

    def test_content_matches_patches(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = F.im2col(x, (2, 2), stride=1)
        np.testing.assert_allclose(cols[0, :, 0, 0], [0, 1, 4, 5])
        np.testing.assert_allclose(cols[0, :, 2, 2], [10, 11, 14, 15])

    def test_col2im_adjoint_of_im2col(self):
        """col2im must be the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float64)
        y = rng.standard_normal((2, 27, 3, 3)).astype(np.float64)
        lhs = float((F.im2col(x, (3, 3)) * y).sum())
        rhs = float((x * F.col2im(y, x.shape, (3, 3))).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConv2d:
    def test_forward_matches_direct_convolution(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w)).numpy()
        # Direct loop reference.
        expected = np.zeros((1, 3, 3, 3), dtype=np.float32)
        for o in range(3):
            for i in range(3):
                for j in range(3):
                    expected[0, o, i, j] = (x[0, :, i : i + 3, j : j + 3] * w[o]).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_padding_preserves_size(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        assert F.conv2d(x, w, padding=1).shape == (2, 4, 8, 8)

    def test_padding_is_zero_filled(self):
        # A 1x1 identity kernel shows the padded input itself.
        out = F.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 1, 1))), padding=1)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 0] == 0.0
        assert out.data[0, 0, 1, 1] == 1.0

    def test_stride_two(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        w = Tensor(np.zeros((1, 1, 2, 2)))
        assert F.conv2d(x, w, stride=2).shape == (1, 1, 4, 4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv2d(x, w, b).numpy()
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3)) * 0.4
        b = rng.standard_normal(3) * 0.1

        def forward():
            return F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1).sum().item()

        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        backprop(lambda: F.conv2d(tx, tw, tb, stride=1, padding=1).sum())
        for tensor, array in ((tx, x), (tw, w), (tb, b)):
            np.testing.assert_allclose(tensor.grad, numerical_grad(forward, array), atol=2e-2)


class TestMaxPool2d:
    def test_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).numpy()
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="not divisible"):
            F.max_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_gradient_routes_to_max(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        backprop(lambda: F.max_pool2d(t, 2).sum())
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(t.grad[0, 0], expected)

    def test_gradient_splits_ties(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        backprop(lambda: F.max_pool2d(t, 2).sum())
        np.testing.assert_allclose(t.grad[0, 0], np.full((2, 2), 0.25))


class TestLocallyConnected2d:
    def test_untied_weights_differ_by_location(self):
        """Same input patch at two locations maps through different filters."""
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        w = np.zeros((1, 2, 2, 9), dtype=np.float32)
        w[0, 0, 0] = 1.0  # location (0, 0) sums its patch
        out = F.locally_connected2d(Tensor(x), Tensor(w)).numpy()
        assert out[0, 0, 0, 0] == pytest.approx(9.0)
        assert out[0, 0, 1, 1] == pytest.approx(0.0)

    def test_shape_validation(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        bad = Tensor(np.zeros((1, 3, 3, 9)))  # wrong output geometry for k=3
        with pytest.raises(ValueError, match="does not match"):
            F.locally_connected2d(x, bad)

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((2, 3, 3, 18)) * 0.3
        b = rng.standard_normal((2, 3, 3)) * 0.1

        def forward():
            return F.locally_connected2d(Tensor(x), Tensor(w), Tensor(b)).sum().item()

        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        backprop(lambda: F.locally_connected2d(tx, tw, tb).sum())
        for tensor, array in ((tx, x), (tw, w), (tb, b)):
            np.testing.assert_allclose(tensor.grad, numerical_grad(forward, array), atol=2e-2)


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(5).standard_normal((4, 7)))
        probs = F.softmax(logits).numpy()
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=1e-5)

    def test_softmax_stable_for_large_logits(self):
        probs = F.softmax(Tensor([[1000.0, 1000.0]])).numpy()
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(6).standard_normal((3, 5)))
        np.testing.assert_allclose(
            F.log_softmax(x).numpy(), np.log(F.softmax(x).numpy()), atol=1e-5
        )

    def test_cross_entropy_value(self):
        logits = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-3)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = np.random.default_rng(7).standard_normal((4, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 1])
        t = Tensor(logits, requires_grad=True)
        backprop(lambda: F.cross_entropy(t, labels))
        probs = F.softmax(Tensor(logits)).numpy()
        expected = (probs - F.one_hot(labels, 3)) / 4
        np.testing.assert_allclose(t.grad, expected, atol=1e-5)

    def test_one_hot(self):
        out = F.one_hot(np.array([1, 0]), 3)
        np.testing.assert_allclose(out, [[0, 1, 0], [1, 0, 0]])

    def test_mse_loss(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_nll_loss_picks_label_entries(self):
        log_probs = Tensor(np.log(np.array([[0.9, 0.1], [0.2, 0.8]], dtype=np.float32)))
        loss = F.nll_loss(log_probs, np.array([0, 1]))
        assert loss.item() == pytest.approx(-(np.log(0.9) + np.log(0.8)) / 2, rel=1e-4)


class TestDropout:
    def test_identity_when_not_training(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_identity_at_zero_rate(self):
        x = Tensor(np.ones((4,)))
        assert F.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_scales_surviving_units(self):
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, np.random.default_rng(0)).numpy()
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.4 < (out > 0).mean() < 0.6


def _kernel_case(kernel, lead, batch, padding, stride, rng):
    """``(fn, operands, labels)`` for one kernel with leading axes ``lead``:
    ``fn(*tensors, *labels)`` is the kernel output; only the loss has labels."""

    def draw(*shape):
        return rng.standard_normal(lead + shape).astype(np.float32)

    if kernel == "linear":
        return F.linear, [draw(batch, 5), draw(3, 5), draw(3)], []
    if kernel == "conv2d":
        return (
            lambda x, w, b: F.conv2d(x, w, b, stride=stride, padding=padding),
            [draw(batch, 2, 5, 5), draw(3, 2, 3, 3), draw(3)],
            [],
        )
    if kernel in ("max_pool2d", "avg_pool2d"):
        return (lambda x: getattr(F, kernel)(x, 2)), [draw(batch, 2, 4, 4)], []
    if kernel == "locally_connected2d":
        out = (6 - 3) // stride + 1
        return (
            lambda x, w, b: F.locally_connected2d(x, w, b, stride=stride),
            [draw(batch, 2, 6, 6), draw(3, out, out, 2 * 9), draw(3, out, out)],
            [],
        )
    return F.cross_entropy, [draw(batch, 4)], [rng.integers(0, 4, lead + (batch,))]


def _forward_backward(fn, arrays, labels, seed_for):
    """Output and every operand gradient, backpropagating ``seed_for(out)``."""
    operands = [Tensor(a, requires_grad=True) for a in arrays]
    with GradTape() as tape:
        out = fn(*operands, *labels)
    tape.backward(out, seed_for(out.shape))
    return out.data, [t.grad for t in operands]


@pytest.mark.cohort
class TestLeadingAxes:
    """Each kernel over leading client axes equals itself on every slice."""

    @given(
        kernel=st.sampled_from(
            ["linear", "conv2d", "max_pool2d", "avg_pool2d", "locally_connected2d", "cross_entropy"]
        ),
        lead=st.sampled_from([(), (1,), (3,)]),
        batch=st.integers(min_value=1, max_value=3),
        padding=st.sampled_from([0, 1]),
        stride=st.sampled_from([1, 2]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(kernel="locally_connected2d", lead=(3,), batch=1, padding=0, stride=2, seed=226)
    @settings(max_examples=120, deadline=None)
    def test_stacked_equals_each_slice(self, kernel, lead, batch, padding, stride, seed):
        rng = np.random.default_rng(seed)
        fn, arrays, labels = _kernel_case(kernel, lead, batch, padding, stride, rng)
        cotangent = {}

        def seed_for(shape):
            return cotangent.setdefault("g", rng.standard_normal(shape).astype(np.float32))

        out, grads = _forward_backward(fn, arrays, labels, seed_for)
        check = np.testing.assert_array_equal
        for index in np.ndindex(lead):
            out_i, grads_i = _forward_backward(
                fn,
                [a[index] for a in arrays],
                [y[index] for y in labels],
                lambda shape: cotangent["g"][index],
            )
            check(out[index], out_i)
            for grad, grad_i in zip(grads, grads_i):
                check(grad[index], grad_i)
