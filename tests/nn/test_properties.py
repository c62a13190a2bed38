"""Property-based tests of the autograd engine and serialization."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import functional as F
from repro.nn.serialization import flatten, schema_of
from repro.nn.tensor import Tensor

from .test_tensor_autograd import backprop

small_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=32)


def arrays(max_side: int = 4, min_dims: int = 1, max_dims: int = 3):
    return hnp.arrays(
        dtype=np.float32,
        shape=hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=max_side),
        elements=small_floats,
    )


class TestAlgebraicProperties:
    @given(arrays(), arrays())
    @settings(max_examples=40, deadline=None)
    def test_addition_commutes(self, a, b):
        if a.shape != b.shape:
            return
        left = (Tensor(a) + Tensor(b)).numpy()
        right = (Tensor(b) + Tensor(a)).numpy()
        np.testing.assert_array_equal(left, right)

    @given(arrays())
    @settings(max_examples=40, deadline=None)
    def test_double_negation(self, a):
        np.testing.assert_array_equal((-(-Tensor(a))).numpy(), a)

    @given(arrays())
    @settings(max_examples=40, deadline=None)
    def test_relu_idempotent(self, a):
        once = Tensor(a).relu().numpy()
        twice = Tensor(a).relu().relu().numpy()
        np.testing.assert_array_equal(once, twice)

    @given(arrays())
    @settings(max_examples=40, deadline=None)
    def test_sum_matches_numpy(self, a):
        assert Tensor(a).sum().item() == np.float32(a.sum(dtype=np.float64)).item() or np.isclose(
            Tensor(a).sum().item(), a.sum(dtype=np.float64), rtol=1e-3, atol=1e-3
        )


class TestGradientProperties:
    @given(arrays(max_side=3))
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_ones(self, a):
        t = Tensor(a, requires_grad=True)
        backprop(lambda: t.sum())
        np.testing.assert_array_equal(t.grad, np.ones_like(a))

    @given(arrays(max_side=3), st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=32))
    @settings(max_examples=30, deadline=None)
    def test_linear_gradient_is_coefficient(self, a, c):
        t = Tensor(a, requires_grad=True)
        backprop(lambda: (t * float(c)).sum())
        np.testing.assert_allclose(t.grad, np.full_like(a, np.float32(c)), rtol=1e-5)

    @given(arrays(max_side=3))
    @settings(max_examples=30, deadline=None)
    def test_gradient_shape_matches_input(self, a):
        t = Tensor(a, requires_grad=True)
        backprop(lambda: (t * t).sum())
        assert t.grad.shape == a.shape


class TestSoftmaxProperties:
    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6), elements=small_floats))
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_a_distribution(self, logits):
        probs = F.softmax(Tensor(logits)).numpy()
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-4)

    @given(
        hnp.arrays(np.float32, (3, 4), elements=small_floats),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_softmax_shift_invariant(self, logits, shift):
        base = F.softmax(Tensor(logits)).numpy()
        shifted = F.softmax(Tensor(logits + np.float32(shift))).numpy()
        np.testing.assert_allclose(base, shifted, atol=1e-5)


class TestSerializationProperties:
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdef.", min_size=1, max_size=8),
                hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
            ),
            min_size=1,
            max_size=5,
            unique_by=lambda kv: kv[0],
        ),
        st.randoms(),
    )
    @settings(max_examples=40, deadline=None)
    def test_flatten_views_roundtrip(self, schema, _):
        rng = np.random.default_rng(0)
        state = OrderedDict(
            (name, rng.standard_normal(shape).astype(np.float32)) for name, shape in schema
        )
        restored = schema_of(state).views(flatten(state))
        for name in state:
            np.testing.assert_array_equal(state[name], restored[name])
