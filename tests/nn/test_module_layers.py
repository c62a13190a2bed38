"""Module containers, concrete layers, and state-dict round-trips."""

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    LocallyConnected2d,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.tensor import Tensor
from repro.utils.rng import rng_from_seed

from .test_tensor_autograd import backprop


class TestModuleRegistration:
    def test_parameters_discovered_in_order(self):
        model = Sequential(Linear(4, 3, rng=rng_from_seed(0)), ReLU(), Linear(3, 2, rng=rng_from_seed(1)))
        names = [name for name, _ in model.named_parameters()]
        assert names == ["layer0.weight", "layer0.bias", "layer2.weight", "layer2.bias"]

    def test_nested_modules(self):
        class Wrapper(Module):
            def __init__(self):
                super().__init__()
                self.inner = Linear(2, 2, rng=rng_from_seed(0))

            def forward(self, x):
                return self.inner(x)

        model = Wrapper()
        assert [name for name, _ in model.named_parameters()] == ["inner.weight", "inner.bias"]
        assert len(list(model.named_modules())) == 2

    def test_num_parameters(self):
        model = Linear(4, 3, rng=rng_from_seed(0))
        assert model.num_parameters() == 4 * 3 + 3

    def test_train_eval_recursive(self):
        model = Sequential(Dropout(0.5), Sequential(Dropout(0.3)))
        model.eval()
        assert all(not layer.training for _, layer in model.named_modules())
        model.train()
        assert all(layer.training for _, layer in model.named_modules())

    def test_zero_grad(self):
        model = Linear(2, 2, rng=rng_from_seed(0))
        backprop(lambda: model(Tensor(np.ones((1, 2)))).sum())
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_forward_abstract(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestStateDict:
    def test_round_trip(self):
        a = Linear(3, 2, rng=rng_from_seed(0))
        b = Linear(3, 2, rng=rng_from_seed(1))
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_is_a_copy(self):
        model = Linear(2, 2, rng=rng_from_seed(0))
        state = model.state_dict()
        state["weight"][:] = 0.0
        assert not np.allclose(model.weight.data, 0.0)

    def test_load_rejects_missing_keys(self):
        model = Linear(2, 2, rng=rng_from_seed(0))
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict({"weight": np.zeros((2, 2))})

    def test_load_rejects_unexpected_keys(self):
        model = Linear(2, 2, rng=rng_from_seed(0))
        state = model.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_load_rejects_shape_mismatch(self):
        model = Linear(2, 2, rng=rng_from_seed(0))
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)


class TestSequential:
    def test_applies_in_order(self):
        model = Sequential(ReLU(), Tanh())
        out = model(Tensor([-2.0, 2.0]))
        np.testing.assert_allclose(out.numpy(), np.tanh([0.0, 2.0]), rtol=1e-6)

    def test_iteration_len_getitem(self):
        layers = [ReLU(), Sigmoid(), Flatten()]
        model = Sequential(*layers)
        assert len(model) == 3
        assert model[1] is layers[1]
        assert list(model) == layers


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(5, 3, rng=rng_from_seed(0))
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_linear_without_bias(self):
        layer = Linear(5, 3, bias=False, rng=rng_from_seed(0))
        assert layer.bias is None
        assert len(list(layer.named_parameters())) == 1

    def test_conv2d_output_shape_helper(self):
        layer = Conv2d(3, 8, kernel_size=3, padding=1, rng=rng_from_seed(0))
        assert layer.output_shape(8, 8) == (8, 8)
        strided = Conv2d(3, 8, kernel_size=3, stride=2, rng=rng_from_seed(0))
        assert strided.output_shape(9, 9) == (4, 4)

    def test_conv2d_forward_shape(self):
        layer = Conv2d(3, 4, kernel_size=3, padding=1, rng=rng_from_seed(0))
        assert layer(Tensor(np.zeros((2, 3, 6, 6)))).shape == (2, 4, 6, 6)

    def test_locally_connected_shapes(self):
        layer = LocallyConnected2d(2, 3, (6, 6), kernel_size=3, rng=rng_from_seed(0))
        assert layer.out_size == (4, 4)
        assert layer(Tensor(np.zeros((2, 2, 6, 6)))).shape == (2, 3, 4, 4)
        assert layer.weight.shape == (3, 4, 4, 2 * 9)

    def test_maxpool_flatten(self):
        model = Sequential(MaxPool2d(2), Flatten())
        out = model(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 3 * 2 * 2)

    def test_flatten_start_dim_keeps_leading_axes(self):
        x = Tensor(np.arange(120, dtype=np.float32).reshape(2, 3, 4, 5))
        stacked = Flatten(start_dim=2)(x)
        assert stacked.shape == (2, 3, 20)
        np.testing.assert_array_equal(stacked.data[1], Flatten()(Tensor(x.data[1])).data)

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(rate=1.0)

    def test_dropout_eval_is_identity(self):
        layer = Dropout(0.9, rng=rng_from_seed(0))
        layer.eval()
        x = Tensor(np.ones((5, 5)))
        np.testing.assert_array_equal(layer(x).numpy(), x.numpy())

    def test_reprs_are_informative(self):
        assert "Linear(in=2, out=3)" == repr(Linear(2, 3, rng=rng_from_seed(0)))
        assert "k=3" in repr(Conv2d(1, 1, 3, rng=rng_from_seed(0)))
        assert "Dropout(rate=0.5)" == repr(Dropout(0.5))
        assert "MaxPool2d(k=2)" == repr(MaxPool2d(2))
        assert "out_size=(4, 4)" in repr(LocallyConnected2d(1, 1, (6, 6), 3, rng=rng_from_seed(0)))


class TestParameter:
    def test_requires_grad_by_default(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad

    def test_is_tensor(self):
        assert isinstance(Parameter(np.zeros(1)), Tensor)
