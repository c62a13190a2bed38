"""Gradient utilities, average pooling, and file checkpointing."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    Linear,
    Sequential,
    clip_grad_norm_,
    freeze,
    global_grad_norm,
    load_state,
    save_state,
    unfreeze,
)
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils.rng import rng_from_seed

from .test_tensor_autograd import backprop, numerical_grad


class TestGlobalGradNorm:
    def _model_with_grads(self):
        model = Linear(3, 2, rng=rng_from_seed(0))
        backprop(lambda: model(Tensor(np.ones((4, 3)))).sum())
        return model

    def test_norm_positive_after_backward(self):
        model = self._model_with_grads()
        assert global_grad_norm(model.parameters()) > 0

    def test_missing_grads_count_zero(self):
        model = Linear(3, 2, rng=rng_from_seed(0))
        assert global_grad_norm(model.parameters()) == 0.0

    def test_matches_manual_computation(self):
        model = self._model_with_grads()
        manual = np.sqrt(
            sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in model.parameters())
        )
        assert global_grad_norm(model.parameters()) == pytest.approx(manual)


class TestClipGradNorm:
    def test_clips_to_bound(self):
        model = Linear(3, 2, rng=rng_from_seed(0))
        backprop(lambda: (model(Tensor(np.ones((4, 3)))) * 100.0).sum())
        before = clip_grad_norm_(model.parameters(), max_norm=1.0)
        assert before > 1.0
        assert global_grad_norm(model.parameters()) == pytest.approx(1.0, rel=1e-4)

    def test_noop_below_bound(self):
        model = Linear(3, 2, rng=rng_from_seed(0))
        backprop(lambda: (model(Tensor(np.ones((1, 3)))) * 1e-4).sum())
        grads = [p.grad.copy() for p in model.parameters()]
        clip_grad_norm_(model.parameters(), max_norm=100.0)
        for param, grad in zip(model.parameters(), grads):
            np.testing.assert_array_equal(param.grad, grad)

    def test_rejects_bad_bound(self):
        model = Linear(2, 2, rng=rng_from_seed(0))
        with pytest.raises(ValueError):
            clip_grad_norm_(model.parameters(), max_norm=0.0)


class TestFreeze:
    def test_freeze_stops_gradient_tracking(self):
        model = Linear(3, 2, rng=rng_from_seed(0))
        freeze(model.parameters())
        out = model(Tensor(np.ones((1, 3))))
        assert not out.requires_grad
        unfreeze(model.parameters())
        out = model(Tensor(np.ones((1, 3))))
        assert out.requires_grad


class TestAvgPool2d:
    def test_forward_is_block_mean(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2).numpy()
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            F.avg_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_gradient_matches_numerical(self):
        x = np.random.default_rng(0).standard_normal((2, 2, 4, 4))

        def forward():
            return (F.avg_pool2d(Tensor(x), 2) ** 2).sum().item()

        t = Tensor(x, requires_grad=True)
        backprop(lambda: (F.avg_pool2d(t, 2) ** 2).sum())
        np.testing.assert_allclose(t.grad, numerical_grad(forward, x), atol=2e-2)

    def test_layer_module(self):
        layer = AvgPool2d(2)
        out = layer(Tensor(np.ones((1, 3, 4, 4))))
        assert out.shape == (1, 3, 2, 2)
        assert "k=2" in repr(layer)


class TestCheckpointing:
    def test_save_load_round_trip(self, tmp_path):
        model = Sequential(Linear(4, 3, rng=rng_from_seed(0)))
        path = tmp_path / "model.npz"
        save_state(model.state_dict(), path)
        restored = load_state(path)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(restored[name], value)

    def test_load_into_fresh_model(self, tmp_path):
        a = Linear(4, 3, rng=rng_from_seed(0))
        path = tmp_path / "a.npz"
        save_state(a.state_dict(), path)
        b = Linear(4, 3, rng=rng_from_seed(99))
        b.load_state_dict(load_state(path))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
