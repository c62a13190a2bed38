"""Optimizers and loss classes."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, BCEWithLogitsLoss, CrossEntropyLoss, Linear, MSELoss
from repro.nn.module import Parameter
from repro.nn.optim import Optimizer
from repro.nn.tensor import GradTape, Tensor
from repro.utils.rng import rng_from_seed


def quadratic_param(start: float = 5.0) -> Parameter:
    return Parameter(np.array([start], dtype=np.float32))


def step_quadratic(optimizer, param, steps: int) -> float:
    """Minimize f(x) = x² with the given optimizer."""
    for _ in range(steps):
        with GradTape() as tape:
            loss = (param * param).sum()
        optimizer.zero_grad()
        tape.backward(loss)
        optimizer.step()
    return abs(float(param.data[0]))


class TestOptimizerBase:
    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.0)
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=-1.0)

    def test_step_abstract(self):
        with pytest.raises(NotImplementedError):
            Optimizer([quadratic_param()], lr=0.1).step()

    def test_zero_grad_clears(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        with GradTape() as tape:
            loss = (p * p).sum()
        tape.backward(loss)
        assert p.grad is not None
        opt.zero_grad()
        assert p.grad is None

    def test_step_skips_gradless_params(self):
        p = quadratic_param()
        SGD([p], lr=0.1).step()  # no backward ran; must not crash
        assert p.data[0] == pytest.approx(5.0)


class TestSGD:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert step_quadratic(SGD([p], lr=0.1), p, 50) < 1e-3

    def test_single_step_math(self):
        p = quadratic_param(2.0)
        step_quadratic(SGD([p], lr=0.25), p, 1)
        # grad = 2x = 4; x' = 2 - 0.25*4 = 1
        assert p.data[0] == pytest.approx(1.0)

    def test_momentum_accelerates(self):
        plain, heavy = quadratic_param(), quadratic_param()
        slow = step_quadratic(SGD([plain], lr=0.01), plain, 30)
        fast = step_quadratic(SGD([heavy], lr=0.01, momentum=0.9), heavy, 30)
        assert fast < slow

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        with GradTape() as tape:
            loss = (p * 0.0).sum()  # zero task gradient
        opt.zero_grad()
        tape.backward(loss)
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)


def adam_expression(data, grad, m, v, step, lr=1e-3, betas=(0.9, 0.999), eps=1e-7, weight_decay=0.0):
    """One Adam step as the textbook float32 expression, on copies."""
    m, v = m.copy(), v.copy()
    if weight_decay:
        grad = grad + weight_decay * data
    m *= betas[0]
    m += (1.0 - betas[0]) * grad
    v *= betas[1]
    v += (1.0 - betas[1]) * grad * grad
    m_hat = m / (1.0 - betas[0] ** step)
    v_hat = v / (1.0 - betas[1] ** step)
    return data - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_step_equals_the_expression_bit_for_bit(self, weight_decay, stacked):
        """20 steps on a plain parameter, or on an ``(M, D)`` block viewed
        out of a larger cohort store, equal the expression's arrays."""
        rng = rng_from_seed(3)
        if stacked:
            store = rng.standard_normal((6, 35)).astype(np.float32)
            param = Parameter(store[1:5])
        else:
            param = Parameter(rng.standard_normal((3, 8)).astype(np.float32))
        data = param.data.copy()
        m, v = np.zeros_like(data), np.zeros_like(data)
        opt = Adam([param], lr=0.01, weight_decay=weight_decay)
        for step in range(1, 21):
            param.grad = rng.standard_normal(data.shape).astype(np.float32)
            data, m, v = adam_expression(data, param.grad, m, v, step, lr=0.01, weight_decay=weight_decay)
            opt.step()
            assert param.data.tobytes() == data.tobytes()
            assert opt._m[0].tobytes() == m.tobytes() and opt._v[0].tobytes() == v.tobytes()
        if stacked:
            assert np.shares_memory(param.data, store)

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert step_quadratic(Adam([p], lr=0.3), p, 120) < 1e-2

    def test_first_step_is_lr_sized(self):
        """With bias correction, Adam's first step magnitude is ≈ lr."""
        p = quadratic_param(5.0)
        Adam([p], lr=0.1).params  # construct separately for clarity
        opt = Adam([p], lr=0.1)
        with GradTape() as tape:
            loss = (p * p).sum()
        opt.zero_grad()
        tape.backward(loss)
        opt.step()
        assert p.data[0] == pytest.approx(5.0 - 0.1, abs=1e-4)

    def test_trains_linear_regression(self):
        rng = rng_from_seed(0)
        true_w = np.array([[2.0, -1.0]], dtype=np.float32)
        x = rng.standard_normal((64, 2)).astype(np.float32)
        y = x @ true_w.T
        model = Linear(2, 1, rng=rng)
        opt = Adam(model.parameters(), lr=0.05)
        loss_fn = MSELoss()
        for _ in range(200):
            with GradTape() as tape:
                loss = loss_fn(model(Tensor(x)), Tensor(y))
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
        np.testing.assert_allclose(model.weight.data, true_w, atol=0.05)

    @pytest.mark.cohort
    def test_state_dict_snapshot_survives_steps(self):
        # Steps write param.data in place; a state_dict() taken earlier holds
        # copies and must not move with them.
        model = Linear(3, 2, rng=rng_from_seed(0))
        snapshot = model.state_dict()
        pristine = {name: value.copy() for name, value in snapshot.items()}
        opt = Adam(model.parameters(), lr=0.1)
        for _ in range(3):
            with GradTape() as tape:
                loss = (model(Tensor(np.ones((4, 3), dtype=np.float32))) ** 2).sum()
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
        for name, value in snapshot.items():
            np.testing.assert_array_equal(value, pristine[name])
        assert not np.array_equal(model.weight.data, pristine["weight"])

    @pytest.mark.cohort
    def test_step_writes_through_views(self):
        store = np.zeros((2, 3), dtype=np.float32)
        p = Parameter(store[1])
        opt = Adam([p], lr=0.1)
        for _ in range(3):
            with GradTape() as tape:
                loss = ((p - 1.0) ** 2).sum()
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
        assert np.shares_memory(p.data, store)
        np.testing.assert_array_equal(store[1], p.data)
        assert (store[1] > 0).all() and not store[0].any()

    def test_weight_decay(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        with GradTape() as tape:
            loss = (p * 0.0).sum()
        opt.zero_grad()
        tape.backward(loss)
        opt.step()
        assert p.data[0] < 1.0


class TestLosses:
    def test_cross_entropy_decreases_with_confidence(self):
        loss = CrossEntropyLoss()
        labels = np.array([0])
        weak = loss(Tensor([[1.0, 0.0]]), labels).item()
        strong = loss(Tensor([[5.0, 0.0]]), labels).item()
        assert strong < weak

    def test_mse(self):
        assert MSELoss()(Tensor([3.0]), Tensor([1.0])).item() == pytest.approx(4.0)

    def test_bce_with_logits_matches_reference(self):
        logits = np.array([-2.0, 0.0, 3.0], dtype=np.float32)
        target = np.array([0.0, 1.0, 1.0], dtype=np.float32)
        loss = BCEWithLogitsLoss()(Tensor(logits), target).item()
        probs = 1 / (1 + np.exp(-logits))
        expected = -(target * np.log(probs) + (1 - target) * np.log(1 - probs)).mean()
        assert loss == pytest.approx(float(expected), rel=1e-5)

    def test_bce_stable_for_extreme_logits(self):
        loss = BCEWithLogitsLoss()(Tensor([1000.0, -1000.0]), np.array([1.0, 0.0])).item()
        assert np.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-5)
