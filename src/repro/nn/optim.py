"""Optimizers.

The paper's methodology (§6.1.4) uses TensorFlow's Adam optimizer for local
training on every dataset; SGD with momentum is provided as well because ∇Sim
is motivated by the SGD gradient-fingerprint vulnerability and several tests
probe it directly.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data = param.data - self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba), TF-default hyperparameters.

    Steps write ``param.data`` in place (``a -= b`` computes the same values
    as ``a = a - b``), so a parameter that is a view into a larger weight
    store — a cohort's ``(M, D)`` block — keeps writing through to it.  Each
    step runs the textbook float32 expression's operations in its order, in
    ``out=`` form on two scratch arrays per parameter.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-7,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            # m = b1 m + (1 - b1) g
            scratch = np.multiply(grad, 1.0 - self.beta1)
            m *= self.beta1
            m += scratch
            # v = b2 v + (1 - b2) g g
            np.multiply(grad, 1.0 - self.beta2, out=scratch)
            scratch *= grad
            v *= self.beta2
            v += scratch
            # data -= lr (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            update = np.divide(m, bias1)
            update *= self.lr
            update /= scratch
            param.data -= update
