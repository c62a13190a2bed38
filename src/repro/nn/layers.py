"""Concrete neural-network layers.

Covers the two architectures evaluated in the paper:

* CIFAR10 / MotionSense / MobiAct — two (or three, for the §6.5 system
  experiment) :class:`Conv2d` layers followed by three :class:`Linear` layers;
* LFW — a DeepFace-like stack of :class:`Conv2d`, :class:`MaxPool2d`,
  :class:`LocallyConnected2d` and :class:`Linear` layers.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Conv2d",
    "LocallyConnected2d",
    "MaxPool2d",
    "AvgPool2d",
    "Flatten",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
]


def _default_rng(rng: np.random.Generator | None) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = _default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Conv2d(Module):
    """2-D convolution over NCHW inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = _default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.glorot_uniform(shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def output_shape(self, h: int, w: int) -> tuple[int, int]:
        """Spatial output size for an ``h × w`` input."""
        oh = (h + 2 * self.padding - self.kernel_size) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel_size) // self.stride + 1
        return oh, ow

    def __repr__(self) -> str:
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, stride={self.stride}, pad={self.padding})"
        )


class LocallyConnected2d(Module):
    """Convolution with untied (per-location) weights, as in DeepFace."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        in_size: tuple[int, int],
        kernel_size: int,
        stride: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = _default_rng(rng)
        h, w = in_size
        oh = (h - kernel_size) // stride + 1
        ow = (w - kernel_size) // stride + 1
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.out_size = (oh, ow)
        k = in_channels * kernel_size * kernel_size
        # He-style scaling on the patch fan-in, one filter bank per location.
        std = float(np.sqrt(2.0 / k))
        self.weight = Parameter((rng.standard_normal((out_channels, oh, ow, k)) * std).astype(np.float32))
        self.bias = Parameter(init.zeros((out_channels, oh, ow))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.locally_connected2d(x, self.weight, self.bias, stride=self.stride)

    def __repr__(self) -> str:
        return (
            f"LocallyConnected2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, out_size={self.out_size})"
        )


class MaxPool2d(Module):
    """Non-overlapping max pooling."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size})"


class AvgPool2d(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size)

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size})"


class Flatten(Module):
    """Flatten every axis from ``start_dim`` on (by default all but the batch axis)."""

    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(*x.shape[: self.start_dim], -1)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Dropout(Module):
    """Inverted dropout active only in training mode."""

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = _default_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate})"
