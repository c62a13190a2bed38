"""Model architectures of the evaluation (§6.1.1).

* ``paper_cnn`` — "two convolutional layers and three fully connected
  layers", used for CIFAR10, MotionSense and MobiAct; a three-conv variant
  exists for the §6.5 system experiment.
* ``deepface_like`` — the LFW architecture: convolution, max-pooling,
  *locally connected* and fully connected layers, a scaled-down DeepFace.

Factories take an RNG and return a fresh model, the signature the federated
clients, the server and the attack all share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.federated import FederatedDataset
from ..nn import (
    Conv2d,
    Flatten,
    Linear,
    LocallyConnected2d,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)

__all__ = ["paper_cnn", "deepface_like", "linear_probe", "ModelFactory", "model_fn_for"]


def paper_cnn(
    input_shape: tuple[int, int, int],
    num_classes: int,
    rng: np.random.Generator,
    conv_layers: int = 2,
    base_channels: int = 8,
    hidden: tuple[int, int] = (64, 32),
) -> Module:
    """The 2-conv + 3-FC network (3-conv variant for §6.5)."""
    if conv_layers not in (2, 3):
        raise ValueError(f"the paper evaluates 2 or 3 conv layers, got {conv_layers}")
    channels_in, height, width = input_shape
    layers: list[Module] = []
    channels = channels_in
    out_channels = base_channels
    for _ in range(conv_layers):
        layers.append(Conv2d(channels, out_channels, kernel_size=3, padding=1, rng=rng))
        layers.append(ReLU())
        channels, out_channels = out_channels, out_channels * 2
    pool = 2 if height % 2 == 0 and width % 2 == 0 else 1
    if pool > 1:
        layers.append(MaxPool2d(pool))
        height, width = height // pool, width // pool
    layers.append(Flatten())
    flat = channels * height * width
    layers.append(Linear(flat, hidden[0], rng=rng))
    layers.append(ReLU())
    layers.append(Linear(hidden[0], hidden[1], rng=rng))
    layers.append(ReLU())
    layers.append(Linear(hidden[1], num_classes, rng=rng))
    return Sequential(*layers)


def deepface_like(
    input_shape: tuple[int, int, int],
    num_classes: int,
    rng: np.random.Generator,
    conv_channels: int = 8,
    hidden: int = 32,
) -> Module:
    """Scaled-down DeepFace: conv → maxpool → locally connected → FC."""
    channels_in, height, width = input_shape
    if height % 2 or width % 2:
        raise ValueError(f"input spatial dims must be even, got {(height, width)}")
    after_pool = (height // 2, width // 2)
    lc_out = (after_pool[0] - 2, after_pool[1] - 2)  # 3×3 untied kernels
    return Sequential(
        Conv2d(channels_in, conv_channels, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        LocallyConnected2d(conv_channels, conv_channels, after_pool, kernel_size=3, rng=rng),
        ReLU(),
        Flatten(),
        Linear(conv_channels * lc_out[0] * lc_out[1], hidden, rng=rng),
        ReLU(),
        Linear(hidden, num_classes, rng=rng),
    )


def linear_probe(
    input_shape: tuple[int, ...],
    num_classes: int,
    rng: np.random.Generator,
) -> Module:
    """Flatten + single linear layer, for flat-feature population datasets.

    Population-scale simulations trade model capacity for cohort size; a
    linear probe keeps each of the 10k-per-round local trainings cheap while
    still separating the Gaussian-prototype features of
    :class:`~repro.data.population.SyntheticPopulation`.
    """
    flat = int(np.prod(input_shape))
    return Sequential(Flatten(), Linear(flat, num_classes, rng=rng))


@dataclass(frozen=True)
class ModelFactory:
    """A picklable model factory: architecture name + constructor arguments.

    Same call signature as the closure factories it replaces (an RNG in, a
    fresh model out), but representable as plain data — so a factory can
    cross a process boundary.  The sharded data plane pickles it into its
    spawn workers, where each worker rebuilds an identical model template.
    """

    architecture: str
    input_shape: tuple[int, ...]
    num_classes: int
    conv_layers: int = 2

    _BUILDERS = {
        "linear_probe": linear_probe,
        "deepface_like": deepface_like,
        "paper_cnn": paper_cnn,
    }

    def __post_init__(self) -> None:
        if self.architecture not in self._BUILDERS:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; choose from "
                f"{tuple(self._BUILDERS)}"
            )

    def __call__(self, rng: np.random.Generator) -> Module:
        if self.architecture == "paper_cnn":
            return paper_cnn(
                self.input_shape, self.num_classes, rng, conv_layers=self.conv_layers
            )
        builder = self._BUILDERS[self.architecture]
        return builder(self.input_shape, self.num_classes, rng)


def model_fn_for(
    dataset: FederatedDataset,
    conv_layers: int = 2,
) -> Callable[[np.random.Generator], Module]:
    """The paper's architecture choice for a given dataset."""
    if len(dataset.input_shape) == 1:
        return ModelFactory("linear_probe", tuple(dataset.input_shape), dataset.num_classes)
    if dataset.name == "lfw":
        return ModelFactory("deepface_like", tuple(dataset.input_shape), dataset.num_classes)
    return ModelFactory(
        "paper_cnn", tuple(dataset.input_shape), dataset.num_classes, conv_layers=conv_layers
    )
