"""Synthetic data-generation primitives.

The offline environment cannot download CIFAR10 / MotionSense / MobiAct / LFW,
so each dataset is replaced by a generator that reproduces the *structure* the
MixNN evaluation depends on:

* a main-task signal (class-conditional structure the global model learns),
* a sensitive-attribute signal (a distribution shift correlated with the
  attribute but not with the main-task labels),
* per-user variation (so participants are distinguishable but not degenerate).

Two primitive families cover all four datasets: smooth random *image
prototypes* (CIFAR10, LFW) and harmonic *gait windows* (MotionSense, MobiAct).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = ["smooth_field", "class_prototypes", "noisy_sample", "gait_window"]


def smooth_field(shape: tuple[int, ...], rng: np.random.Generator, smoothness: float = 1.5) -> np.ndarray:
    """A zero-mean, unit-variance random field with low-frequency structure.

    Gaussian-filters white noise and re-standardizes, giving images with the
    spatial coherence real photographs have (pure white noise would make the
    classification task either trivial or impossible).
    """
    field = rng.standard_normal(shape)
    if smoothness > 0:
        # Smooth only spatial axes (the last two) so channels stay independent.
        sigma = [0.0] * (len(shape) - 2) + [smoothness, smoothness]
        field = ndimage.gaussian_filter(field, sigma=sigma)
    std = field.std()
    if std > 0:
        field = (field - field.mean()) / std
    return field.astype(np.float32)


def class_prototypes(
    num_classes: int,
    shape: tuple[int, ...],
    rng: np.random.Generator,
    smoothness: float = 1.5,
) -> np.ndarray:
    """One smooth prototype image per class, shape ``(num_classes, *shape)``."""
    return np.stack([smooth_field(shape, rng, smoothness) for _ in range(num_classes)])


def noisy_sample(
    prototype: np.ndarray,
    rng: np.random.Generator,
    structured_noise: float = 0.5,
    white_noise: float = 0.25,
    smoothness: float = 1.0,
) -> np.ndarray:
    """Draw one sample around a prototype: prototype + smooth + white noise."""
    sample = prototype.copy()
    if structured_noise > 0:
        sample = sample + structured_noise * smooth_field(prototype.shape, rng, smoothness)
    if white_noise > 0:
        sample = sample + white_noise * rng.standard_normal(prototype.shape).astype(np.float32)
    return sample.astype(np.float32)


def gait_window(
    num_channels: int,
    window: int,
    base_frequency: float,
    amplitude: np.ndarray,
    phase: np.ndarray,
    harmonics: np.ndarray,
    offset: np.ndarray,
    noise: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synthesize one multi-channel inertial window.

    Channel ``c`` is a sum of ``len(harmonics)`` sinusoids at integer multiples
    of ``base_frequency`` with channel-specific amplitude/phase plus a constant
    offset (gravity / posture) and white sensor noise.  Output shape:
    ``(num_channels, window)``.
    """
    t = np.arange(window, dtype=np.float32) / window
    signal = np.zeros((num_channels, window), dtype=np.float32)
    for order, weight in enumerate(harmonics, start=1):
        angle = 2.0 * np.pi * base_frequency * order * t[None, :] + phase[:, None] * order
        signal += weight * amplitude[:, None] * np.sin(angle).astype(np.float32)
    signal += offset[:, None]
    if noise > 0:
        signal += noise * rng.standard_normal(signal.shape).astype(np.float32)
    return signal
