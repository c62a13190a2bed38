"""Noisy-gradient baseline (local-DP style perturbation).

The paper's comparison baseline (§6.1.3) adds Gaussian noise to every scalar
of the locally trained weights before upload, as in local differential
privacy.  The paper uses ``N(0, 1)`` on TensorFlow-scale models; our models
are far smaller, so the default ``sigma`` is calibrated (see
``ExperimentParams.noise_sigma`` in :mod:`repro.experiments.config`) to
reproduce the paper's *reported effect* — roughly a 10-point accuracy drop
with slower convergence, and partial (not full) protection against ∇Sim.
Both the paper-literal and calibrated settings are available.

Runs on the flat parameter plane: the round's updates are one ``(N, D)``
matrix and the noise is one ``(N, D)`` draw.  The generator stream is
consumed in the same row-major order as the per-update, per-parameter loop
it replaces, so seeded rounds produce identical values.
"""

from __future__ import annotations

import numpy as np

from ..federated.flat import FlatUpdateBatch
from ..federated.update import ModelUpdate
from .base import Defense

__all__ = ["GaussianNoiseDefense"]


class GaussianNoiseDefense(Defense):
    """Add i.i.d. Gaussian noise to every scalar of each update."""

    name = "noisy-gradient"

    def __init__(self, sigma: float = 0.05) -> None:
        super().__init__()
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = sigma

    def process_round(
        self,
        updates: list[ModelUpdate],
        rng: np.random.Generator,
        broadcast_state: dict | None = None,
    ) -> list[ModelUpdate]:
        batch = FlatUpdateBatch.from_updates(updates)
        noise = rng.normal(0.0, self.sigma, size=batch.matrix.shape).astype(np.float32)
        noisy = batch.with_matrix(batch.matrix + noise)
        return noisy.to_updates(extra_metadata={"noise_sigma": self.sigma})

    def __repr__(self) -> str:
        return f"GaussianNoiseDefense(sigma={self.sigma})"
