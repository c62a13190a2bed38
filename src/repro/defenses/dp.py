"""DP-style clip-and-noise defense (extension beyond the paper).

§2.3 discusses DP-SGD as the standard perturbation defense and notes that
"the noise calibration and the management of the privacy budget is not
trivial".  This defense implements the client-side DP-FedAvg recipe —
clip the update *delta* to a norm bound, then add Gaussian noise scaled to
that bound — which is better calibrated than the paper's plain noisy-gradient
baseline (noise proportional to the sensitivity instead of a fixed σ on raw
weights).

It exists to extend Figure 7's comparison: clip-and-noise trades utility for
privacy on a curve, while MixNN sits at (full utility, full privacy).
"""

from __future__ import annotations

import numpy as np

from ..federated.flat import FlatUpdateBatch, row_norms
from ..federated.update import ModelUpdate
from .base import Defense

__all__ = ["ClipAndNoiseDefense"]


class ClipAndNoiseDefense(Defense):
    """Client-side DP-FedAvg: clip the update delta, add calibrated noise."""

    name = "dp-clip-noise"

    def __init__(self, clip_norm: float = 1.0, noise_multiplier: float = 0.1) -> None:
        super().__init__()
        if clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {clip_norm}")
        if noise_multiplier < 0:
            raise ValueError(f"noise_multiplier must be non-negative, got {noise_multiplier}")
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier

    def process_round(
        self,
        updates: list[ModelUpdate],
        rng: np.random.Generator,
        broadcast_state: dict | None = None,
    ) -> list[ModelUpdate]:
        """Clip + noise the whole round on the flat plane.

        One ``(N, D)`` delta subtract, one float64 norm per row, one noise
        draw.  The generator stream matches the per-update per-parameter loop
        this replaces, so seeded rounds add identical noise.
        """
        if broadcast_state is None:
            raise ValueError("ClipAndNoiseDefense needs the broadcast state to compute deltas")
        sigma = self.noise_multiplier * self.clip_norm
        batch = FlatUpdateBatch.from_updates(updates)
        reference = batch.schema.pack(broadcast_state)
        deltas = batch.matrix - reference
        # norm of the float32 delta, not of the exact float64 difference
        norms = row_norms(deltas, batch.schema)
        # scale rows above the bound down to it (DP-FedAvg clip); zero-norm
        # rows keep scale 1
        scales = np.ones(len(batch))
        over = (norms > self.clip_norm) & (norms > 0.0)
        scales[over] = self.clip_norm / norms[over]
        # float32 multiply with the float32-cast scale, what a float32 array
        # times a Python-float scale computes under NEP 50
        clipped = deltas * scales[:, None].astype(np.float32)
        noise = rng.normal(0.0, sigma, size=batch.matrix.shape).astype(np.float32)
        processed = batch.with_matrix(reference + clipped + noise)
        return processed.to_updates(
            extra_metadata={"clip_norm": self.clip_norm, "noise_multiplier": self.noise_multiplier}
        )

    def __repr__(self) -> str:
        return (
            f"ClipAndNoiseDefense(clip_norm={self.clip_norm}, "
            f"noise_multiplier={self.noise_multiplier})"
        )
