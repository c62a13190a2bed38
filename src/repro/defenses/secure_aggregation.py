"""Secure aggregation by pairwise masking (extension beyond the paper).

The paper's introduction discusses cryptographic secure aggregation
(Bonawitz et al., CCS'17) as the main alternative to MixNN: the server only
ever learns the *sum* of the updates, but the scheme requires the server to
cooperate in the protocol.  This module implements the core of that protocol
so the comparison can be run empirically:

* every ordered pair of participants ``(i, j)`` with ``i < j`` agrees on a
  fresh per-round seed (here dealt by the simulation, standing in for the
  Diffie–Hellman key agreement of the real protocol);
* participant ``i`` adds ``+PRG(seed_ij)`` for every ``j > i`` and
  ``−PRG(seed_ji)`` for every ``j < i`` to its update;
* the masks cancel pairwise in the sum, so the aggregate is (numerically)
  unchanged while each individual masked update is statistically independent
  of the participant's real update.

Unlike the real protocol this simulation does not implement dropout recovery
(Shamir shares of the seeds) — a round is assumed to complete with the same
cohort that started it, which holds in this simulator by construction.
"""

from __future__ import annotations

import numpy as np

from ..federated.flat import FlatUpdateBatch
from ..federated.update import ModelUpdate
from ..utils.rng import rng_from_seed
from .base import Defense

__all__ = ["SecureAggregationDefense"]


class SecureAggregationDefense(Defense):
    """Pairwise-masked updates: the server learns only the aggregate.

    Masking runs on the flat parameter plane: the round is one float64
    ``(N, D)`` accumulator and each pairwise seed expands to a single
    ``D``-vector that is added to row ``i`` and subtracted from row ``j`` —
    one PRG expansion per pair instead of one per (pair, participant, name).
    The PRG stream per seed and the per-row accumulation order match the
    per-parameter loop this replaces, so seeded rounds are value-identical.
    """

    name = "secure-aggregation"

    def __init__(self, mask_scale: float = 5.0) -> None:
        super().__init__()
        if mask_scale <= 0:
            raise ValueError(f"mask_scale must be positive, got {mask_scale}")
        self.mask_scale = mask_scale

    def _pair_mask(self, seed: int, total_size: int) -> np.ndarray:
        """The PRG expansion of one pairwise seed over the flat plane."""
        prg = rng_from_seed(seed)
        return prg.standard_normal(total_size) * self.mask_scale

    def process_round(
        self,
        updates: list[ModelUpdate],
        rng: np.random.Generator,
        broadcast_state: dict | None = None,
    ) -> list[ModelUpdate]:
        count = len(updates)
        batch = FlatUpdateBatch.from_updates(updates)
        # Fresh pairwise seeds for this round (the trusted-dealer stand-in
        # for the real protocol's key agreement).
        seeds = {
            (i, j): int(rng.integers(0, 2**31))
            for i in range(count)
            for j in range(i + 1, count)
        }
        accumulator = batch.matrix.astype(np.float64)
        # Ascending (i, j) iteration applies row r's masks in the same order
        # as the reference per-update loop: all j < r first, then all j > r.
        for (i, j), seed in seeds.items():
            mask = self._pair_mask(seed, batch.schema.total_size)
            accumulator[i] += mask
            accumulator[j] -= mask
        masked = batch.with_matrix(accumulator.astype(np.float32))
        return masked.to_updates(extra_metadata={"masked": True})

    def __repr__(self) -> str:
        return f"SecureAggregationDefense(mask_scale={self.mask_scale})"
