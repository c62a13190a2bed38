"""Shared utilities: deterministic RNG management."""

from .rng import SeedSequence, child_rng, rng_from_seed

__all__ = ["rng_from_seed", "child_rng", "SeedSequence"]
