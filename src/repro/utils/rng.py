"""Deterministic random-number management.

Every stochastic component in the reproduction (data generation, weight
initialization, client sampling, the proxy's mixing permutations, the noisy
gradient defense) draws from an explicitly seeded generator.  Experiments
spawn *independent* child streams per component so that, e.g., changing the
number of attack rounds never perturbs the data generation.

Every per-``(seed, client, round)`` decision is a one-shot draw from a fresh
``rng_from_seed(stable_seed(...))``, thousands per round at fleet scale.  With
the native helper (:mod:`repro.utils.native`) :func:`rng_from_seed` seeds
numpy's own ``PCG64`` from the four words ``SeedSequence(seed)`` would hash,
computed in C (~4 µs a generator against ~15 µs), and :func:`seeded_uniform`
returns a stream's first uniform without building a generator (under 1 µs
against ~16 µs).  Both give exactly what ``np.random.default_rng(seed)``
gives, which is also what they return without the helper and for any seed
other than a Python int in ``[0, 2**32)``.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import SeedSequence
from numpy.random.bit_generator import ISeedSequence

from . import native

__all__ = ["rng_from_seed", "seeded_uniform", "stable_seed", "child_rng", "SeedSequence"]


class _SeedWords(ISeedSequence):
    """The four words ``SeedSequence(seed).generate_state(4, np.uint64)``
    returns, computed natively; ``PCG64`` asks for exactly those.  A generator
    seeded from it cannot ``spawn``: :func:`child_rng` derives child streams."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise NotImplementedError("holds only the four uint64 words PCG64 seeds from")
        return self.words


def _native_seed(seed) -> bool:
    """Whether ``seed`` is a Python int numpy hashes as one entropy word and
    the native helper is built (a numpy integer takes numpy's own path)."""
    return type(seed) is int and 0 <= seed < 2**32 and native.load() is not None


def rng_from_seed(seed: int | None) -> np.random.Generator:
    """Create a generator from an integer seed (or entropy if ``None``).

    The generator is ``np.random.default_rng(seed)``'s, draw for draw.
    """
    if _native_seed(seed):
        return np.random.Generator(np.random.PCG64(_SeedWords(native.seed_words(seed))))
    return np.random.default_rng(seed)


def seeded_uniform(seed: int) -> float:
    """``rng_from_seed(seed).random()``: the first uniform in ``[0, 1)`` of
    ``seed``'s stream, for the one-shot draws that need nothing more."""
    if _native_seed(seed):
        return native.seeded_uniform(seed)
    return float(np.random.default_rng(seed).random())


def stable_seed(*parts: str | int | float) -> int:
    """Derive a process-independent 31-bit seed from a label tuple.

    Python's built-in ``hash`` is randomized per process for strings, so it
    must never feed an RNG seed; this uses SHA-256 over the ``repr`` of the
    labels instead, making every derived stream reproducible across runs and
    machines.
    """
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


def child_rng(parent_seed: int, *labels: str | int) -> np.random.Generator:
    """Independent child generator keyed by a parent seed plus labels."""
    return np.random.default_rng(SeedSequence([parent_seed % (2**31), stable_seed(*labels)]))
