"""Alternative aggregation rules (extension).

The §4.2 utility-equivalence proof is specific to the *column mean*: a
per-layer permutation of participants does not change per-layer means.  Other
aggregation rules used for Byzantine robustness — coordinate-wise median and
trimmed mean — are permutation-invariant **per coordinate** too, so they are
also unchanged by mixing; what mixing breaks is any rule that couples
coordinates *across layers of one participant* (e.g. norm-based update
filtering).  This module provides the rules and the test suite demonstrates
both facts, which matters to anyone deploying MixNN in front of a robust
aggregator.

All rules run on the flat parameter plane — one ``np.median``/``np.sort``/
``einsum`` over the round's ``(N, D)`` matrix instead of per-parameter
stacking — and each keeps its dict-based implementation as a ``*_reference``
cross-checked by the equivalence tests.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .flat import FlatUpdateBatch, flat_mean
from .update import ModelUpdate, aggregate_states_reference, aggregate_updates

__all__ = [
    "AGGREGATION_RULES",
    "coordinate_median",
    "coordinate_median_reference",
    "trimmed_mean",
    "trimmed_mean_reference",
    "norm_filtered_mean",
    "norm_filtered_mean_reference",
    "pairwise_sq_distances",
    "pairwise_sq_distances_reference",
    "krum",
    "krum_reference",
    "multi_krum",
    "multi_krum_reference",
    "AggregationPolicy",
    "AggregationReport",
]

#: selectable server-side aggregation rules (``SimulationConfig.aggregation``)
AGGREGATION_RULES = ("mean", "median", "trimmed", "norm_filter", "krum", "multi-krum")


def _stack(updates: list[ModelUpdate], name: str) -> np.ndarray:
    return np.stack([np.asarray(u.state[name], dtype=np.float32) for u in updates])


def coordinate_median(updates: list[ModelUpdate]) -> "OrderedDict[str, np.ndarray]":
    """Coordinate-wise median of the updates (Byzantine-robust)."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    batch = FlatUpdateBatch.from_updates(updates)
    return batch.schema.views(batch.median())


def coordinate_median_reference(updates: list[ModelUpdate]) -> "OrderedDict[str, np.ndarray]":
    """Retained per-parameter implementation of :func:`coordinate_median`."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    return OrderedDict(
        (name, np.median(_stack(updates, name), axis=0).astype(np.float32))
        for name in updates[0].state
    )


def trimmed_mean(updates: list[ModelUpdate], trim: int = 1) -> "OrderedDict[str, np.ndarray]":
    """Coordinate-wise mean after dropping the ``trim`` extremes on each side."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    if trim < 0:
        raise ValueError(f"trim must be >= 0, got {trim}")
    if 2 * trim >= len(updates):
        raise ValueError(f"trim={trim} removes all of {len(updates)} updates")
    batch = FlatUpdateBatch.from_updates(updates)
    return batch.schema.views(batch.trimmed_mean(trim))


def trimmed_mean_reference(updates: list[ModelUpdate], trim: int = 1) -> "OrderedDict[str, np.ndarray]":
    """Retained per-parameter implementation of :func:`trimmed_mean`."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    if trim < 0:
        raise ValueError(f"trim must be >= 0, got {trim}")
    if 2 * trim >= len(updates):
        raise ValueError(f"trim={trim} removes all of {len(updates)} updates")
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name in updates[0].state:
        stacked = np.sort(_stack(updates, name), axis=0)
        kept = stacked[trim : len(updates) - trim]
        out[name] = kept.mean(axis=0).astype(np.float32)
    return out


def norm_filtered_mean(
    updates: list[ModelUpdate],
    reference: dict,
    max_norm: float,
) -> "OrderedDict[str, np.ndarray]":
    """Mean of updates whose whole-model delta norm is below ``max_norm``.

    This rule couples coordinates across layers of one participant — exactly
    the kind of aggregation MixNN's mixing does *not* commute with, because a
    mixed chimera's cross-layer norm differs from any original participant's.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    if not max_norm > 0:
        raise ValueError(
            f"max_norm must be > 0 (a non-positive bound rejects every update), got {max_norm}"
        )
    batch = FlatUpdateBatch.from_updates(updates)
    kept = batch.norms(reference) <= max_norm
    if not kept.any():
        raise ValueError("norm filter rejected every update")
    return batch.schema.views(
        flat_mean(list(batch.matrix[kept]), batch.schema).astype(np.float32, copy=False)
    )


def norm_filtered_mean_reference(
    updates: list[ModelUpdate],
    reference: dict,
    max_norm: float,
) -> "OrderedDict[str, np.ndarray]":
    """Retained per-parameter implementation of :func:`norm_filtered_mean`."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    if not max_norm > 0:
        raise ValueError(
            f"max_norm must be > 0 (a non-positive bound rejects every update), got {max_norm}"
        )
    kept: list[ModelUpdate] = []
    for update in updates:
        delta_sq = 0.0
        for name, value in update.state.items():
            diff = np.asarray(value, dtype=np.float64) - np.asarray(reference[name], dtype=np.float64)
            delta_sq += float((diff**2).sum())
        if np.sqrt(delta_sq) <= max_norm:
            kept.append(update)
    if not kept:
        raise ValueError("norm filter rejected every update")
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name in kept[0].state:
        out[name] = _stack(kept, name).mean(axis=0).astype(np.float32)
    return out


# ----------------------------------------------------------------------
# Krum / multi-Krum (Blanchard et al., NeurIPS 2017) on the flat plane
# ----------------------------------------------------------------------
def _gram_sq_distances(blocks: list[np.ndarray]) -> np.ndarray:
    """Pairwise squared L2 distances accumulated per parameter span.

    Each block is one span's ``(N, size)`` float64 matrix; the Gram trick
    (``d² = |a|² + |b|² − 2 a·b``) turns every span into one matmul.  Both
    the flat and reference paths feed C-contiguous float64 blocks holding
    identical values, so the per-span partial sums — and hence the Krum
    scores and selections downstream — are bit-identical.
    """
    count = blocks[0].shape[0]
    d2 = np.zeros((count, count), dtype=np.float64)
    for block in blocks:
        sq = np.einsum("ij,ij->i", block, block)
        d2 += sq[:, None] + sq[None, :] - 2.0 * (block @ block.T)
    np.fill_diagonal(d2, 0.0)
    return d2


def pairwise_sq_distances(updates: list[ModelUpdate]) -> np.ndarray:
    """``(N, N)`` pairwise squared distances between updates (flat plane)."""
    if not updates:
        raise ValueError("cannot compute distances over an empty update list")
    batch = FlatUpdateBatch.from_updates(updates)
    blocks = [
        batch.matrix[:, offset : offset + size].astype(np.float64)
        for offset, size in zip(batch.schema.offsets, batch.schema.sizes)
    ]
    return _gram_sq_distances(blocks)


def pairwise_sq_distances_reference(updates: list[ModelUpdate]) -> np.ndarray:
    """Retained per-parameter implementation of :func:`pairwise_sq_distances`."""
    if not updates:
        raise ValueError("cannot compute distances over an empty update list")
    blocks = [
        np.stack([np.asarray(u.state[name], dtype=np.float64).ravel() for u in updates])
        for name in updates[0].state
    ]
    return _gram_sq_distances(blocks)


def _check_krum_cohort(count: int, num_attackers: int) -> None:
    if num_attackers < 0:
        raise ValueError(f"num_attackers must be >= 0, got {num_attackers}")
    if count < num_attackers + 3:
        raise ValueError(
            f"krum needs at least num_attackers + 3 = {num_attackers + 3} updates "
            f"to score n - f - 2 neighbours, got {count}"
        )


def _krum_scores(d2: np.ndarray, num_attackers: int) -> np.ndarray:
    """Per-update Krum score: sum of its ``n - f - 2`` closest distances."""
    count = d2.shape[0]
    closest = count - num_attackers - 2
    scores = np.empty(count, dtype=np.float64)
    for i in range(count):
        others = np.sort(np.delete(d2[i], i))
        scores[i] = others[:closest].sum()
    return scores


def krum(updates: list[ModelUpdate], num_attackers: int = 0, return_index: bool = False):
    """Krum: the single update closest to its ``n - f - 2`` nearest peers.

    Byzantine-robust for up to ``num_attackers`` (``f``) colluding attackers
    when ``n >= 2f + 3``; the selected update is an *actual participant's*
    update, never a blend, so one poisoned round costs one honest update at
    worst.  Bit-identical to :func:`krum_reference`.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    _check_krum_cohort(len(updates), num_attackers)
    batch = FlatUpdateBatch.from_updates(updates)
    blocks = [
        batch.matrix[:, offset : offset + size].astype(np.float64)
        for offset, size in zip(batch.schema.offsets, batch.schema.sizes)
    ]
    scores = _krum_scores(_gram_sq_distances(blocks), num_attackers)
    index = int(np.argmin(scores))
    state = batch.schema.views(batch.matrix[index].copy())
    return (state, index) if return_index else state


def krum_reference(
    updates: list[ModelUpdate], num_attackers: int = 0, return_index: bool = False
):
    """Retained per-parameter implementation of :func:`krum`."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    _check_krum_cohort(len(updates), num_attackers)
    scores = _krum_scores(pairwise_sq_distances_reference(updates), num_attackers)
    index = int(np.argmin(scores))
    state: "OrderedDict[str, np.ndarray]" = OrderedDict(
        (name, np.asarray(value, dtype=np.float32).copy())
        for name, value in updates[index].state.items()
    )
    return (state, index) if return_index else state


def _multi_krum_selection(scores: np.ndarray, select: int) -> list[int]:
    # stable argsort so ties resolve by slot order on both paths
    ranked = np.argsort(scores, kind="stable")[:select]
    return sorted(int(i) for i in ranked)


def _check_multi_krum_select(count: int, select: int) -> None:
    if not 1 <= select <= count:
        raise ValueError(f"select must be in [1, {count}], got {select}")


def multi_krum(
    updates: list[ModelUpdate],
    num_attackers: int = 0,
    select: int | None = None,
    return_selected: bool = False,
):
    """Multi-Krum: mean of the ``select`` best-scored updates.

    Defaults to ``select = n - f - 2`` (the classical choice).  Keeps Krum's
    selection guarantee while averaging enough honest updates to retain
    convergence speed.  Bit-identical to :func:`multi_krum_reference`.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    _check_krum_cohort(len(updates), num_attackers)
    if select is None:
        select = len(updates) - num_attackers - 2
    _check_multi_krum_select(len(updates), select)
    batch = FlatUpdateBatch.from_updates(updates)
    blocks = [
        batch.matrix[:, offset : offset + size].astype(np.float64)
        for offset, size in zip(batch.schema.offsets, batch.schema.sizes)
    ]
    scores = _krum_scores(_gram_sq_distances(blocks), num_attackers)
    selected = _multi_krum_selection(scores, select)
    state = batch.schema.views(
        flat_mean([batch.matrix[i] for i in selected], batch.schema)
    )
    return (state, selected) if return_selected else state


def multi_krum_reference(
    updates: list[ModelUpdate],
    num_attackers: int = 0,
    select: int | None = None,
    return_selected: bool = False,
):
    """Retained per-parameter implementation of :func:`multi_krum`."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    _check_krum_cohort(len(updates), num_attackers)
    if select is None:
        select = len(updates) - num_attackers - 2
    _check_multi_krum_select(len(updates), select)
    scores = _krum_scores(pairwise_sq_distances_reference(updates), num_attackers)
    selected = _multi_krum_selection(scores, select)
    state = aggregate_states_reference([updates[i].state for i in selected])
    return (state, selected) if return_selected else state


# ----------------------------------------------------------------------
# Selectable server policies
# ----------------------------------------------------------------------
@dataclass
class AggregationReport:
    """What one policy application did: which update slots survived the rule."""

    rule: str
    #: indices (into the round's received updates) that were merged
    kept: tuple[int, ...]
    #: indices the rule filtered out before merging
    dropped: tuple[int, ...]


@dataclass(frozen=True)
class AggregationPolicy:
    """A selectable, cohort-robust server aggregation rule.

    Unlike the raw rule functions (which are strict about degenerate
    cohorts), a policy must survive whatever the round loop hands it:
    ``trim`` is clamped to what the cohort supports, Krum variants fall
    back to the mean below the ``f + 3`` floor, and the adaptive norm
    bound (``norm_multiplier ×`` median delta norm) can never reject
    everything.  Coordinate-wise rules keep every update (they drop
    per-coordinate extremes, not participants), so ``kept``/``dropped``
    track *participant-level* filtering only.

    Robust rules aggregate unweighted against the pre-merge global state;
    only the ``mean`` rule applies sample/staleness weighting (where the
    §4.2 equivalence and the FedBuff discount are defined).
    """

    rule: str = "mean"
    trim: int = 1
    max_norm: float | None = None
    norm_multiplier: float = 2.0
    num_attackers: int | None = None
    multi_select: int | None = None

    def __post_init__(self) -> None:
        if self.rule not in AGGREGATION_RULES:
            raise ValueError(
                f"unknown aggregation rule {self.rule!r}; choose one of {AGGREGATION_RULES}"
            )
        if self.trim < 1:
            raise ValueError(f"trim must be >= 1, got {self.trim}")
        if self.max_norm is not None and not self.max_norm > 0:
            raise ValueError(
                f"max_norm must be > 0 (a non-positive bound rejects every update), "
                f"got {self.max_norm}"
            )
        if self.norm_multiplier < 1.0:
            raise ValueError(f"norm_multiplier must be >= 1, got {self.norm_multiplier}")
        if self.num_attackers is not None and self.num_attackers < 0:
            raise ValueError(f"num_attackers must be >= 0, got {self.num_attackers}")
        if self.multi_select is not None and self.multi_select < 1:
            raise ValueError(f"multi_select must be >= 1, got {self.multi_select}")

    def _assumed_attackers(self, count: int) -> int:
        f = self.num_attackers if self.num_attackers is not None else max(0, (count - 3) // 2)
        return max(0, min(f, count - 3))

    def aggregate(
        self,
        updates: list[ModelUpdate],
        reference: dict | None = None,
        sample_weighted: bool = False,
        staleness_alpha: float | None = None,
    ):
        """Apply the rule; returns ``(state, kept_indices, dropped_indices)``."""
        if not updates:
            raise ValueError("cannot aggregate an empty update list")
        count = len(updates)
        everyone = tuple(range(count))
        rule = self.rule
        if rule in ("krum", "multi-krum") and count < 3:
            rule = "mean"  # below the f + 3 floor even at f = 0
        if rule == "mean":
            state = aggregate_updates(
                updates, sample_weighted=sample_weighted, staleness_alpha=staleness_alpha
            )
            return state, everyone, ()
        if rule == "median":
            return coordinate_median(updates), everyone, ()
        if rule == "trimmed":
            trim = min(self.trim, max(0, (count - 1) // 2))
            return trimmed_mean(updates, trim), everyone, ()
        if rule == "norm_filter":
            if reference is None:
                raise ValueError("norm_filter needs the pre-merge global state as reference")
            batch = FlatUpdateBatch.from_updates(updates)
            norms = batch.norms(reference)
            if self.max_norm is not None:
                bound = self.max_norm
            else:
                bound = self.norm_multiplier * float(np.median(norms))
            mask = norms <= bound
            if not mask.any():
                raise ValueError(
                    f"norm filter rejected every update (explicit max_norm={self.max_norm})"
                )
            kept = tuple(int(i) for i in np.flatnonzero(mask))
            dropped = tuple(int(i) for i in np.flatnonzero(~mask))
            state = batch.schema.views(
                flat_mean([batch.matrix[i] for i in kept], batch.schema)
            )
            return state, kept, dropped
        f = self._assumed_attackers(count)
        if rule == "krum":
            state, index = krum(updates, f, return_index=True)
            kept = (index,)
        else:
            select = self.multi_select
            if select is None:
                select = count - f - 2
            select = max(1, min(select, count))
            state, selected = multi_krum(updates, f, select=select, return_selected=True)
            kept = tuple(selected)
        dropped = tuple(i for i in everyone if i not in kept)
        return state, kept, dropped
