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
stacking.  The dict-based implementations they replaced are test oracles
(``tests/oracles/algebra.py``), and the equivalence tests hold each rule to
its oracle bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .flat import FlatUpdateBatch, flat_mean
from .update import ModelUpdate, aggregate_updates

__all__ = [
    "AGGREGATION_RULES",
    "coordinate_median",
    "trimmed_mean",
    "norm_filtered_mean",
    "pairwise_sq_distances",
    "krum",
    "multi_krum",
    "AggregationPolicy",
    "AggregationReport",
]

#: selectable server-side aggregation rules (``SimulationConfig.aggregation``)
AGGREGATION_RULES = ("mean", "median", "trimmed", "norm_filter", "krum", "multi-krum")


def coordinate_median(updates: list[ModelUpdate]) -> "OrderedDict[str, np.ndarray]":
    """Coordinate-wise median of the updates (Byzantine-robust)."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    batch = FlatUpdateBatch.from_updates(updates)
    return batch.schema.views(batch.median())


def trimmed_mean(updates: list[ModelUpdate], trim: int = 1) -> "OrderedDict[str, np.ndarray]":
    """Coordinate-wise mean after dropping the ``trim`` extremes on each side."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    batch = FlatUpdateBatch.from_updates(updates)
    return batch.schema.views(batch.trimmed_mean(trim))


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
    return _norm_filter(updates, reference, max_norm)[0]


def _norm_filter(
    updates: list[ModelUpdate],
    reference: dict,
    max_norm: float | None,
    norm_multiplier: float = 2.0,
) -> tuple["OrderedDict[str, np.ndarray]", np.ndarray]:
    """The norm filter's mean and the boolean mask of the updates it kept.

    An update is kept when its delta norm against ``reference`` is at most
    ``max_norm`` or, with ``max_norm=None``, at most ``norm_multiplier ×``
    the cohort's median delta norm.
    """
    batch = FlatUpdateBatch.from_updates(updates)
    norms = batch.norms(reference)
    bound = norm_multiplier * float(np.median(norms)) if max_norm is None else max_norm
    kept = norms <= bound
    if not kept.any():
        raise ValueError(f"norm filter rejected every update (max_norm={max_norm})")
    rows = [batch.matrix[i] for i in np.flatnonzero(kept)]
    return batch.schema.views(flat_mean(rows, batch.schema)), kept


# ----------------------------------------------------------------------
# Krum / multi-Krum (Blanchard et al., NeurIPS 2017) on the flat plane
# ----------------------------------------------------------------------
def _gram_sq_distances(blocks: list[np.ndarray]) -> np.ndarray:
    """Pairwise squared L2 distances accumulated per parameter span.

    Each block is one span's ``(N, size)`` float64 matrix; the Gram trick
    (``d² = |a|² + |b|² − 2 a·b``) turns every span into one matmul.  The
    flat path and its per-parameter oracle feed C-contiguous float64 blocks
    holding identical values, so the per-span partial sums — and hence the
    Krum scores and selections downstream — are bit-identical.
    """
    count = blocks[0].shape[0]
    d2 = np.zeros((count, count), dtype=np.float64)
    for block in blocks:
        sq = np.einsum("ij,ij->i", block, block)
        d2 += sq[:, None] + sq[None, :] - 2.0 * (block @ block.T)
    np.fill_diagonal(d2, 0.0)
    return d2


def _span_sq_distances(batch: FlatUpdateBatch) -> np.ndarray:
    """Pairwise squared distances between a batch's rows, one float64 block
    per parameter span."""
    return _gram_sq_distances(
        [
            batch.matrix[:, offset : offset + size].astype(np.float64)
            for offset, size in zip(batch.schema.offsets, batch.schema.sizes)
        ]
    )


def pairwise_sq_distances(updates: list[ModelUpdate]) -> np.ndarray:
    """``(N, N)`` pairwise squared distances between updates (flat plane)."""
    if not updates:
        raise ValueError("cannot compute distances over an empty update list")
    return _span_sq_distances(FlatUpdateBatch.from_updates(updates))


def _check_krum_cohort(count: int, num_attackers: int) -> None:
    if num_attackers < 0:
        raise ValueError(f"num_attackers must be >= 0, got {num_attackers}")
    if count < num_attackers + 3:
        raise ValueError(
            f"krum needs at least num_attackers + 3 = {num_attackers + 3} updates "
            f"to score n - f - 2 neighbours, got {count}"
        )


#: rows of the distance matrix scored per sort in :func:`_krum_scores`
_KRUM_BLOCK_ROWS = 128


def _krum_scores(d2: np.ndarray, num_attackers: int) -> np.ndarray:
    """Per-update Krum score: sum of its ``n - f - 2`` closest distances.

    Scores up to :data:`_KRUM_BLOCK_ROWS` rows at a time: each row's
    off-diagonal distances are gathered into one ``(rows, n - 1)`` block,
    sorted along rows in place, and the first ``n - f - 2`` columns summed.
    """
    count = d2.shape[0]
    closest = count - num_attackers - 2
    scores = np.empty(count, dtype=np.float64)
    columns = np.arange(count)
    for start in range(0, count, _KRUM_BLOCK_ROWS):
        stop = min(start + _KRUM_BLOCK_ROWS, count)
        off_diagonal = columns != np.arange(start, stop)[:, None]
        block = d2[start:stop][off_diagonal].reshape(stop - start, count - 1)
        block.sort(axis=1)
        scores[start:stop] = block[:, :closest].sum(axis=1)
    return scores


def krum(updates: list[ModelUpdate], num_attackers: int = 0, return_index: bool = False):
    """Krum: the single update closest to its ``n - f - 2`` nearest peers.

    Byzantine-robust for up to ``num_attackers`` (``f``) colluding attackers
    when ``n >= 2f + 3``; the selected update is an *actual participant's*
    update, never a blend, so one poisoned round costs one honest update at
    worst.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    _check_krum_cohort(len(updates), num_attackers)
    batch = FlatUpdateBatch.from_updates(updates)
    scores = _krum_scores(_span_sq_distances(batch), num_attackers)
    index = int(np.argmin(scores))
    state = batch.schema.views(batch.matrix[index].copy())
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
    convergence speed.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    _check_krum_cohort(len(updates), num_attackers)
    if select is None:
        select = len(updates) - num_attackers - 2
    _check_multi_krum_select(len(updates), select)
    batch = FlatUpdateBatch.from_updates(updates)
    scores = _krum_scores(_span_sq_distances(batch), num_attackers)
    selected = _multi_krum_selection(scores, select)
    state = batch.schema.views(
        flat_mean([batch.matrix[i] for i in selected], batch.schema)
    )
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
            state, mask = _norm_filter(updates, reference, self.max_norm, self.norm_multiplier)
            kept = tuple(int(i) for i in np.flatnonzero(mask))
            dropped = tuple(int(i) for i in np.flatnonzero(~mask))
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
