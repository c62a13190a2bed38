"""Per-parameter dict loops: the oracles of the flat update algebra.

Each function is the dict-of-arrays form of a production path that now runs
on the ``(N, D)`` matrix of :mod:`repro.federated.flat` — FedAvg and its
staleness discounts, deltas, the robust rules, ∇Sim scoring and DP-FedAvg
clipping — or, for :func:`proxy_mix_reference`, of the MixNN proxy's §4.3
stream over oblivious lists.  ``tests/federated/test_flat.py`` holds each
production path to its oracle bit for bit (∇Sim scoring to float32
precision).  They share the production validation and small helpers, so an
oracle differs from its production path only in the data layout it computes
on — and the Krum oracles score row by row (:func:`krum_scores_reference`),
where production sorts blocks of rows.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.federated.aggregation import (
    _check_krum_cohort,
    _check_multi_krum_select,
    _gram_sq_distances,
    _multi_krum_selection,
)
from repro.federated.scenario import staleness_weight
from repro.federated.update import ModelUpdate, update_weights
from repro.mixnn.proxy import _mixing_units
from repro.nn.serialization import flatten


def state_delta_reference(state: dict, reference: dict) -> "OrderedDict[str, np.ndarray]":
    """Per-parameter implementation of :func:`~repro.federated.update.state_delta`."""
    if set(state) != set(reference):
        raise KeyError("state and reference have different parameter sets")
    return OrderedDict(
        (name, np.asarray(state[name], dtype=np.float32) - np.asarray(reference[name], dtype=np.float32))
        for name in state
    )


def aggregate_states_reference(
    states: list[dict], weights: list[float] | None = None
) -> "OrderedDict[str, np.ndarray]":
    """Per-parameter implementation of :func:`~repro.federated.update.aggregate_states`."""
    if not states:
        raise ValueError("cannot aggregate an empty state list")
    names = list(states[0].keys())
    for other in states[1:]:
        if list(other.keys()) != names:
            raise KeyError("all states must share the same parameter schema")
    if weights is None:
        weights = [1.0] * len(states)
    if len(weights) != len(states):
        raise ValueError(f"{len(weights)} weights for {len(states)} states")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name in names:
        stacked = np.stack([np.asarray(s[name], dtype=np.float32) for s in states])
        w = np.asarray(weights, dtype=np.float32).reshape((-1,) + (1,) * (stacked.ndim - 1))
        out[name] = (stacked * w).sum(axis=0) / total
    return out


def layerwise_staleness_mean_reference(
    updates: list[ModelUpdate],
    staleness_alpha: float,
    sample_weighted: bool = False,
) -> "OrderedDict[str, np.ndarray]":
    """Per-parameter implementation of
    :func:`~repro.federated.update.layerwise_staleness_mean` (same float32
    accumulation order)."""
    names = list(updates[0].state.keys())
    numerator = {
        name: np.zeros_like(np.asarray(updates[0].state[name], dtype=np.float32))
        for name in names
    }
    denominator = {name: np.zeros_like(numerator[name]) for name in names}
    for update in updates:
        base = float(update.num_samples) if sample_weighted else 1.0
        scalar = staleness_weight(int(update.metadata.get("staleness", 0)), staleness_alpha)
        per_param = update.metadata.get("param_staleness", {})
        for name in names:
            if name in per_param:
                weight = base * staleness_weight(int(per_param[name]), staleness_alpha)
            else:
                weight = base * scalar
            weight = np.float32(weight)
            numerator[name] += np.asarray(update.state[name], dtype=np.float32) * weight
            denominator[name] += weight
    for name in names:
        if not np.all(denominator[name] > 0):
            raise ValueError("weights must sum to a positive value in every parameter")
    return OrderedDict((name, numerator[name] / denominator[name]) for name in names)


def aggregate_updates_reference(
    updates: list[ModelUpdate],
    sample_weighted: bool = False,
    staleness_alpha: float | None = None,
) -> "OrderedDict[str, np.ndarray]":
    """Per-parameter implementation of :func:`~repro.federated.update.aggregate_updates`."""
    if staleness_alpha is not None and any(
        "param_staleness" in u.metadata for u in updates
    ):
        return layerwise_staleness_mean_reference(updates, staleness_alpha, sample_weighted)
    weights = update_weights(updates, sample_weighted, staleness_alpha)
    return aggregate_states_reference([u.state for u in updates], weights)


def _stack(updates: list[ModelUpdate], name: str) -> np.ndarray:
    return np.stack([np.asarray(u.state[name], dtype=np.float32) for u in updates])


def coordinate_median_reference(updates: list[ModelUpdate]) -> "OrderedDict[str, np.ndarray]":
    """Per-parameter implementation of :func:`~repro.federated.aggregation.coordinate_median`."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    return OrderedDict(
        (name, np.median(_stack(updates, name), axis=0).astype(np.float32))
        for name in updates[0].state
    )


def trimmed_mean_reference(updates: list[ModelUpdate], trim: int = 1) -> "OrderedDict[str, np.ndarray]":
    """Per-parameter implementation of :func:`~repro.federated.aggregation.trimmed_mean`."""
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


def norm_filtered_mean_reference(
    updates: list[ModelUpdate],
    reference: dict,
    max_norm: float,
) -> "OrderedDict[str, np.ndarray]":
    """Per-parameter implementation of :func:`~repro.federated.aggregation.norm_filtered_mean`."""
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


def pairwise_sq_distances_reference(updates: list[ModelUpdate]) -> np.ndarray:
    """Per-parameter implementation of :func:`~repro.federated.aggregation.pairwise_sq_distances`."""
    if not updates:
        raise ValueError("cannot compute distances over an empty update list")
    blocks = [
        np.stack([np.asarray(u.state[name], dtype=np.float64).ravel() for u in updates])
        for name in updates[0].state
    ]
    return _gram_sq_distances(blocks)


def krum_scores_reference(d2: np.ndarray, num_attackers: int) -> np.ndarray:
    """Per-row implementation of :func:`~repro.federated.aggregation._krum_scores`."""
    count = d2.shape[0]
    closest = count - num_attackers - 2
    scores = np.empty(count, dtype=np.float64)
    for i in range(count):
        others = np.sort(np.delete(d2[i], i))
        scores[i] = others[:closest].sum()
    return scores


def krum_reference(
    updates: list[ModelUpdate], num_attackers: int = 0, return_index: bool = False
):
    """Per-parameter implementation of :func:`~repro.federated.aggregation.krum`."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    _check_krum_cohort(len(updates), num_attackers)
    scores = krum_scores_reference(pairwise_sq_distances_reference(updates), num_attackers)
    index = int(np.argmin(scores))
    state: "OrderedDict[str, np.ndarray]" = OrderedDict(
        (name, np.asarray(value, dtype=np.float32).copy())
        for name, value in updates[index].state.items()
    )
    return (state, index) if return_index else state


def multi_krum_reference(
    updates: list[ModelUpdate],
    num_attackers: int = 0,
    select: int | None = None,
    return_selected: bool = False,
):
    """Per-parameter implementation of :func:`~repro.federated.aggregation.multi_krum`."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    _check_krum_cohort(len(updates), num_attackers)
    if select is None:
        select = len(updates) - num_attackers - 2
    _check_multi_krum_select(len(updates), select)
    scores = krum_scores_reference(pairwise_sq_distances_reference(updates), num_attackers)
    selected = _multi_krum_selection(scores, select)
    state = aggregate_states_reference([updates[i].state for i in selected])
    return (state, selected) if return_selected else state


def proxy_mix_reference(
    updates: list[ModelUpdate], k: int, rng: np.random.Generator, granularity: str = "layer"
) -> list[ModelUpdate]:
    """The §4.3 stream of :meth:`~repro.mixnn.proxy.MixNNProxy.process_round`
    over plain Python lists.

    Each mixing unit owns a list of ``k`` slots (``None`` is free).  An
    arrival is inserted into each list's first free slot; once the lists are
    full, every arrival first emits and then stores.  An emission draws one
    ``rng.integers(len)`` per unit, in unit order, and takes that unit's
    index-th occupied slot; it is attributed to the oldest arrival not yet
    attributed and carries the round of the latest one.  The flush emits
    until the lists are drained.
    """
    names = updates[0].parameter_names
    units = _mixing_units(names, granularity)
    lists: list[list] = [[None] * k for _ in units]
    arrivals: list[int] = []
    mixed: list[ModelUpdate] = []
    round_index = 0

    def emit() -> None:
        values: dict[str, np.ndarray] = {}
        sources: list[int] = []
        for slots in lists:
            occupied = [slot for slot, piece in enumerate(slots) if piece is not None]
            slot = occupied[int(rng.integers(len(occupied)))]
            piece, source = slots[slot]
            slots[slot] = None
            values.update(piece)
            sources.append(source)
        mixed.append(
            ModelUpdate(
                sender_id=-1,
                apparent_id=arrivals.pop(0),
                round_index=round_index,
                state=OrderedDict((name, values[name]) for name in names),
                metadata={"mixed": True, "granularity": granularity, "unit_sources": sources},
            )
        )

    for update in updates:
        round_index = update.round_index
        if None not in lists[0]:
            emit()
        for unit, slots in zip(units, lists):
            slots[slots.index(None)] = ({name: update.state[name] for name in unit}, update.sender_id)
        arrivals.append(update.sender_id)
    while any(piece is not None for piece in lists[0]):
        emit()
    return mixed


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two flat vectors (0 when either is null)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b) / norm)


def reference_deltas(reference_states: dict[int, dict], broadcast_state: dict) -> dict[int, np.ndarray]:
    """Each class's flattened direction against the broadcast: the oracle of
    the rows of :func:`~repro.attacks.background.reference_delta_matrix`."""
    return {
        attribute: flatten(state_delta_reference(state, broadcast_state))
        for attribute, state in reference_states.items()
    }


def score_updates_reference(
    updates: list[ModelUpdate],
    broadcast_state: dict,
    class_deltas: dict[int, np.ndarray],
) -> dict[int, dict[int, float]]:
    """Per-update, per-class implementation of :func:`~repro.attacks.gradsim.score_updates`."""
    out: dict[int, dict[int, float]] = {}
    for update in updates:
        direction = flatten(update.delta(broadcast_state))
        out[update.apparent_id] = {
            attribute: cosine_similarity(direction, delta)
            for attribute, delta in class_deltas.items()
        }
    return out


def delta_norm(delta: dict) -> float:
    """Global L2 norm of a per-parameter delta."""
    total = 0.0
    for value in delta.values():
        total += float(np.square(np.asarray(value, dtype=np.float64)).sum())
    return float(np.sqrt(total))


def clip_delta(delta: dict, max_norm: float) -> dict[str, np.ndarray]:
    """Scale a delta down to ``max_norm`` if it exceeds it (DP-FedAvg clip)."""
    norm = delta_norm(delta)
    if norm <= max_norm or norm == 0.0:
        return {name: np.asarray(value, dtype=np.float32).copy() for name, value in delta.items()}
    scale = max_norm / norm
    return {
        name: (np.asarray(value, dtype=np.float32) * scale).astype(np.float32)
        for name, value in delta.items()
    }
