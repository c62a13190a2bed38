"""Model-update representation and aggregation algebra.

A :class:`ModelUpdate` is what a participant sends after local training: the
full refined parameter state (TensorFlow-style FedAvg, as in the paper), keyed
by parameter name.  Parameter names are grouped into *layers* — the mixing
unit of the MixNN proxy (a layer's weight and bias travel together, exactly as
the paper mixes whole layers ``l_1 … l_n``).

Flat parameter plane
--------------------
The round-critical algebra (aggregation, deltas, defenses, ∇Sim) runs on the
**flat parameter plane**: a model state is one contiguous float32
vector under a :class:`~repro.nn.serialization.StateSchema`, and a round's
``N`` updates are one ``(N, D)`` matrix (:mod:`repro.federated.flat`).  The
dict-of-arrays API remains the public surface, as cheap zero-copy views into
the flat buffer.  An update whose state is backed by a flat buffer exposes it
via ``flat_vector``; consumers that hold one skip all per-parameter
re-marshalling.  The per-parameter dict implementations these replaced are
test oracles (``tests/oracles/algebra.py``), and the equivalence tests hold
each flat path to its oracle bit for bit.

Invariant: once an update is flat-backed, its ``state`` entries are views into
``flat_vector`` — mutate parameters in place (``state[n][...] = x``) or build
a new update (``with_state``/``copy``); never rebind ``state[n]`` wholesale.

Identity model
--------------
``sender_id`` is the participant that produced the update.  ``apparent_id``
is the identity the *server* ascribes to the update: equal to ``sender_id``
in classical FL, but after MixNN mixing an emitted update is a chimera and
``apparent_id`` only names the arrival slot the server observes.  Attack
accuracy is always scored against the apparent participant's true attribute,
which is what makes the paper's "inference accuracy" measurable in both
configurations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from ..nn.serialization import flatten, schema_of

__all__ = [
    "ModelUpdate",
    "layer_groups",
    "aggregate_states",
    "aggregate_updates",
    "layerwise_staleness_mean",
    "update_weights",
    "state_delta",
]


def layer_groups(names: list[str] | tuple[str, ...]) -> "OrderedDict[str, list[str]]":
    """Group parameter names into layers.

    ``"layer0.weight"`` and ``"layer0.bias"`` share the layer key
    ``"layer0"``; a bare name (no dot) forms its own group.  Order follows
    first appearance, i.e. network depth for sequentially built models.

    Results are memoized per name tuple (every update of a model shares one
    grouping); treat the returned mapping as read-only.
    """
    key = tuple(names)
    groups = _LAYER_GROUPS_CACHE.get(key)
    if groups is None:
        groups = OrderedDict()
        for name in key:
            group_key = name.rsplit(".", 1)[0] if "." in name else name
            groups.setdefault(group_key, []).append(name)
        _LAYER_GROUPS_CACHE[key] = groups
    return groups


#: memo: names tuple -> layer grouping (shared across all same-schema updates)
_LAYER_GROUPS_CACHE: dict[tuple[str, ...], "OrderedDict[str, list[str]]"] = {}


@dataclass
class ModelUpdate:
    """One participant's post-training parameter state for one round."""

    sender_id: int
    round_index: int
    state: "OrderedDict[str, np.ndarray]"
    num_samples: int = 1
    apparent_id: int | None = None
    metadata: dict = field(default_factory=dict)
    #: contiguous float32 buffer backing ``state`` (flat-plane fast path);
    #: ``None`` until the update is materialized on the flat plane.
    flat_vector: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.apparent_id is None:
            self.apparent_id = self.sender_id

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(self.state.keys())

    @property
    def layers(self) -> "OrderedDict[str, list[str]]":
        return layer_groups(tuple(self.state.keys()))

    def flat(self) -> np.ndarray:
        """Concatenated float32 vector of all parameters.

        Flat-backed updates return the backing buffer itself (treat it as
        read-only); others pay one concatenation.
        """
        if self.flat_vector is not None:
            return self.flat_vector
        return flatten(self.state)

    def ensure_flat(self) -> np.ndarray:
        """Materialize this update on the flat plane and return the buffer.

        After this call ``state`` holds zero-copy views into ``flat_vector``,
        so every flat-plane consumer (aggregation, defenses, attacks,
        transport) shares the single allocation.
        """
        if self.flat_vector is None:
            schema = schema_of(self.state)
            vector = schema.pack(self.state)
            self.flat_vector = vector
            self.state = schema.views(vector)
        return self.flat_vector

    def layer_state(self, layer: str) -> "OrderedDict[str, np.ndarray]":
        """The sub-state belonging to one layer group."""
        names = self.layers.get(layer)
        if names is None:
            raise KeyError(f"unknown layer {layer!r}; have {list(self.layers)}")
        return OrderedDict((name, self.state[name]) for name in names)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def delta(self, reference: dict) -> "OrderedDict[str, np.ndarray]":
        """Gradient direction relative to ``reference`` (θ_local − θ_broadcast).

        This is the fingerprint ∇Sim consumes (§5): the direction in which the
        participant's local data pulled the broadcast model.
        """
        return state_delta(self.state, reference)

    def copy(self) -> "ModelUpdate":
        return replace(
            self,
            state=OrderedDict((k, v.copy()) for k, v in self.state.items()),
            flat_vector=None,
        )

    def with_state(self, state: "OrderedDict[str, np.ndarray]") -> "ModelUpdate":
        return replace(self, state=state, flat_vector=None)

    def __repr__(self) -> str:
        return (
            f"ModelUpdate(sender={self.sender_id}, apparent={self.apparent_id}, "
            f"round={self.round_index}, params={len(self.state)})"
        )


def state_delta(state: dict, reference: dict) -> "OrderedDict[str, np.ndarray]":
    """Per-parameter difference ``state − reference``.

    Computed as one vectorized subtract into a single flat buffer; the
    returned per-parameter arrays are views into it (bit-identical to the
    per-parameter subtract).
    """
    if set(state) != set(reference):
        raise KeyError("state and reference have different parameter sets")
    schema = schema_of(state)
    vector = np.empty(schema.total_size, dtype=np.float32)
    out = schema.views(vector)
    for name, view in out.items():
        np.subtract(
            np.asarray(state[name], dtype=np.float32),
            np.asarray(reference[name], dtype=np.float32),
            out=view,
        )
    return out


def aggregate_states(states: list[dict], weights: list[float] | None = None) -> "OrderedDict[str, np.ndarray]":
    """Weighted mean of parameter states (FedAvg's column-mean ``Agr``, §4.2).

    With ``weights=None`` this is the plain mean the utility-equivalence proof
    assumes.  Runs on the flat plane — one ``(N, D)`` matrix, one reduction —
    and is bit-identical to the per-parameter stacked mean.
    """
    if not states:
        raise ValueError("cannot aggregate an empty state list")
    if weights is not None:
        if len(weights) != len(states):
            raise ValueError(f"{len(weights)} weights for {len(states)} states")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
    from .flat import flat_mean

    schema = schema_of(states[0])
    for other in states[1:]:
        if tuple(other.keys()) != schema.names:
            raise KeyError("all states must share the same parameter schema")
        if not schema.matches(other):
            raise ValueError("all states must share the same parameter shapes")
    rows = [schema.pack(state) for state in states]
    return schema.views(flat_mean(rows, schema, weights))


def update_weights(
    updates: list[ModelUpdate],
    sample_weighted: bool = False,
    staleness_alpha: float | None = None,
) -> list[float] | None:
    """Per-update aggregation weights, or ``None`` for the plain mean.

    ``sample_weighted`` scales by each update's ``num_samples`` (classical
    FedAvg).  ``staleness_alpha`` additionally applies the FedBuff-style
    polynomial discount ``(1 + staleness) ** -alpha`` to updates that carry
    ``staleness`` metadata (buffered-async rounds); fresh updates keep weight
    1, so a round where everything arrived on time aggregates exactly like
    the plain mean.
    """
    if not sample_weighted and staleness_alpha is None:
        return None
    from .scenario import staleness_weight

    weights: list[float] = []
    for update in updates:
        weight = float(update.num_samples) if sample_weighted else 1.0
        if staleness_alpha is not None:
            weight *= staleness_weight(int(update.metadata.get("staleness", 0)), staleness_alpha)
        weights.append(weight)
    if staleness_alpha is not None and not sample_weighted and all(w == 1.0 for w in weights):
        return None  # nothing stale: keep the unweighted (bit-identical) path
    return weights


def layerwise_staleness_mean(
    updates: list[ModelUpdate],
    staleness_alpha: float,
    sample_weighted: bool = False,
) -> "OrderedDict[str, np.ndarray]":
    """Staleness-weighted mean with *per-parameter* weights (MixNN passthrough).

    A MixNN chimera is composed of layers from different source updates, each
    with its own lateness; its ``param_staleness`` metadata (written by
    :meth:`~repro.mixnn.proxy.MixNNProxy._compose`) maps each parameter name
    to its source's staleness.  This aggregation discounts every parameter
    span by its own ``(1 + s) ** -alpha`` weight — so a chimera whose conv
    layer is fresh but whose head is three rounds old contributes fully in
    the former and is down-weighted only in the latter.  Updates without the
    metadata fall back to their scalar ``staleness`` uniformly, which makes
    the result identical to :func:`aggregate_updates` for unmixed batches.
    """
    from .flat import flat_rows
    from .scenario import staleness_weight

    schema = schema_of(updates[0].state)
    rows = flat_rows(updates, schema)
    numerator = np.zeros(schema.total_size, dtype=np.float32)
    denominator = np.zeros(schema.total_size, dtype=np.float32)
    weight_row = np.empty(schema.total_size, dtype=np.float32)
    for update, row in zip(updates, rows):
        base = float(update.num_samples) if sample_weighted else 1.0
        scalar = staleness_weight(int(update.metadata.get("staleness", 0)), staleness_alpha)
        weight_row.fill(base * scalar)
        per_param = update.metadata.get("param_staleness")
        if per_param:
            for name, staleness in per_param.items():
                start, end = schema.span(name)
                weight_row[start:end] = base * staleness_weight(
                    int(staleness), staleness_alpha
                )
        numerator += row * weight_row
        denominator += weight_row
    if not np.all(denominator > 0):
        raise ValueError("weights must sum to a positive value in every parameter")
    return schema.views(numerator / denominator)


def aggregate_updates(
    updates: list[ModelUpdate],
    sample_weighted: bool = False,
    staleness_alpha: float | None = None,
) -> "OrderedDict[str, np.ndarray]":
    """Aggregate updates; plain mean by default (paper §4.2).

    ``staleness_alpha`` enables staleness-aware down-weighting for
    buffered-async rounds — see :func:`update_weights`.  Batches containing
    MixNN chimeras with ``param_staleness`` metadata take the per-layer
    weighting of :func:`layerwise_staleness_mean` instead of one scalar
    weight per update.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    if staleness_alpha is not None and any(
        "param_staleness" in u.metadata for u in updates
    ):
        return layerwise_staleness_mean(updates, staleness_alpha, sample_weighted)
    weights = update_weights(updates, sample_weighted, staleness_alpha)
    if weights is not None:
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
    from .flat import flat_mean, flat_rows

    schema = schema_of(updates[0].state)
    rows = flat_rows(updates, schema)
    return schema.views(flat_mean(rows, schema, weights))
