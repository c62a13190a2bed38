"""Adversary background knowledge: reference-model construction (§3, §5).

The aggregation server "is able to collect or to use a public dataset with
similar raw data (including the sensitive attribute)".  For each sensitive
class it trains an *attack model* on data from that class only; ∇Sim then
compares participants' gradient directions against the directions induced by
these reference models.

Figure 8 varies how much auxiliary data the adversary holds; the ``ratio``
argument of :func:`build_reference_states` implements that sweep over
background users.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..data.base import ClientDataset
from ..data.partition import background_subset, clients_by_attribute, merge_clients
from ..federated.client import LocalTrainingConfig, train_locally
from ..nn import Module
from ..utils.rng import rng_from_seed

__all__ = ["build_reference_states", "reference_delta_matrix"]


def build_reference_states(
    broadcast_state: dict,
    background_clients: list[ClientDataset],
    model_fn: Callable[[np.random.Generator], Module],
    config: LocalTrainingConfig,
    rng: np.random.Generator,
    ratio: float = 1.0,
    attack_epochs: int | None = None,
) -> dict[int, dict]:
    """Train one reference model per sensitive-attribute class.

    Each reference model starts from the *broadcast* model (exactly what a
    participant of that class would refine) and trains on the pooled data of
    the selected background users of that class.  ``attack_epochs`` defaults
    to the participants' own local-epoch count; the paper trains attack
    models for 5 learning rounds, exposed here as a multiple of local epochs.

    Returns ``{attribute_class: reference_state}``.
    """
    if ratio < 1.0:
        background_clients = background_subset(background_clients, ratio, rng)
    grouped = clients_by_attribute(background_clients)
    if len(grouped) < 2:
        raise ValueError(f"need background data for >=2 attribute classes, have {len(grouped)}")
    epochs = attack_epochs if attack_epochs is not None else config.local_epochs
    attack_config = LocalTrainingConfig(
        local_epochs=epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
    )
    references: dict[int, dict] = {}
    model = model_fn(rng_from_seed(0))
    for attribute, members in grouped.items():
        pooled = merge_clients(members)
        model.load_state_dict(broadcast_state)
        train_locally(model, pooled, attack_config, rng)
        references[attribute] = model.state_dict()
    return references


def reference_delta_matrix(
    reference_states: dict[int, dict], broadcast_state: dict
) -> tuple[list[int], np.ndarray]:
    """All class directions as one ``(K, D)`` float32 matrix.

    Returns ``(attributes, matrix)`` with row ``i`` the flat gradient
    direction of class ``attributes[i]`` — the right-hand operand of the
    ∇Sim scoring matmul (:func:`repro.attacks.gradsim.score_updates`).
    """
    from ..federated.flat import FlatUpdateBatch
    from ..nn.serialization import schema_of

    attributes = list(reference_states)
    schema = schema_of(broadcast_state)
    batch = FlatUpdateBatch.from_states(
        [reference_states[attribute] for attribute in attributes], schema=schema
    )
    return attributes, batch.deltas(broadcast_state)
