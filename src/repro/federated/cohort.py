"""Cohort-batched local training: one stacked forward/backward per round.

Every selected client shares one architecture, so a round's local training
is M independent instances of the same small computation.  This module stacks
them: the cohort's weights live in one ``(M, D)`` flat block (rows in
:class:`~repro.nn.serialization.StateSchema` order, exactly the row layout of
the sharded data plane), and :func:`build_cohort_model` copies the template's
ordinary layers with ``(M, *shape)`` parameters that are zero-copy views into
that block.  The kernels of :mod:`repro.nn.functional` take the leading
client axis as they are, and the one local-training loop,
:func:`~repro.federated.client.local_sgd`, trains the stacked model exactly
as it trains a single client's: same batch schedule, same tape, same
in-place Adam.

Numerical contract (also in README "Cohort-batched training"):

* Clients whose architecture uses only ``Linear`` / ``Conv2d`` /
  ``LocallyConnected2d`` / pooling / ``Flatten`` / elementwise activations
  and the softmax cross-entropy loss (e.g. ``linear_probe``, ``paper_cnn``,
  ``deepface_like``) train **bit-identically** to the serial
  :func:`~repro.federated.client.train_locally` path: broadcast
  ``np.matmul`` dispatches one 2-D GEMM per leading slice with the same
  accumulation order as the serial call, and the locally connected kernel
  runs its serial einsums once per slice.
* Per-client batch sampling is *exactly* the serial schedule: the same
  ``rng_from_seed(stable_seed(seed, client_id, round))`` generator drawing
  ``permutation(n)`` once per epoch.

Clients with different local dataset sizes have different batch schedules, so
the trainer groups the cohort by training-set size and runs one stacked pass
per group; per-client results do not depend on the grouping.
"""

from __future__ import annotations

import copy
from collections import OrderedDict

import numpy as np

from ..nn import Module, Parameter, Sequential
from ..nn.layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    LocallyConnected2d,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from ..nn.serialization import StateSchema
from ..utils.rng import rng_from_seed, stable_seed
from .client import ClientPopulation, local_sgd
from .update import ModelUpdate

__all__ = ["CohortBatchingError", "CohortTrainer", "build_cohort_model"]


class CohortBatchingError(TypeError):
    """The model architecture cannot be trained in cohort-batched mode."""


#: layers whose forward pass takes a leading client axis as it is (not
#: ``Dropout``: its mask comes from per-replica RNG state)
_STACKABLE = (
    Linear, Conv2d, LocallyConnected2d, MaxPool2d, AvgPool2d, Flatten, ReLU, Tanh, Sigmoid
)


def validate_cohort_template(template: Module) -> None:
    """Raise :class:`CohortBatchingError` if ``template`` cannot be stacked."""
    if not isinstance(template, Sequential):
        raise CohortBatchingError(
            f"cohort batching requires a Sequential model, got {type(template).__name__}"
        )
    for layer in template:
        if not isinstance(layer, _STACKABLE):
            raise CohortBatchingError(
                f"layer {type(layer).__name__} cannot be stacked over a client axis; "
                "train with cohort_batching=False"
            )


def build_cohort_model(template: Sequential, block: np.ndarray, schema: StateSchema) -> Module:
    """``template`` stacked over the rows of an ``(M, D)`` flat weight block.

    Each layer is a shallow copy of the template's whose parameters are
    zero-copy ``(M, *shape)`` views into ``block`` — training writes straight
    through, so after the local loop row ``m`` of ``block`` *is* client
    ``m``'s refined flat state.
    """
    validate_cohort_template(template)
    m = block.shape[0]
    layers: list[Module] = []
    for index, layer in enumerate(template):
        stacked = copy.copy(layer)
        stacked._parameters = OrderedDict()  # the template keeps its own table
        for name in layer._parameters:
            offset, size, shape = schema._index[f"layer{index}.{name}"]
            view = block[:, offset : offset + size].reshape((m,) + tuple(shape))
            setattr(stacked, name, Parameter(view))
        if isinstance(layer, Flatten):
            stacked.start_dim = layer.start_dim + 1
        layers.append(stacked)
    return Sequential(*layers)


class CohortTrainer:
    """Trains a round's cohort as stacked ``(M, ...)`` batched passes.

    Drop-in companion to :func:`~repro.federated.client.train_rows_into`:
    :meth:`train_rows` has the same slot/row contract (refined flat states
    land in ``rows[slot]``, bookkeeping returned in input order), so both the
    serial simulation path and the sharded plane's :class:`ShardWorker` can
    route through it unchanged.
    """

    def __init__(self, population: ClientPopulation, schema: StateSchema) -> None:
        self.population = population
        self.schema = schema
        self._model_fn = population.model_fn
        self._config = population.local_config
        self._seed = population.seed
        #: architecture template (weights irrelevant — overwritten by the
        #: broadcast block); built once, validated once.
        self.template = self._model_fn(rng_from_seed(self._seed))
        validate_cohort_template(self.template)

    # ------------------------------------------------------------------
    # Row-plane entry points
    # ------------------------------------------------------------------
    def train_rows(
        self,
        slot_client_pairs,
        broadcast_state: dict,
        round_index: int,
        rows: np.ndarray,
    ) -> list[tuple[int, int, float]]:
        """Train a cohort slice, landing refined states in ``rows[slot]``.

        Same contract as :func:`~repro.federated.client.train_rows_into`:
        returns ``(client_id, num_samples, final_loss)`` in input order.
        """
        pairs = list(slot_client_pairs)
        datasets = [self.population.get(client_id).data.train for _, client_id in pairs]
        out: list[tuple[int, int, float] | None] = [None] * len(pairs)

        # Stack clients with equal training-set size (identical batch
        # schedules); grouping is by first appearance and does not affect
        # per-client results.
        groups: dict[int, list[int]] = {}
        for position, dataset in enumerate(datasets):
            groups.setdefault(len(dataset), []).append(position)

        broadcast_row = self.schema.pack(broadcast_state)
        seed = self._seed
        for n, positions in groups.items():
            m = len(positions)
            block = np.repeat(broadcast_row[None, :], m, axis=0)
            features = np.stack([datasets[p].features for p in positions])
            labels = np.stack([datasets[p].labels for p in positions])
            rngs = [
                rng_from_seed(stable_seed(seed, pairs[p][1], round_index)) for p in positions
            ]
            model = build_cohort_model(self.template, block, self.schema)
            losses = local_sgd(model, features, labels, self._config, rngs)
            for j, p in enumerate(positions):
                slot, client_id = pairs[p]
                rows[slot] = block[j]
                out[p] = (client_id, n, float(losses[j]))
        return out  # type: ignore[return-value]

    def train_updates(
        self, client_ids, broadcast_state: dict, round_index: int
    ) -> list[ModelUpdate]:
        """Train a cohort and return flat-backed updates in cohort order.

        The non-sharded simulation entry point: each update's ``state`` holds
        zero-copy views into its own row of one fresh ``(M, D)`` plane.
        """
        cohort = [int(c) for c in client_ids]
        rows = np.empty((len(cohort), self.schema.total_size), dtype=np.float32)
        metas = self.train_rows(
            list(enumerate(cohort)), broadcast_state, round_index, rows
        )
        updates = []
        for slot, (client_id, num_samples, final_loss) in enumerate(metas):
            row = rows[slot]
            updates.append(
                ModelUpdate(
                    sender_id=client_id,
                    round_index=round_index,
                    state=self.schema.views(row),
                    num_samples=num_samples,
                    metadata={"final_loss": final_loss},
                    flat_vector=row,
                )
            )
        return updates
