"""Local training of a round's cohort: every client trains as a view of its row.

Every selected client shares one architecture, and a round's local training
lands each client's refined flat state in its own row of one ``(N, D)``
plane (rows in :class:`~repro.nn.serialization.StateSchema` order, exactly
the row layout of the sharded data plane).  :func:`build_cohort_model`
copies the template's ordinary layers with parameters that are zero-copy
views into a flat weight block of any leading shape ``L``: one client's own
output row (``L = ()``, an ordinary model) or an ``(M, D)`` stack of
equal-size clients (``L = (M,)``).  The kernels of :mod:`repro.nn.functional`
take the leading axes as they are, and the one local-training loop,
:func:`~repro.federated.client.local_sgd`, trains either exactly as it
trains a lone model: same batch schedule, same tape, same in-place Adam.

:class:`CohortTrainer` is the one trainer of the in-process simulation and
of every :class:`~repro.federated.sharding.ShardWorker` slice.  By default
each client trains alone, in place in its output row; with
``cohort_batching=True`` the trainer groups the cohort by training-set size
(identical batch schedules) and runs the loop once per group on a stacked
block.  With ``parallelism > 1`` a thread pool runs the groups.

Numerical contract (also in README "Cohort-batched training"):

* Clients whose architecture uses only ``Linear`` / ``Conv2d`` /
  ``LocallyConnected2d`` / pooling / ``Flatten`` / elementwise activations
  and the softmax cross-entropy loss (e.g. ``linear_probe``, ``paper_cnn``,
  ``deepface_like``) train **bit-identically** in either mode to
  :func:`~repro.federated.client.train_locally` on a fresh replica:
  broadcast ``np.matmul`` dispatches one 2-D GEMM per leading slice with
  the same accumulation order as the unstacked call, and the locally
  connected kernel runs its unstacked einsums once per slice.
* Per-client batch sampling is *exactly* the lone model's schedule: the
  same ``rng_from_seed(stable_seed(seed, client_id, round))`` generator
  drawing ``permutation(n)`` once per epoch.  Per-client results depend on
  neither the grouping nor the thread that trains the group.
"""

from __future__ import annotations

import copy
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

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

__all__ = ["CohortBatchingError", "CohortTrainer", "build_cohort_model", "row_updates"]


class CohortBatchingError(TypeError):
    """The model architecture cannot train as a view of the weight-row plane."""


#: layers whose forward pass takes leading client axes as they are (not
#: ``Dropout``: its mask comes from per-layer RNG state, not the
#: ``(seed, client, round)`` hash, so two runs at one seed would differ)
_STACKABLE = (
    Linear, Conv2d, LocallyConnected2d, MaxPool2d, AvgPool2d, Flatten, ReLU, Tanh, Sigmoid
)


def validate_cohort_template(template: Module) -> None:
    """Raise :class:`CohortBatchingError` if the row plane cannot view ``template``."""
    if not isinstance(template, Sequential):
        raise CohortBatchingError(
            f"local training requires a Sequential model, got {type(template).__name__}"
        )
    for layer in template:
        if not isinstance(layer, _STACKABLE):
            raise CohortBatchingError(
                f"layer {type(layer).__name__} cannot train as a view of the "
                "weight-row plane"
            )


def build_cohort_model(template: Sequential, block: np.ndarray, schema: StateSchema) -> Module:
    """``template`` over a ``(*L, D)`` flat weight block of any leading shape.

    Each layer is a shallow copy of the template's whose parameters are
    zero-copy ``(*L, *shape)`` views into ``block`` — training writes straight
    through, so after the local loop ``block`` *is* the refined flat state:
    one client's row for ``L = ()``, client ``m``'s in row ``m`` of a stack.
    """
    validate_cohort_template(template)
    lead = block.shape[:-1]
    layers: list[Module] = []
    for index, layer in enumerate(template):
        stacked = copy.copy(layer)
        stacked._parameters = OrderedDict()  # the template keeps its own table
        for name in layer._parameters:
            offset, size, shape = schema._index[f"layer{index}.{name}"]
            view = block[..., offset : offset + size].reshape(lead + tuple(shape))
            setattr(stacked, name, Parameter(view))
        if isinstance(layer, Flatten):
            stacked.start_dim = layer.start_dim + len(lead)
        layers.append(stacked)
    return Sequential(*layers)


def row_updates(
    schema: StateSchema, rows: np.ndarray, metas, round_index: int
) -> list[ModelUpdate]:
    """One flat-backed update per trained row, in slot order.

    ``metas`` holds each row's ``(client_id, num_samples, final_loss)``; each
    update's ``state`` holds zero-copy views into its own row.
    """
    return [
        ModelUpdate(
            sender_id=client_id,
            round_index=round_index,
            state=schema.views(row),
            num_samples=num_samples,
            metadata={"final_loss": final_loss},
            flat_vector=row,
        )
        for row, (client_id, num_samples, final_loss) in zip(rows, metas)
    ]


class CohortTrainer:
    """Trains a cohort slice into its rows of the ``(N, D)`` plane.

    ``cohort_batching`` stacks equal-size clients into one block;
    ``parallelism`` is the thread count over the trainer's groups (``None``
    sizes the pool to the machine).  Each client's RNG derives from
    ``(seed, client_id, round)`` alone, so the rows do not depend on either.
    """

    def __init__(
        self,
        population: ClientPopulation,
        schema: StateSchema,
        cohort_batching: bool = False,
        parallelism: int | None = 1,
    ) -> None:
        self.population = population
        self.schema = schema
        self.cohort_batching = bool(cohort_batching)
        self.parallelism = parallelism
        self._config = population.local_config
        self._seed = population.seed
        #: architecture template (weights irrelevant — overwritten by the
        #: broadcast row); built once, validated before any client trains.
        self.template = population.model_fn(rng_from_seed(self._seed))
        validate_cohort_template(self.template)

    def train_rows(
        self,
        slot_client_pairs,
        broadcast_state: dict,
        round_index: int,
        rows: np.ndarray,
    ) -> list[tuple[int, int, float]]:
        """Train a cohort slice, landing refined states in ``rows[slot]``.

        Returns ``(client_id, num_samples, final_loss)`` in input order.
        """
        pairs = list(slot_client_pairs)
        datasets = [self.population.get(client_id).data.train for _, client_id in pairs]
        if self.cohort_batching:
            # Stack clients with equal training-set size (identical batch
            # schedules); grouping is by first appearance.
            by_size: dict[int, list[int]] = {}
            for position, dataset in enumerate(datasets):
                by_size.setdefault(len(dataset), []).append(position)
            groups = list(by_size.values())
        else:
            groups = [[position] for position in range(len(pairs))]
        broadcast_row = self.schema.pack(broadcast_state)
        out: list[tuple[int, int, float] | None] = [None] * len(pairs)

        def train_group(positions: list[int]) -> None:
            slots = [pairs[p][0] for p in positions]
            if self.cohort_batching:
                block = np.repeat(broadcast_row[None, :], len(positions), axis=0)
                features = np.stack([datasets[p].features for p in positions])
                labels = np.stack([datasets[p].labels for p in positions])
            else:
                # L = (): the client's model views its own output row.
                block = rows[slots[0]]
                block[:] = broadcast_row
                features, labels = datasets[positions[0]].features, datasets[positions[0]].labels
            rngs = [
                rng_from_seed(stable_seed(self._seed, pairs[p][1], round_index))
                for p in positions
            ]
            model = build_cohort_model(self.template, block, self.schema)
            losses = local_sgd(model, features, labels, self._config, rngs).reshape(-1)
            if self.cohort_batching:
                rows[slots] = block
            for p, loss in zip(positions, losses):
                out[p] = (pairs[p][1], len(datasets[p]), float(loss))

        workers = self.parallelism
        if workers is None:
            workers = min(len(groups), os.cpu_count() or 1)
        if workers > 1 and len(groups) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(train_group, groups))
        else:
            for positions in groups:
                train_group(positions)
        return out  # type: ignore[return-value]

    def train_updates(
        self, client_ids, broadcast_state: dict, round_index: int
    ) -> list[ModelUpdate]:
        """Train a cohort and return flat-backed updates in cohort order.

        The in-process simulation's entry point: the updates view the rows
        of one fresh ``(M, D)`` plane.
        """
        cohort = [int(c) for c in client_ids]
        rows = np.empty((len(cohort), self.schema.total_size), dtype=np.float32)
        metas = self.train_rows(list(enumerate(cohort)), broadcast_state, round_index, rows)
        return row_updates(self.schema, rows, metas, round_index)
