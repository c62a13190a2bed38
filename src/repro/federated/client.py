"""Federated clients (participants).

Each round, a client receives the broadcast model state, refines it locally
on its private data (step ❷ of Figure 2 — Adam, a configured number of local
epochs and batch size, per §6.1.4), and returns a
:class:`~repro.federated.update.ModelUpdate` with the refined parameters.

:func:`local_sgd` is the one local-training loop.  The round's trainer
(:class:`~repro.federated.cohort.CohortTrainer`) runs it on a model whose
parameters view the client's own row of the round's weight plane, or a
stack of equal-size clients' rows.  :func:`train_locally` runs it on a
model that owns its weights: ∇Sim's reference models
(:mod:`repro.attacks.background`) train through it with the participants'
own recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.base import ArrayDataset, ClientDataset
from ..nn import Adam, GradTape, Module, Tensor, no_grad
from ..nn import functional as F

__all__ = [
    "LocalTrainingConfig",
    "FederatedClient",
    "ClientPopulation",
    "epoch_batches",
    "local_sgd",
    "train_locally",
    "evaluate_accuracy",
]


@dataclass(frozen=True)
class LocalTrainingConfig:
    """Local-training hyperparameters (paper §6.1.4 per-dataset values)."""

    local_epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def epoch_batches(rngs, n: int, batch_size: int, lead: tuple[int, ...] = ()) -> list[np.ndarray]:
    """One epoch's batch schedule for every client of a (possibly stacked) model.

    Client ``i`` draws ``rngs[i].permutation(n)`` once and takes its samples
    in that order, ``batch_size`` at a time (the last batch may be short), so
    each sample is seen exactly once per epoch.  Returns the index batches,
    each of shape ``(*lead, <= batch_size)``, with ``rngs`` in ``lead``'s
    row-major order.
    """
    orders = np.stack([rng.permutation(n) for rng in rngs]).reshape(*lead, n)
    return [orders[..., start : start + batch_size] for start in range(0, n, batch_size)]


def local_sgd(
    model: Module,
    features: np.ndarray,
    labels: np.ndarray,
    config: LocalTrainingConfig,
    rngs,
) -> np.ndarray:
    """The local-training loop: Adam on the softmax cross-entropy, in place.

    ``model`` is an ordinary model (``labels`` of shape ``(n,)``) or one
    whose parameters carry leading client axes ``L`` (``labels`` of shape
    ``(*L, n)``, ``features`` ``(*L, n, ...)``); ``rngs`` holds one generator
    per client.  Every step records on a :class:`~repro.nn.GradTape` and
    backpropagates by one reverse walk of it.  Returns the last batch's
    loss per client, an array of shape ``L`` (NaN when ``n == 0``).
    """
    model.train()
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    lead, n = labels.shape[:-1], labels.shape[-1]
    # Open-mesh client indices: ``features[rows + (idx,)]`` gathers each
    # client's own batch; ``rows`` is empty for an ordinary model.
    rows = tuple(axis[..., None] for axis in np.ix_(*map(np.arange, lead)))
    seed = np.ones(lead, dtype=np.float32)
    last_losses = np.full(lead, np.nan, dtype=np.float32)
    tape = GradTape()
    for _ in range(config.local_epochs):
        for idx in epoch_batches(rngs, n, config.batch_size, lead):
            batch = rows + (idx,)
            with tape:
                loss = F.cross_entropy(model(Tensor(features[batch])), labels[batch])
            optimizer.zero_grad()
            tape.backward(loss, seed)
            optimizer.step()
            tape.clear()
            last_losses = loss.data
    return last_losses


def train_locally(
    model: Module,
    dataset: ArrayDataset,
    config: LocalTrainingConfig,
    rng: np.random.Generator,
) -> float:
    """Run :func:`local_sgd` on one model in place; return the final batch loss."""
    return float(local_sgd(model, dataset.features, dataset.labels, config, [rng]))


def evaluate_accuracy(model: Module, dataset: ArrayDataset, batch_size: int = 256) -> float:
    """Top-1 classification accuracy of ``model`` on ``dataset``."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    model.eval()
    correct = 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            features = dataset.features[start : start + batch_size]
            labels = dataset.labels[start : start + batch_size]
            logits = model(Tensor(features))
            correct += int((logits.numpy().argmax(axis=1) == labels).sum())
    return correct / len(dataset)


class FederatedClient:
    """One materialized participant: its data shard and its id.

    A client holds no model: the round's trainer
    (:class:`~repro.federated.cohort.CohortTrainer`) trains it as a view of
    its own row of the round's weight plane, with a training RNG derived
    from ``(seed, client_id, round_index)`` alone.
    """

    def __init__(self, data: ClientDataset) -> None:
        self.data = data

    @property
    def client_id(self) -> int:
        return self.data.client_id


class ClientPopulation:
    """The client plane as a descriptor table: participants materialize on
    demand and release after their round.

    A population stores one *descriptor* per client — its id and a way to
    build its data shard — and constructs the :class:`FederatedClient` only
    when a round actually selects the client.  Every stochastic decision
    about a client (selection, churn, latency, faults, poison, the training
    RNG itself) is a pure function of ``(seed, client_id, round)``, so an
    unmaterialized client costs zero RNG work and a client materialized in
    round 7 trains bit-identically to one materialized in round 0.
    :meth:`release` drops the round's cohort once its updates are merged,
    eager and lazy datasets alike, so peak memory is bounded by the
    materialized cohort instead of the population size.

    ``data_fn(client_id)`` must return the client's
    :class:`~repro.data.base.ClientDataset`; it is re-invoked on every
    materialization and must be deterministic.
    """

    def __init__(
        self,
        size: int,
        data_fn: Callable[[int], ClientDataset],
        model_fn: Callable[[np.random.Generator], Module],
        config: LocalTrainingConfig,
        seed: int = 0,
        client_ids=None,
    ) -> None:
        if size < 1:
            raise ValueError(f"a population needs at least 1 client, got {size}")
        self._data_fn = data_fn
        self._model_fn = model_fn
        self._config = config
        self._seed = seed
        # range() keeps the id table O(1) memory for the common contiguous
        # case (lazy populations require client_id == index).
        self._ids = client_ids if client_ids is not None else range(size)
        if len(self._ids) != size:
            raise ValueError(f"got {len(self._ids)} client ids for a population of {size}")
        self._cache: dict[int, FederatedClient] = {}
        #: high-water mark of simultaneously materialized clients — the
        #: memory-bound the benchmarks and the scale tests assert on
        self.peak_materialized = 0

    @classmethod
    def from_client_data(cls, datasets, model_fn, config, seed: int = 0) -> "ClientPopulation":
        """Eager population over pre-built :class:`ClientDataset` shards."""
        ids = [data.client_id for data in datasets]
        by_id = {data.client_id: data for data in datasets}
        if len(by_id) != len(datasets):
            raise ValueError("client ids must be unique within a population")
        return cls(
            len(datasets), by_id.__getitem__, model_fn, config, seed=seed, client_ids=ids
        )

    @classmethod
    def for_dataset(cls, dataset, model_fn, config, seed: int = 0) -> "ClientPopulation":
        """The right population for a dataset: descriptor-backed when the
        dataset is a lazy population (``lazy_population`` attribute), eager
        over ``dataset.clients()`` otherwise."""
        if getattr(dataset, "lazy_population", False):
            return cls(dataset.num_clients, dataset.client_data, model_fn, config, seed=seed)
        return cls.from_client_data(dataset.clients(), model_fn, config, seed=seed)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return f"ClientPopulation(size={len(self._ids)}, materialized={len(self._cache)})"

    @property
    def materialized(self) -> int:
        """How many clients are materialized right now."""
        return len(self._cache)

    @property
    def model_fn(self):
        """The population's model factory (shared by every client)."""
        return self._model_fn

    @property
    def local_config(self) -> LocalTrainingConfig:
        """The population's local-training hyperparameters."""
        return self._config

    @property
    def seed(self) -> int:
        """The population's base seed (training RNGs derive from it)."""
        return self._seed

    def client_ids(self, indices) -> list[int]:
        """Map population indices (the selection RNG's draw space) to ids."""
        ids = self._ids
        return [ids[i] for i in indices]

    def get(self, client_id: int) -> FederatedClient:
        """The client, materializing (and caching) it if needed."""
        client = self._cache.get(client_id)
        if client is None:
            client = FederatedClient(self._data_fn(client_id))
            self._cache[client_id] = client
            if len(self._cache) > self.peak_materialized:
                self.peak_materialized = len(self._cache)
        return client

    def release(self, client_ids) -> None:
        """Drop the given clients' shards (the round is done with them)."""
        for client_id in client_ids:
            self._cache.pop(client_id, None)
