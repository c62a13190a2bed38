"""Federated clients (participants).

Each round, a client receives the broadcast model state, refines it locally
on its private data (step ❷ of Figure 2 — Adam, a configured number of local
epochs and batch size, per §6.1.4), and returns a :class:`ModelUpdate` with
the refined parameters.

:func:`local_sgd` is the one local-training loop.  A client trains alone
through :func:`train_locally`, which runs the loop on its own model; the
cohort-batched plane (:mod:`repro.federated.cohort`) runs the same loop on a
model stacked over a leading client axis.  ∇Sim's reference models
(:mod:`repro.attacks.background`) train through :func:`train_locally` too,
with the participants' own recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.base import ArrayDataset, ClientDataset
from ..nn import Adam, GradTape, Module, Tensor, no_grad
from ..nn import functional as F
from ..utils.rng import rng_from_seed, stable_seed
from .update import ModelUpdate

__all__ = [
    "LocalTrainingConfig",
    "FederatedClient",
    "ClientPopulation",
    "epoch_batches",
    "local_sgd",
    "train_locally",
    "train_rows_into",
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


def train_rows_into(
    population: "ClientPopulation",
    slot_client_pairs,
    broadcast_state: dict,
    round_index: int,
    schema,
    rows: np.ndarray,
) -> list[tuple[int, int, float]]:
    """Train a cohort slice and pack each refined state into its row slot.

    The workhorse of the sharded data plane, shared verbatim by the inline
    backend and the spawn workers so both execute identical float operations:
    each ``(slot, client_id)`` pair trains through the population's ordinary
    :meth:`FederatedClient.local_update` (whose RNG is a pure function of
    ``(seed, client_id, round)``) and its parameters land in ``rows[slot]``
    in schema order — the same bytes a serial round's update would carry.

    Returns per-slot ``(client_id, num_samples, final_loss)`` bookkeeping in
    input order.
    """
    out: list[tuple[int, int, float]] = []
    for slot, client_id in slot_client_pairs:
        client = population.get(client_id)
        update = client.local_update(broadcast_state, round_index)
        schema.write_into(rows[slot], update.state)
        out.append((client_id, update.num_samples, update.metadata["final_loss"]))
    return out


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
    """One participant: local data + a model replica + training config.

    The model replica is built lazily on first use: with per-round client
    subsampling, participants that are never selected never pay for weight
    initialization.  Each client owns its replica and derives its training
    RNG from ``(seed, client_id, round_index)`` alone, so ``local_update``
    calls for *different* clients are thread-safe and order-independent —
    the property the simulation's parallel round engine relies on.
    """

    def __init__(
        self,
        data: ClientDataset,
        model_fn: Callable[[np.random.Generator], Module],
        config: LocalTrainingConfig,
        seed: int = 0,
    ) -> None:
        self.data = data
        self.config = config
        self.seed = seed
        self._model_fn = model_fn
        self._model: Module | None = None

    @property
    def model(self) -> Module:
        """The client's model replica, constructed on first access.

        Initial weights are immediately overwritten by the first broadcast;
        a fixed-seed build keeps construction deterministic regardless.
        """
        if self._model is None:
            self._model = self._model_fn(rng_from_seed(self.seed))
        return self._model

    @property
    def client_id(self) -> int:
        return self.data.client_id

    def local_update(self, broadcast_state: dict, round_index: int) -> ModelUpdate:
        """Refine the broadcast model on local data; return the new state."""
        self.model.load_state_dict(broadcast_state)
        rng = rng_from_seed(stable_seed(self.seed, self.client_id, round_index))
        loss = train_locally(self.model, self.data.train, self.config, rng)
        return ModelUpdate(
            sender_id=self.client_id,
            round_index=round_index,
            state=self.model.state_dict(),
            num_samples=len(self.data.train),
            metadata={"final_loss": loss},
        )


class ClientPopulation:
    """The client plane as a descriptor table: participants materialize on
    demand and release after their round.

    A population stores one *descriptor* per client — its id and a way to
    build its data shard — and constructs the heavyweight
    :class:`FederatedClient` (model replica + dataset view) only when a round
    actually selects the client.  Every stochastic decision about a client
    (selection, churn, latency, faults, poison, the training RNG itself) is a
    pure function of ``(seed, client_id, round)``, so an unmaterialized
    client costs zero RNG work and a client materialized in round 7 trains
    bit-identically to one that has lived since round 0: the broadcast state
    overwrites the replica's weights and the optimizer is built per call.

    Retention modes:

    * ``retain=True`` (eager datasets) — materialized clients persist for
      the run, so replicas are reused across rounds: the legacy behavior,
      taken automatically for datasets that pre-build their client list.
    * ``retain=False`` (lazy populations) — :meth:`release` drops the
      replica and the shard once the round is done, bounding peak memory by
      the materialized cohort instead of the population size.

    ``data_fn(client_id)`` must return the client's
    :class:`~repro.data.base.ClientDataset`; for lazy populations it is
    re-invoked on every materialization and must be deterministic.
    """

    def __init__(
        self,
        size: int,
        data_fn: Callable[[int], ClientDataset],
        model_fn: Callable[[np.random.Generator], Module],
        config: LocalTrainingConfig,
        seed: int = 0,
        retain: bool = True,
        client_ids=None,
    ) -> None:
        if size < 1:
            raise ValueError(f"a population needs at least 1 client, got {size}")
        self._data_fn = data_fn
        self._model_fn = model_fn
        self._config = config
        self._seed = seed
        self._retain = retain
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
            len(datasets), by_id.__getitem__, model_fn, config,
            seed=seed, retain=True, client_ids=ids,
        )

    @classmethod
    def for_dataset(cls, dataset, model_fn, config, seed: int = 0) -> "ClientPopulation":
        """The right population for a dataset: descriptor-backed when the
        dataset is a lazy population (``lazy_population`` attribute), eager
        over ``dataset.clients()`` otherwise."""
        if getattr(dataset, "lazy_population", False):
            return cls(
                dataset.num_clients, dataset.client_data, model_fn, config,
                seed=seed, retain=False,
            )
        return cls.from_client_data(dataset.clients(), model_fn, config, seed=seed)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"ClientPopulation(size={len(self._ids)}, materialized={len(self._cache)}, "
            f"retain={self._retain})"
        )

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
            client = FederatedClient(
                self._data_fn(client_id), self._model_fn, self._config, seed=self._seed
            )
            self._cache[client_id] = client
            if len(self._cache) > self.peak_materialized:
                self.peak_materialized = len(self._cache)
        return client

    def materialize(self, client_ids) -> list[FederatedClient]:
        """Materialize a cohort, in the given (deterministic) order."""
        return [self.get(client_id) for client_id in client_ids]

    def release(self, client_ids=None) -> None:
        """Drop materialized clients (all of them when ``client_ids`` is
        ``None``).  A no-op for retaining populations, where replica reuse
        across rounds is the point."""
        if self._retain:
            return
        if client_ids is None:
            self._cache.clear()
        else:
            for client_id in client_ids:
                self._cache.pop(client_id, None)
