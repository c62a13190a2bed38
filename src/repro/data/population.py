"""Population-scale lazy datasets: client shards as descriptors.

Every eager :class:`~repro.data.federated.FederatedDataset` builds its whole
client list up front — fine for the paper's 60-to-256-participant cohorts,
fatal for the million-client federations the middleware is pitched at.  A
:class:`LazyFederatedDataset` stores no per-client state at all: a client is
the *ability* to build its :class:`~repro.data.base.ClientDataset` from
``(seed, client_id)`` alone, and :meth:`client_data` does so on demand.  The
:class:`~repro.federated.client.ClientPopulation` materializes shards only
for the rounds that select them and releases them after the merge, so peak
memory is bounded by the active cohort, never the population size.

:class:`SyntheticPopulation` is the concrete simulator behind the 1M-client
benchmark: Gaussian class-prototype features, per-shard label mixtures drawn
with :func:`~repro.data.partition.shard_label_counts` (IID or Dirichlet
non-IID), everything a pure function of ``(seed, client_id)``.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import rng_from_seed, stable_seed
from .base import ArrayDataset, ClientDataset
from .federated import FederatedDataset
from .partition import shard_label_counts

__all__ = ["LazyFederatedDataset", "SyntheticPopulation"]


class LazyFederatedDataset(FederatedDataset):
    """A federated dataset whose participants exist only as descriptors.

    Subclasses set :attr:`population_size` and implement
    :meth:`client_data(client_id)` as a pure function of ``(seed,
    client_id)`` with ``client_id == population index`` (the selection RNG
    draws indices).  ``clients()`` still works for small populations — tests,
    attacks, per-client accuracy tracking — but refuses to materialize more
    than :attr:`max_materializable` shards at once rather than silently
    defeating the memory bound.
    """

    #: marker consumed by ClientPopulation.for_dataset
    lazy_population = True
    #: clients() ceiling — materializing the full list above this is almost
    #: certainly a bug (use the lazy protocol instead)
    max_materializable = 100_000

    population_size: int

    @property
    def num_clients(self) -> int:  # without materializing, unlike the base
        return self.population_size

    def client_data(self, client_id: int) -> ClientDataset:
        """Build one client's shard; pure in ``(self.seed, client_id)``."""
        raise NotImplementedError

    def _build_clients(self) -> list[ClientDataset]:
        if self.population_size > self.max_materializable:
            raise RuntimeError(
                f"refusing to materialize all {self.population_size} clients of a "
                f"lazy population (ceiling {self.max_materializable}); go through "
                "ClientPopulation / client_data(client_id) instead"
            )
        return [self.client_data(client_id) for client_id in range(self.population_size)]


class SyntheticPopulation(LazyFederatedDataset):
    """Million-client synthetic federation with zero per-client storage.

    Features are noisy copies of per-class Gaussian prototypes in
    ``num_features`` dimensions (a linear probe separates them, so utility
    curves stay meaningful at any scale); labels per shard come from
    :func:`~repro.data.partition.shard_label_counts` — uniform when ``alpha``
    is ``None``, Dirichlet(α)-skewed otherwise.  A shard is rebuilt
    bit-identically every time ``client_data`` is called with the same id,
    which is what lets the population release shards between rounds.

    The sensitive ``attribute`` is the shard's dominant label class, same
    convention as :class:`~repro.data.federated.DirichletReshard`.
    """

    name = "population"
    attribute_name = "dominant class"

    def __init__(
        self,
        population_size: int = 1_000_000,
        num_features: int = 16,
        num_classes: int = 4,
        samples_per_client: int = 8,
        test_samples: int = 2,
        alpha: float | None = None,
        noise_scale: float = 0.5,
        seed: int = 0,
    ) -> None:
        if population_size < 1:
            raise ValueError(f"population_size must be >= 1, got {population_size}")
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {num_features}")
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        if samples_per_client < 1:
            raise ValueError(f"samples_per_client must be >= 1, got {samples_per_client}")
        if test_samples < 1:
            raise ValueError(f"test_samples must be >= 1, got {test_samples}")
        if noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
        super().__init__(seed)
        self.population_size = int(population_size)
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.num_attribute_classes = int(num_classes)
        self.samples_per_client = int(samples_per_client)
        self.test_samples = int(test_samples)
        self.alpha = alpha
        self.noise_scale = float(noise_scale)
        self.input_shape = (self.num_features,)
        # The only population-wide state: one prototype vector per class.
        proto_rng = rng_from_seed(stable_seed(seed, "population-prototypes"))
        self._prototypes = proto_rng.standard_normal(
            (self.num_classes, self.num_features)
        ).astype(np.float32)
        #: sample count -> the unshuffled labels of a uniform (``alpha=None``)
        #: shard, the same for every client
        self._uniform_labels: dict[int, np.ndarray] = {}

    def _label_pool(self, rng: np.random.Generator, num_samples: int) -> np.ndarray:
        """A shard's labels before the shuffle, grouped by class."""
        if self.alpha is None and num_samples in self._uniform_labels:
            return self._uniform_labels[num_samples]
        counts = shard_label_counts(num_samples, self.num_classes, self.alpha, rng)
        pool = np.repeat(np.arange(self.num_classes), counts)
        if self.alpha is None:
            # Uniform counts draw nothing from ``rng``, so caching them
            # leaves every client's stream where it was.
            self._uniform_labels[num_samples] = pool
        return pool

    def _make_shard(self, rng: np.random.Generator, num_samples: int) -> ArrayDataset:
        labels = rng.permutation(self._label_pool(rng, num_samples))
        features = self._prototypes[labels] + self.noise_scale * rng.standard_normal(
            (num_samples, self.num_features)
        ).astype(np.float32)
        return ArrayDataset(features, labels)

    def _client(self, client_id: int, seed: int, metadata: dict) -> ClientDataset:
        """The client whose shard ``seed`` draws; train and test are views of it."""
        cut = self.samples_per_client
        shard = self._make_shard(rng_from_seed(seed), cut + self.test_samples)
        counts = np.bincount(shard.labels, minlength=self.num_classes)
        return ClientDataset(
            client_id=client_id,
            train=ArrayDataset(shard.features[:cut], shard.labels[:cut]),
            test=ArrayDataset(shard.features[cut:], shard.labels[cut:]),
            attribute=int(counts.argmax()),
            metadata=metadata,
        )

    def client_data(self, client_id: int) -> ClientDataset:
        if not 0 <= client_id < self.population_size:
            raise IndexError(
                f"client_id {client_id} outside population [0, {self.population_size})"
            )
        return self._client(
            client_id,
            stable_seed(self.seed, "population-client", client_id),
            {"population_size": self.population_size},
        )

    def _build_background(self) -> list[ClientDataset]:
        # A small disjoint cohort for attack tooling; ids beyond the
        # population so they can never collide with participants.
        return [
            self._client(
                self.population_size + index,
                stable_seed(self.seed, "population-background", index),
                {"background": True},
            )
            for index in range(32)
        ]

    def _build_test(self) -> ArrayDataset:
        rng = rng_from_seed(stable_seed(self.seed, "population-test"))
        labels = np.repeat(np.arange(self.num_classes), 64)
        features = self._prototypes[labels] + self.noise_scale * rng.standard_normal(
            (len(labels), self.num_features)
        ).astype(np.float32)
        return ArrayDataset(features, labels)
