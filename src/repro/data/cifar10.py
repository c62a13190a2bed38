"""Synthetic CIFAR10 with preference-group participants.

Mirrors the paper's CIFAR10 setup (§6.1.1): 10 object classes; 20 artificial
participants split into 3 preference groups (6 / 6 / 8 participants) over
non-overlapping category sets; each participant's local data is 80 % images
from the preferred categories and 20 % random images from the others.  The
sensitive attribute ∇Sim infers is the participant's preference group
(random-guess accuracy 1/3 on a balanced inference task).

The real 32×32 RGB photographs are replaced by class-conditional smooth random
images (see :mod:`repro.data.synthetic`), by default 8×8 RGB so the full pipeline runs at
laptop/CI scale.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import rng_from_seed, stable_seed
from .base import ArrayDataset, ClientDataset
from .federated import FederatedDataset
from .synthetic import class_prototypes, noisy_sample

__all__ = ["SyntheticCIFAR10", "PREFERENCE_GROUPS"]

#: Non-overlapping preferred-category sets for the three groups.
PREFERENCE_GROUPS: tuple[tuple[int, ...], ...] = (
    (0, 1, 2, 3),
    (4, 5, 6),
    (7, 8, 9),
)

#: Paper's group sizes: "two groups gather 6 participants and the last one 8".
GROUP_SIZES: tuple[int, ...] = (6, 6, 8)


class SyntheticCIFAR10(FederatedDataset):
    """CIFAR10-like federated image-classification workload."""

    name = "cifar10"
    num_classes = 10
    num_attribute_classes = 3
    attribute_name = "preference group"

    def __init__(
        self,
        seed: int = 0,
        image_size: int = 8,
        samples_per_client: int = 60,
        test_samples_per_client: int = 12,
        background_clients_per_group: int = 4,
        preferred_fraction: float = 0.8,
        structured_noise: float = 0.45,
        white_noise: float = 0.25,
    ) -> None:
        super().__init__(seed)
        self.input_shape = (3, image_size, image_size)
        self.samples_per_client = samples_per_client
        self.test_samples_per_client = test_samples_per_client
        self.background_clients_per_group = background_clients_per_group
        self.preferred_fraction = preferred_fraction
        self.structured_noise = structured_noise
        self.white_noise = white_noise
        self._prototypes = class_prototypes(
            self.num_classes, self.input_shape, rng_from_seed(seed), smoothness=1.2
        )

    # ------------------------------------------------------------------
    # Sample generation
    # ------------------------------------------------------------------
    def _draw_labels(self, count: int, group: int, rng: np.random.Generator) -> np.ndarray:
        """Preference-skewed label sampling: 80 % preferred, 20 % others."""
        preferred = np.array(PREFERENCE_GROUPS[group])
        others = np.array([c for c in range(self.num_classes) if c not in set(preferred.tolist())])
        labels = np.where(
            rng.random(count) < self.preferred_fraction,
            rng.choice(preferred, size=count),
            rng.choice(others, size=count),
        )
        return labels.astype(np.int64)

    def _render(self, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.stack(
            [
                noisy_sample(
                    self._prototypes[label],
                    rng,
                    structured_noise=self.structured_noise,
                    white_noise=self.white_noise,
                )
                for label in labels
            ]
        )

    def _make_client(self, client_id: int, group: int, rng: np.random.Generator) -> ClientDataset:
        train_labels = self._draw_labels(self.samples_per_client, group, rng)
        test_labels = self._draw_labels(self.test_samples_per_client, group, rng)
        return ClientDataset(
            client_id=client_id,
            train=ArrayDataset(self._render(train_labels, rng), train_labels),
            test=ArrayDataset(self._render(test_labels, rng), test_labels),
            attribute=group,
            metadata={"group": group, "preferred_classes": PREFERENCE_GROUPS[group]},
        )

    # ------------------------------------------------------------------
    # FederatedDataset template methods
    # ------------------------------------------------------------------
    def _build_clients(self) -> list[ClientDataset]:
        clients: list[ClientDataset] = []
        client_id = 0
        for group, size in enumerate(GROUP_SIZES):
            for _ in range(size):
                rng = rng_from_seed(stable_seed(self.seed, "client", client_id))
                clients.append(self._make_client(client_id, group, rng))
                client_id += 1
        return clients

    def _build_background(self) -> list[ClientDataset]:
        """Disjoint users per group, the adversary's auxiliary knowledge."""
        clients: list[ClientDataset] = []
        client_id = 10_000  # disjoint id space from the participants
        for group in range(len(GROUP_SIZES)):
            for _ in range(self.background_clients_per_group):
                rng = rng_from_seed(stable_seed(self.seed, "background", client_id))
                clients.append(self._make_client(client_id, group, rng))
                client_id += 1
        return clients

    def _build_test(self) -> ArrayDataset:
        """Class-balanced global test set (utility evaluation)."""
        rng = rng_from_seed(stable_seed(self.seed, "global-test"))
        per_class = max(4, self.test_samples_per_client)
        labels = np.repeat(np.arange(self.num_classes), per_class).astype(np.int64)
        return ArrayDataset(self._render(labels, rng), labels)
