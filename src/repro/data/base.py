"""Dataset containers and splits.

The federated pipeline works with two views of data:

* :class:`ArrayDataset` — plain ``(X, y)`` arrays (global test sets, attack
  background corpora);
* :class:`ClientDataset` — one participant's local data plus the participant's
  *sensitive attribute* (the thing ∇Sim tries to infer).

Local training batches by index (:func:`repro.federated.client.epoch_batches`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ArrayDataset", "ClientDataset", "train_test_split"]


@dataclass
class ArrayDataset:
    """Feature/label arrays with consistent leading dimension."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.features) != len(self.labels):
            raise ValueError(
                f"features ({len(self.features)}) and labels ({len(self.labels)}) length mismatch"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        return ArrayDataset(self.features[indices], self.labels[indices])

    def concat(self, other: "ArrayDataset") -> "ArrayDataset":
        return ArrayDataset(
            np.concatenate([self.features, other.features]),
            np.concatenate([self.labels, other.labels]),
        )


@dataclass
class ClientDataset:
    """One FL participant's local data and sensitive attribute.

    ``attribute`` is the integer class of the sensitive attribute (e.g. gender
    0/1 for the motion datasets, preference group 0/1/2 for CIFAR10).  The
    aggregation server never sees it; the attack is scored against it.
    """

    client_id: int
    train: ArrayDataset
    test: ArrayDataset
    attribute: int
    metadata: dict = field(default_factory=dict)

    @property
    def num_train(self) -> int:
        return len(self.train)

    def __repr__(self) -> str:
        return (
            f"ClientDataset(id={self.client_id}, train={len(self.train)}, "
            f"test={len(self.test)}, attribute={self.attribute})"
        )


def train_test_split(
    dataset: ArrayDataset,
    test_fraction: float,
    rng: np.random.Generator,
    stratify: bool = True,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Split into train/test; stratified by label when requested.

    The paper's methodology uses 5/6 train, 1/6 test (§6.1.4), i.e.
    ``test_fraction=1/6``.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    if stratify:
        test_idx: list[int] = []
        for label in np.unique(dataset.labels):
            members = np.flatnonzero(dataset.labels == label)
            members = rng.permutation(members)
            take = max(1, int(round(len(members) * test_fraction))) if len(members) > 1 else 0
            test_idx.extend(members[:take].tolist())
        test_mask = np.zeros(n, dtype=bool)
        test_mask[test_idx] = True
    else:
        order = rng.permutation(n)
        cut = max(1, int(round(n * test_fraction)))
        test_mask = np.zeros(n, dtype=bool)
        test_mask[order[:cut]] = True
    return dataset.subset(~test_mask), dataset.subset(test_mask)
