"""``repro.data`` — federated dataset simulators.

Synthetic stand-ins for the four datasets of the MixNN evaluation (CIFAR10,
MotionSense, MobiAct, LFW), plus the containers and partitioning helpers the
federated pipeline and the ∇Sim attack consume.  See :mod:`repro.data.synthetic` for the
substitution rationale.
"""

from .base import ArrayDataset, ClientDataset, train_test_split
from .cifar10 import PREFERENCE_GROUPS, SyntheticCIFAR10
from .federated import DirichletReshard, FederatedDataset
from .lfw import SyntheticLFW
from .motion import ACTIVITIES, SyntheticMobiAct, SyntheticMotionSense
from .partition import (
    background_subset,
    clients_by_attribute,
    dirichlet_clients,
    dirichlet_partition,
    k_fold_clients,
    merge_clients,
    shard_label_counts,
)
from .population import LazyFederatedDataset, SyntheticPopulation

__all__ = [
    "ArrayDataset",
    "ClientDataset",
    "train_test_split",
    "FederatedDataset",
    "DirichletReshard",
    "SyntheticCIFAR10",
    "PREFERENCE_GROUPS",
    "SyntheticMotionSense",
    "SyntheticMobiAct",
    "ACTIVITIES",
    "SyntheticLFW",
    "background_subset",
    "k_fold_clients",
    "merge_clients",
    "clients_by_attribute",
    "dirichlet_partition",
    "dirichlet_clients",
    "shard_label_counts",
    "LazyFederatedDataset",
    "SyntheticPopulation",
    "DATASETS",
    "make_dataset",
]

#: Registry of the four paper datasets by name.
DATASETS = {
    "cifar10": SyntheticCIFAR10,
    "motionsense": SyntheticMotionSense,
    "mobiact": SyntheticMobiAct,
    "lfw": SyntheticLFW,
}


def make_dataset(name: str, seed: int = 0, **kwargs) -> FederatedDataset:
    """Instantiate one of the four paper datasets by name."""
    try:
        cls = DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}") from None
    return cls(seed=seed, **kwargs)
