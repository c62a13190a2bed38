"""Shared experiment plumbing: one entry point to run any (dataset, scheme).

Every figure in §6 compares the same three schemes — classical FL, MixNN and
the noisy-gradient baseline — over the same per-dataset methodology, so the
figure modules all call :func:`run_scheme` with different observation hooks.
The extension studies build their runs with :func:`build_simulation`, the
function behind :func:`run_scheme`, plus :class:`SimulationConfig` overrides.
"""

from __future__ import annotations

from dataclasses import replace

from ..attacks import GradSimAttack
from ..data.federated import FederatedDataset
from ..defenses import (
    ClipAndNoiseDefense,
    Defense,
    GaussianNoiseDefense,
    MixNNDefense,
    NoDefense,
    SecureAggregationDefense,
)
from ..federated import FederatedSimulation, SimulationResult
from ..utils.rng import rng_from_seed, stable_seed
from .config import ExperimentParams, build_experiment
from .models import model_fn_for

__all__ = ["SCHEMES", "DEFENSES", "make_defense", "build_simulation", "run_scheme"]

#: Report names of the compared schemes, in the paper's plotting order.
SCHEMES: tuple[str, ...] = ("classical-fl", "mixnn", "noisy-gradient")

#: Every defense :func:`make_defense` builds, in the order the five-defense
#: comparison reports them: the paper's three plus the two positions §1 argues
#: against (secure aggregation and DP clip-and-noise).
DEFENSES = ("classical-fl", "noisy-gradient", "mixnn", "secure-aggregation", "dp-clip-noise")


def make_defense(scheme: str, params: ExperimentParams, seed: int = 0) -> Defense:
    """Instantiate the defense for a scheme name."""
    if scheme == "classical-fl":
        return NoDefense()
    if scheme == "mixnn":
        return MixNNDefense(k=None, rng=rng_from_seed(stable_seed(seed, "mixnn-proxy")))
    if scheme == "noisy-gradient":
        return GaussianNoiseDefense(sigma=params.noise_sigma)
    if scheme == "secure-aggregation":
        return SecureAggregationDefense()
    if scheme == "dp-clip-noise":
        # clip_norm is chosen to actually bind on these models' update deltas
        # so the defense is a distinct point from the plain noisy-gradient
        # baseline.
        return ClipAndNoiseDefense(clip_norm=0.2, noise_multiplier=0.3)
    raise KeyError(f"unknown scheme {scheme!r}; choose from {DEFENSES}")


def build_simulation(
    dataset: FederatedDataset,
    params: ExperimentParams,
    scheme: str,
    seed: int = 0,
    rounds: int | None = None,
    attack_mode: str | None = None,
    background_ratio: float = 1.0,
    **config,
) -> FederatedSimulation:
    """The federated simulation of one scheme on an already built dataset.

    ``attack_mode`` of ``None`` runs without an adversary (utility figures);
    ``"passive"`` / ``"active"`` attach a ∇Sim observer (privacy figures —
    the paper's Figures 7–8 use the active worst case).  ``config``
    overrides :class:`~repro.federated.SimulationConfig` fields (scenario,
    aggregation rule, shard count, clients per round).
    """
    model_fn = model_fn_for(dataset)
    attack = None
    if attack_mode is not None:
        attack = GradSimAttack(
            background_clients=dataset.background_clients(),
            model_fn=model_fn,
            config=params.local_config(),
            rng=rng_from_seed(stable_seed(seed, "attack")),
            mode=attack_mode,
            background_ratio=background_ratio,
            attack_epochs=params.attack_epochs,
        )
    return FederatedSimulation(
        dataset,
        model_fn,
        replace(params.simulation_config(seed=seed, rounds=rounds), **config),
        defense=make_defense(scheme, params, seed=seed),
        attack=attack,
    )


def run_scheme(
    dataset_name: str,
    scheme: str,
    scale: str = "ci",
    seed: int = 0,
    rounds: int | None = None,
    attack_mode: str | None = None,
    background_ratio: float = 1.0,
) -> tuple[SimulationResult, FederatedDataset, ExperimentParams]:
    """Run one full federated simulation for (dataset, scheme)."""
    dataset, params = build_experiment(dataset_name, scale=scale, seed=seed)
    simulation = build_simulation(
        dataset, params, scheme, seed, rounds, attack_mode, background_ratio
    )
    return simulation.run(), dataset, params
