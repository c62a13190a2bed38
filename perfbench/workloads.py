"""The four named workloads of the whole-round benchmark.

``BENCHMARK.json`` gives the reason for each measured workload.
``fleet-async`` is not measured on its own: every ``fleet-async-spawn`` run
replays it as the serial twin whose weights it must reproduce.

Each workload builds one :class:`~repro.federated.FederatedSimulation` from a
seed and nothing else: the seed reaches the dataset simulator, the
``SimulationConfig``, the MixNN proxy's mixing RNG and the attacker's RNG, so
the same seed always gives the same inputs.  The benchmark drives the
simulation as a closed loop, one ``run_round`` at a time.

Every workload keeps ``retain_received_updates=False``: a time-bounded run
executes a speed-dependent number of rounds, and a growing per-round history
would make the memory metric depend on speed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One named benchmark input and how to build it from a seed."""

    name: str
    #: rounds after which the weights digest, ``final_accuracy`` and
    #: ``delivered_share`` are taken; a run always completes at least this
    #: many rounds, so all three are exact at a seed however fast the
    #: machine is
    checkpoint_rounds: int
    build: Callable[[int], "Built"]


@dataclass
class Built:
    """A ready-to-run simulation plus the objects the checks read."""

    simulation: object
    dataset: object
    config: object
    defense: object | None = None


def _mixnn_defense(seed: int):
    from repro.defenses import MixNNDefense
    from repro.utils.rng import rng_from_seed, stable_seed

    # Full-round mode (k=None): the proxy's lists track the round's cohort.
    return MixNNDefense(k=None, rng=rng_from_seed(stable_seed(seed, "mixnn-proxy")))


def build_paper_mixnn(seed: int) -> Built:
    from repro.attacks import GradSimAttack
    from repro.data import make_dataset
    from repro.experiments.config import PAPER_PARAMS
    from repro.experiments.models import model_fn_for
    from repro.federated import FederatedSimulation
    from repro.utils.rng import rng_from_seed, stable_seed

    params = PAPER_PARAMS["cifar10"]
    dataset = make_dataset("cifar10", seed=seed)
    model_fn = model_fn_for(dataset)
    attack = GradSimAttack(
        background_clients=dataset.background_clients(),
        model_fn=model_fn,
        config=params.local_config(),
        rng=rng_from_seed(stable_seed(seed, "attack")),
        mode="active",
        attack_epochs=params.attack_epochs,
    )
    config = replace(
        params.simulation_config(seed=seed),
        parallelism=1,
        track_per_client_accuracy=True,
        retain_received_updates=False,
        scenario=None,
    )
    defense = _mixnn_defense(seed)
    simulation = FederatedSimulation(dataset, model_fn, config, defense=defense, attack=attack)
    return Built(simulation, dataset, config, defense=defense)


def _fleet_local():
    from repro.federated import LocalTrainingConfig

    return LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05)


def build_fleet_mixnn(seed: int) -> Built:
    from repro.data import SyntheticPopulation
    from repro.experiments.models import model_fn_for
    from repro.federated import FederatedSimulation, SimulationConfig

    dataset = SyntheticPopulation(seed=seed)
    config = SimulationConfig(
        rounds=1,
        local=_fleet_local(),
        clients_per_round=256,
        seed=seed,
        track_per_client_accuracy=False,
        retain_received_updates=False,
        cohort_batching=True,
    )
    defense = _mixnn_defense(seed)
    simulation = FederatedSimulation(dataset, model_fn_for(dataset), config, defense=defense)
    return Built(simulation, dataset, config, defense=defense)


def _build_fleet_async(seed: int, **overrides) -> Built:
    from repro.data import SyntheticPopulation
    from repro.experiments.extensions import make_scenario
    from repro.experiments.models import model_fn_for
    from repro.federated import FederatedSimulation, SimulationConfig
    from repro.federated.adversary import AdversaryConfig
    from repro.federated.faults import FaultConfig

    dataset = SyntheticPopulation(seed=seed)
    scenario = replace(
        make_scenario("buffered-async", 0.1, 1000),
        faults=FaultConfig(
            frame_corruption_rate=0.05, client_crash_rate=0.02, quorum_fraction=0.8
        ),
        adversary=AdversaryConfig(fraction=0.1, kind="sign-flip"),
    )
    config = SimulationConfig(
        rounds=1,
        local=_fleet_local(),
        clients_per_round=1000,
        seed=seed,
        track_per_client_accuracy=False,
        retain_received_updates=False,
        cohort_batching=True,
        scenario=scenario,
        aggregation="multi-krum",
        **overrides,
    )
    simulation = FederatedSimulation(dataset, model_fn_for(dataset), config)
    return Built(simulation, dataset, config)


def build_fleet_async(seed: int) -> Built:
    return _build_fleet_async(seed)


def build_fleet_async_spawn(seed: int) -> Built:
    return _build_fleet_async(seed, num_shards=2, shard_backend="process")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-mixnn", checkpoint_rounds=4, build=build_paper_mixnn),
        Workload("fleet-mixnn", checkpoint_rounds=12, build=build_fleet_mixnn),
        Workload("fleet-async", checkpoint_rounds=15, build=build_fleet_async),
        Workload("fleet-async-spawn", checkpoint_rounds=15, build=build_fleet_async_spawn),
    )
}

#: the single-worker twin whose weights a workload must reproduce byte for byte
SERIAL_TWIN = {"fleet-async-spawn": "fleet-async"}
