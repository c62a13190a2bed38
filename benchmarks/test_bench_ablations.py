"""Ablation benchmarks — the design choices behind the paper's proxy (§4.3).

These go beyond the paper's figures:

* **k-sweep** — the proxy's list size trades latency for privacy: a small
  streaming window leaks arrival locality (mixed layers come from temporally
  nearby participants), so inference accuracy rises as k shrinks.
* **granularity** — mixing whole models provides only batch unlinkability;
  per-layer (the paper's scheme) and per-parameter granularities protect.
* **noise-σ sweep** — the noisy-gradient baseline's privacy/utility knob.
"""

import numpy as np
import pytest

from repro.attacks import GradSimAttack
from repro.data import SyntheticMotionSense
from repro.defenses import GaussianNoiseDefense, MixNNDefense
from repro.experiments.config import params_for
from repro.experiments.models import model_fn_for
from repro.federated import FederatedSimulation
from repro.mixnn.crypto import process_keypair
from repro.mixnn.enclave import SGXEnclaveSim
from repro.utils.rng import rng_from_seed

from .conftest import print_report

ROUNDS = 4


def attacked_run(defense, rounds=ROUNDS, seed=0):
    dataset = SyntheticMotionSense(seed=seed)
    params = params_for("motionsense")
    model_fn = model_fn_for(dataset)
    attack = GradSimAttack(
        background_clients=dataset.background_clients(),
        model_fn=model_fn,
        config=params.local_config(),
        rng=rng_from_seed(42),
        mode="active",
        attack_epochs=params.attack_epochs,
    )
    sim = FederatedSimulation(
        dataset, model_fn, params.simulation_config(seed=seed, rounds=rounds),
        defense=defense, attack=attack,
    )
    result = sim.run()
    return float(np.mean(result.inference_values())), result.accuracy_curve()[-1]


def mixnn_defense(k=None, granularity="layer"):
    return MixNNDefense(
        k=k,
        granularity=granularity,
        enclave=SGXEnclaveSim(keypair=process_keypair()),
        rng=rng_from_seed(7),
    )


def test_ablation_k_sweep(benchmark):
    """Streaming window size vs inference accuracy (MotionSense, active ∇Sim)."""

    def sweep():
        rows = []
        for k in (2, 4, None):  # None = full-round buffering (paper setting)
            inference, accuracy = attacked_run(mixnn_defense(k=k))
            rows.append((k if k is not None else "full-round", inference, accuracy))
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    body = "\n".join(f"  k={k!s:>10}  inference={i:.3f}  final-accuracy={a:.3f}" for k, i, a in rows)
    print_report("Ablation: proxy list size k (smaller k leaks arrival locality)", body)
    full_round = rows[-1][1]
    assert full_round <= rows[0][1] + 0.05, "full-round buffering must not leak more than k=2"


def test_ablation_granularity(benchmark):
    """Mixing granularity vs inference accuracy."""

    def sweep():
        rows = []
        for granularity in ("model", "layer", "parameter"):
            inference, accuracy = attacked_run(mixnn_defense(granularity=granularity))
            rows.append((granularity, inference, accuracy))
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    body = "\n".join(f"  granularity={g:>10}  inference={i:.3f}  final-accuracy={a:.3f}" for g, i, a in rows)
    print_report("Ablation: mixing granularity (model / layer / parameter)", body)
    by_granularity = {g: i for g, i, _ in rows}
    # Whole-model mixing only unlinks identities, the fingerprint survives in
    # the permuted slots, so it must never protect better than per-layer.
    assert by_granularity["layer"] <= by_granularity["model"] + 0.1


def test_ablation_noise_sigma(benchmark):
    """Noise scale vs (privacy, utility) for the noisy-gradient baseline."""

    def sweep():
        rows = []
        for sigma in (0.01, 0.05, 0.2):
            inference, accuracy = attacked_run(GaussianNoiseDefense(sigma=sigma))
            rows.append((sigma, inference, accuracy))
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    body = "\n".join(f"  sigma={s:<5}  inference={i:.3f}  final-accuracy={a:.3f}" for s, i, a in rows)
    print_report("Ablation: noisy-gradient σ (privacy rises, utility falls)", body)
    assert rows[0][1] >= rows[-1][1] - 0.1, "more noise must not leak more"
    assert rows[0][2] >= rows[-1][2] - 0.05, "less noise must not hurt utility more"
