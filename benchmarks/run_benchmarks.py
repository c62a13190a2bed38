#!/usr/bin/env python
"""Record a perf snapshot so future PRs can track the trajectory.

Runs the crypto/transport/proxy micro-benchmarks, the flat-parameter-plane
attack/aggregation micro-benchmarks, the round-throughput sweep (clients/sec
at 16–1024 simulated clients through a full-round proxy, flat vs the
dict-based oracle aggregation, with a per-phase train/mix/reduce/merge
breakdown), the sharded-round sweep
(hierarchical aggregation at 1/2/4/8 leaf shards over 64–1024 clients,
modeled critical-path throughput), the cohort-batched-training comparison
(serial vs one stacked forward/backward at 16/64/256-client cohorts), the
fault-recovery sweep (round throughput and recovery percentiles at
0/5/20 % proxy-crash under 5 % frame corruption), the population-scale
measurement (a 10⁶-client federation training 10⁴ clients per round with
cohort-bounded memory), and the §6.5 system-perf pipeline measurement
directly (no pytest involved), and
writes the results to ``BENCH_<date>.json`` next to this script (override
with ``--output``).  The cohort, frontier, fault-recovery, Byzantine and
population sections run the runner's own studies
(:data:`repro.experiments.extensions.STUDIES`) and record their rows, each
with the cell's ``wall_seconds``.  An existing snapshot for the same date
is never overwritten — the git revision is appended to the filename
instead.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--output PATH] [--repeats N]
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

# The dict-based reference paths timed beside the flat ones are test oracles
# (``tests/oracles/algebra.py``), imported from the repository root.
if str(Path(__file__).resolve().parent.parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=Path(__file__).parent,
        )
        return out.stdout.strip() or None
    except Exception:
        return None


#: ∇Sim scoring micro-benchmark workload (matches the recorded baseline):
#: 64 observed updates, 8 sensitive classes, the paper_cnn (3, 8, 8) → 10.
GRADSIM_UPDATES = 64
GRADSIM_CLASSES = 8

#: round-throughput sweep sizes (simulated clients per round)
THROUGHPUT_COHORTS = (16, 64, 256, 512, 1024)


def _make_updates(model, count: int):
    """conftest.make_updates, importable whether run as a script or a module."""
    if str(Path(__file__).parent) not in sys.path:
        sys.path.insert(0, str(Path(__file__).parent))
    from conftest import make_updates

    return make_updates(model, count)


def make_gradsim_workload(model, rng_seed: int = 42):
    """Broadcast state, synthetic per-class reference states, and updates."""
    from collections import OrderedDict

    import numpy as np

    from repro.utils.rng import rng_from_seed

    broadcast = model.state_dict()
    rng = rng_from_seed(rng_seed)
    references = {
        attribute: OrderedDict(
            (name, value + 0.05 * rng.standard_normal(value.shape).astype(np.float32))
            for name, value in broadcast.items()
        )
        for attribute in range(GRADSIM_CLASSES)
    }
    updates = _make_updates(model, GRADSIM_UPDATES)
    return broadcast, references, updates


def gradsim_attack_flat(broadcast, references, updates):
    """The flat-plane ∇Sim scoring step (what ``on_round`` runs per round)."""
    from repro.attacks.background import reference_delta_matrix
    from repro.attacks.gradsim import score_updates

    class_deltas = reference_delta_matrix(references, broadcast)
    return score_updates(updates, broadcast, class_deltas)


def gradsim_attack_reference(broadcast, references, updates):
    """The dict-based scoring oracle (the pre-flat-plane seed code)."""
    from tests.oracles.algebra import reference_deltas, score_updates_reference

    return score_updates_reference(updates, broadcast, reference_deltas(references, broadcast))


def proxy_round(messages, keypair):
    """Decrypt and mix pre-encrypted ``messages`` through a full-round MixNN
    proxy (``k`` = cohort), as the defense runs a round; a fresh proxy per
    call, since a proxy refuses a message it has already ingested."""
    from repro.mixnn.enclave import SGXEnclaveSim
    from repro.mixnn.proxy import MixNNProxy
    from repro.utils.rng import rng_from_seed

    proxy = MixNNProxy(enclave=SGXEnclaveSim(keypair=keypair), k=len(messages), rng=rng_from_seed(0))
    return proxy.process_round(messages)


def round_throughput(model, repeats: int) -> dict:
    """Server-side round overhead (proxy decrypt + mix, then aggregate), with
    flat vs reference aggregation.

    Each cohort row also carries ``phase_seconds``, a wall-clock breakdown of
    where a flat round goes: ``train`` (synthetic update synthesis — the
    benchmark's stand-in for local training), ``mix`` (a full-round MixNN
    proxy over the cohort's pre-encrypted updates), ``reduce`` (the
    flat-plane mean over the row matrix), and ``merge`` (rebuilding the
    named state dict from the reduced vector), so a throughput sag at large
    cohorts is attributable to a specific stage.
    """
    from repro.federated.flat import flat_mean, flat_rows
    from repro.federated.update import aggregate_updates
    from repro.mixnn.crypto import process_keypair
    from repro.mixnn.transport import pack_update
    from repro.nn.serialization import schema_of
    from tests.oracles.algebra import aggregate_updates_reference

    keypair = process_keypair()
    sweep = {}
    for cohort in THROUGHPUT_COHORTS:
        updates = _make_updates(model, cohort)
        messages = [pack_update(update, keypair.public) for update in updates]

        def flat_round():
            return aggregate_updates(proxy_round(messages, keypair))

        def reference_round():
            return aggregate_updates_reference(proxy_round(messages, keypair))

        flat_seconds = _best_of(flat_round, repeats)
        reference_seconds = _best_of(reference_round, repeats)
        mixed = proxy_round(messages, keypair)
        schema = schema_of(mixed[0].state)
        rows = flat_rows(mixed, schema)
        reduced = flat_mean(rows, schema)
        sweep[str(cohort)] = {
            "flat_round_seconds": flat_seconds,
            "reference_round_seconds": reference_seconds,
            "flat_clients_per_sec": cohort / flat_seconds,
            "reference_clients_per_sec": cohort / reference_seconds,
            "speedup": reference_seconds / flat_seconds,
            "phase_seconds": {
                "train": _best_of(lambda c=cohort: _make_updates(model, c), repeats),
                "mix": _best_of(lambda m=messages: proxy_round(m, keypair), repeats),
                "reduce": _best_of(lambda r=rows, s=schema: flat_mean(r, s), repeats),
                "merge": _best_of(lambda v=reduced, s=schema: s.views(v), repeats),
            },
        }
    return sweep


#: sharded-round sweep: cohort sizes × leaf-shard counts.  Throughput is
#: scored on the *modeled critical path* — ``max`` per-shard compute plus the
#: root merge — because on a single-core container the inline backend runs
#: leaves sequentially; wall-clock converges to the critical path exactly
#: when cores ≥ shards, so both are recorded alongside ``cores``.
SHARDED_COHORTS = (64, 256, 1024)
SHARDED_SHARD_COUNTS = (1, 2, 4, 8)


def sharded_round_throughput() -> dict:
    """Hierarchical-aggregation round throughput per (cohort × shard) cell.

    Drives :class:`~repro.federated.sharding.ShardedRoundEngine` directly
    (no accuracy evaluation, no scenario plane) over a lazy synthetic
    population with the linear-probe model: one warm-up round materializes
    the cohort, then one measured round reports the engine's own per-phase
    timings.  ``modeled_round_seconds = max(train_i + reduce_i) + merge`` —
    the wall-clock a round would take with one core per leaf shard —
    and ``modeled_speedup_vs_1shard`` is the acceptance number (≥ 2.5× at
    256+ clients with 4+ shards).  Deterministic training, single measured
    round per cell.
    """
    import os

    from repro.data import SyntheticPopulation
    from repro.experiments.models import model_fn_for
    from repro.federated import LocalTrainingConfig
    from repro.federated.client import ClientPopulation
    from repro.federated.sharding import ShardedRoundEngine
    from repro.nn.serialization import schema_of
    from repro.utils.rng import rng_from_seed

    local = LocalTrainingConfig(local_epochs=1, batch_size=8)
    section: dict = {"cores": os.cpu_count(), "backend": "inline", "cohorts": {}}
    for cohort in SHARDED_COHORTS:
        dataset = SyntheticPopulation(population_size=cohort, seed=0)
        model_fn = model_fn_for(dataset)
        population = ClientPopulation.for_dataset(dataset, model_fn, local, seed=0)
        broadcast = model_fn(rng_from_seed(0)).state_dict()
        schema = schema_of(broadcast)
        client_ids = population.client_ids(range(cohort))
        cells = {}
        baseline_modeled = None
        for num_shards in SHARDED_SHARD_COUNTS:
            engine = ShardedRoundEngine(population, schema, num_shards)
            try:
                engine.train_round(client_ids, broadcast, round_index=0)  # warm-up
                engine.train_round(client_ids, broadcast, round_index=1)
                timings = engine.last_timings
            finally:
                engine.close()
            shard_seconds = [
                train + reduce
                for train, reduce in zip(
                    timings["per_shard_train_seconds"],
                    timings["per_shard_reduce_seconds"],
                )
            ]
            modeled = max(shard_seconds) + timings["merge_seconds"]
            cell = {
                "num_shards": num_shards,
                "wall_round_seconds": timings["wall_seconds"],
                "max_shard_seconds": max(shard_seconds),
                "merge_seconds": timings["merge_seconds"],
                "modeled_round_seconds": modeled,
                "wall_clients_per_sec": cohort / timings["wall_seconds"],
                "modeled_clients_per_sec": cohort / modeled,
            }
            if num_shards == SHARDED_SHARD_COUNTS[0]:
                baseline_modeled = modeled
            cell["modeled_speedup_vs_1shard"] = baseline_modeled / modeled
            cells[str(num_shards)] = cell
        section["cohorts"][str(cohort)] = cells
    return section


#: cohort-batched-training sweep sizes (clients trained per stacked pass)
COHORT_TRAIN_COHORTS = (16, 64, 256)


def cohort_train_seconds() -> list[dict]:
    """Serial vs cohort-batched local training for one round's cohort.

    The ``cohort`` study of :data:`repro.experiments.extensions.STUDIES` at
    16/64/256 clients: :class:`~repro.federated.cohort.CohortTrainer`
    client by client (each model a view of its own row) against its one
    stacked pass on a linear probe, one local epoch, batch size 8.  ``speedup`` at the
    256-client row is the acceptance number (≥ 5×).  Raises when the two
    paths' rows differ, so diverged code is never benchmarked.
    """
    from repro.experiments.extensions import run_study

    rows = run_study("cohort", cohort_sizes=COHORT_TRAIN_COHORTS, local_epochs=1)
    for row in rows:
        if not row["bit_identical"]:
            raise AssertionError(
                f"cohort {row['cohort_size']}: stacked rows differ from serial "
                f"(max |dev| {row['max_abs_deviation']:.1e})"
            )
    return rows


#: scenario-benchmark workload: rounds per run and per-round churn level
SCENARIO_ROUNDS = 4
SCENARIO_DROPOUT = 0.2


def scenario_round_throughput(repeats: int) -> dict:
    """End-to-end round throughput under churn, sync vs buffered-async.

    Runs a miniature MotionSense federation (full pipeline: selection →
    churn/latency draws → local training → aggregation) under each
    round-closure scheme and reports wall-clock rounds/sec plus the mean
    clients merged per round.  The simulated round *duration* (deadline
    semantics) is scored by the extension experiment; this row tracks the
    engine's real execution cost.
    """
    from repro.data import SyntheticMotionSense
    from repro.experiments.extensions import SCENARIO_SCHEMES, make_scenario
    from repro.experiments.models import model_fn_for
    from repro.federated import FederatedSimulation, LocalTrainingConfig, SimulationConfig

    sweep = {}
    for scheme in ("no-scenario",) + SCENARIO_SCHEMES:
        merged_total = 0

        def one_run(scheme=scheme):
            # runs are deterministic, so the timed closure can record the
            # merged-update count as a side effect (no extra untimed run)
            nonlocal merged_total
            dataset = SyntheticMotionSense(
                seed=0,
                windows_per_activity=4,
                test_windows_per_activity=1,
                background_subjects_per_gender=2,
            )
            cohort = dataset.num_clients
            scenario = None if scheme == "no-scenario" else make_scenario(
                scheme, SCENARIO_DROPOUT, cohort
            )
            config = SimulationConfig(
                rounds=SCENARIO_ROUNDS,
                local=LocalTrainingConfig(local_epochs=1, batch_size=64),
                seed=0,
                track_per_client_accuracy=False,
                scenario=scenario,
            )
            sim = FederatedSimulation(dataset, model_fn_for(dataset), config)
            result = sim.run()
            merged_total = sum(r.num_aggregated for r in result.rounds)

        seconds = _best_of(one_run, repeats)
        sweep[scheme] = {
            "seconds": seconds,
            "rounds_per_sec": SCENARIO_ROUNDS / seconds,
            "merged_clients_per_sec": merged_total / seconds,
            "mean_merged_per_round": merged_total / SCENARIO_ROUNDS,
        }
    return sweep


def deadline_throughput_frontier() -> list[dict]:
    """The measured deadline-vs-throughput frontier on the event stream.

    The runner's ``frontier`` study (its default deadline and buffer
    sweeps) on the registry MotionSense at ci scale, ``SCENARIO_ROUNDS``
    rounds under ``SCENARIO_DROPOUT`` churn: ``total_simulated_seconds`` and
    ``merged_per_simulated_sec`` come from the virtual-time engine's
    flush/arrival timestamps (measured), not from closed-form expectations.
    Deterministic except ``wall_seconds``, so one run per point.
    """
    from repro.experiments.extensions import run_study

    return run_study("frontier", rounds=SCENARIO_ROUNDS, dropout=SCENARIO_DROPOUT)


#: fault-recovery benchmark: rounds per run (6 so the 20 % proxy-crash row's
#: deterministic draw — seed 0 first fires in round 5 — actually exercises a
#: crash-and-failover, not just the transport-retry floor)
FAULT_ROUNDS = 6
FAULT_FRAME_RATE = 0.05
FAULT_QUORUM = 0.7


def fault_recovery() -> list[dict]:
    """Round throughput and recovery latency under seeded fault injection.

    The runner's ``chaos`` study (its default proxy-crash sweep) on the
    registry MotionSense at ci scale, with RW01 frame corruption held at
    ``FAULT_FRAME_RATE`` so even the 0-crash row exercises the
    backoff-and-retry transport path.  Reports each cell's ``wall_seconds``
    (the fault plane's execution cost), virtual-time merged/sec (what the
    faults cost the federation) and per-fault recovery percentiles; every
    run's ledgers are validated before its row exists.
    """
    from repro.experiments.extensions import run_study

    return run_study(
        "chaos",
        rounds=FAULT_ROUNDS,
        dropout=SCENARIO_DROPOUT,
        frame_corruption_rate=FAULT_FRAME_RATE,
        quorum=FAULT_QUORUM,
    )


#: population-scale sweep: (population size, clients trained per round).
#: The (10⁵, 10³) row is the memory-bound control for (10⁶, 10³): a 10×
#: population at the same cohort must not move the traced peak.
POPULATION_POINTS = (
    (100_000, 1_000),
    (1_000_000, 1_000),
    (1_000_000, 10_000),
)


def population_scale() -> list[dict]:
    """One round of a million-client federation, memory-instrumented.

    The runner's ``population`` study once per point: selection → latency
    draws → local training → event replay → aggregation over a
    :class:`~repro.data.population.SyntheticPopulation` on the lazy client
    plane, with the tracemalloc peak next to the population's own
    materialization peak.  The claim under test: peak memory is bounded by
    the *cohort*, never the population — the 10⁶-row and the 10⁵-row at
    equal cohort size trace the same peak.
    """
    from repro.experiments.extensions import run_study

    return [
        row
        for population_size, cohort in POPULATION_POINTS
        for row in run_study(
            "population", population_size=population_size, cohort=cohort, rounds=1
        )
    ]


BYZANTINE_ROUNDS = 4
BYZANTINE_ATTACK_SCALE = 100.0


def byzantine_robustness() -> list[dict]:
    """Attack penetration and filter quality per aggregation policy.

    The runner's ``byzantine`` study over its default rule × attacker-fraction
    sweep under a sign-flip adversary, without a transport defense or churn,
    on the registry MotionSense at ci scale.  Reports attack success rate,
    main-task accuracy, filter precision/recall, and the measured cost of
    verifying the hash-chained round transcript; every run's ledgers are
    validated before its row exists.
    """
    from repro.experiments.extensions import run_study

    return run_study(
        "byzantine",
        rounds=BYZANTINE_ROUNDS,
        attack="sign-flip",
        attack_scale=BYZANTINE_ATTACK_SCALE,
        byzantine_defenses=("none",),
        dropout=0.0,
    )


def collect(repeats: int) -> dict:
    from repro.experiments.system_perf import run_system_perf
    from repro.federated.update import aggregate_updates
    from repro.mixnn.crypto import decrypt, encrypt, process_keypair, selftest
    from repro.mixnn.transport import pack_update, unpack_update
    from repro.utils import native
    from repro.utils.rng import rng_from_seed
    from repro.experiments.models import paper_cnn
    from tests.oracles.algebra import aggregate_updates_reference

    selftest()
    keypair = process_keypair()
    payload = b"\x42" * 1_048_576
    blob = encrypt(keypair.public, payload)

    model = paper_cnn((3, 8, 8), 10, rng_from_seed(0))
    updates = _make_updates(model, 16)
    packed = pack_update(updates[0], keypair.public)
    messages = [pack_update(update, keypair.public) for update in updates]
    broadcast, references, gradsim_updates = make_gradsim_workload(model)

    results = {
        "native_ctr_available": native.available(),
        "encrypt_1mb_seconds": _best_of(lambda: encrypt(keypair.public, payload), repeats),
        "decrypt_1mb_seconds": _best_of(lambda: decrypt(keypair, blob), repeats),
        "pack_update_seconds": _best_of(lambda: pack_update(updates[0], keypair.public), repeats),
        "unpack_update_seconds": _best_of(
            lambda: unpack_update(decrypt(keypair, packed.ciphertext)), repeats
        ),
        "proxy_round_16_updates_seconds": _best_of(lambda: proxy_round(messages, keypair), repeats),
        "aggregate_16_updates_seconds": _best_of(lambda: aggregate_updates(updates), repeats),
        "aggregate_16_updates_reference_seconds": _best_of(
            lambda: aggregate_updates_reference(updates), repeats
        ),
        "gradsim_attack_seconds": _best_of(
            lambda: gradsim_attack_flat(broadcast, references, gradsim_updates), repeats
        ),
        "gradsim_attack_reference_seconds": _best_of(
            lambda: gradsim_attack_reference(broadcast, references, gradsim_updates), repeats
        ),
    }
    results["round_throughput"] = round_throughput(model, repeats)
    results["sharded_round_throughput"] = sharded_round_throughput()
    results["cohort_train_seconds"] = cohort_train_seconds()
    results["scenario_round_throughput"] = scenario_round_throughput(repeats)
    results["deadline_throughput_frontier"] = deadline_throughput_frontier()
    results["fault_recovery"] = fault_recovery()
    results["byzantine_robustness"] = byzantine_robustness()
    results["population_scale"] = population_scale()
    perf = run_system_perf()
    results["system_perf"] = {
        section: [row.__dict__ for row in rows] for section, rows in perf.items()
    }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=None, help="snapshot path (default: benchmarks/BENCH_<date>.json)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing repeats")
    args = parser.parse_args(argv)

    date = _dt.date.today().isoformat()
    output = args.output
    if output is None:
        output = Path(__file__).parent / f"BENCH_{date}.json"
        if output.exists():
            # never clobber a recorded snapshot (it is the regression baseline)
            revision = _git_revision() or "local"
            output = Path(__file__).parent / f"BENCH_{date}_{revision}.json"
    snapshot = {
        "date": date,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": collect(args.repeats),
    }
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {output}")
    for key, value in snapshot["results"].items():
        if isinstance(value, float):
            print(f"  {key}: {value*1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
