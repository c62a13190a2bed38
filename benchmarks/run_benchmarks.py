#!/usr/bin/env python
"""Record a perf snapshot so future PRs can track the trajectory.

Runs the crypto/transport/mixing micro-benchmarks, the flat-parameter-plane
attack/aggregation micro-benchmarks, the round-throughput sweep (clients/sec
at 16–1024 simulated clients, flat vs retained reference path, with a
per-phase train/mix/reduce/merge breakdown), the sharded-round sweep
(hierarchical aggregation at 1/2/4/8 leaf shards over 64–1024 clients,
modeled critical-path throughput), the cohort-batched-training comparison
(serial vs one stacked forward/backward at 16/64/256-client cohorts), the
fault-recovery sweep (round throughput and recovery percentiles at
0/5/20 % proxy-crash under 5 % frame corruption), the scheduler
micro-benchmark (heap vs calendar queue at 10³/10⁴/10⁵ pending events), the
population-scale measurement (a 10⁶-client federation training 10⁴ clients
per round with cohort-bounded memory), and the
§6.5 system-perf pipeline measurement directly (no pytest involved), and
writes the results to ``BENCH_<date>.json`` next to this script (override
with ``--output``).  An existing snapshot for the same date is never
overwritten — the git revision is appended to the filename instead.

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
    """The retained dict-based scoring path (the pre-flat-plane seed code)."""
    from repro.attacks.gradsim import score_updates_reference
    from repro.federated.update import state_delta_reference
    from repro.nn.serialization import flatten

    class_deltas = {
        attribute: flatten(state_delta_reference(state, broadcast))
        for attribute, state in references.items()
    }
    return score_updates_reference(updates, broadcast, class_deltas)


def round_throughput(model, repeats: int) -> dict:
    """Server-side round overhead (mix + aggregate), flat vs reference path.

    Each cohort row also carries ``phase_seconds``, a wall-clock breakdown of
    where a flat round goes: ``train`` (synthetic update synthesis — the
    benchmark's stand-in for local training), ``mix`` (layer-wise MixNN
    shuffle), ``reduce`` (the flat-plane mean over the row matrix), and
    ``merge`` (rebuilding the named state dict from the reduced vector), so
    a throughput sag at large cohorts is attributable to a specific stage.
    """
    from repro.federated.flat import flat_mean, flat_rows
    from repro.federated.update import aggregate_updates, aggregate_updates_reference
    from repro.mixnn.mixing import mix_updates, mix_updates_reference
    from repro.nn.serialization import schema_of
    from repro.utils.rng import rng_from_seed

    sweep = {}
    for cohort in THROUGHPUT_COHORTS:
        updates = _make_updates(model, cohort)

        def flat_round():
            mixed = mix_updates(updates, rng_from_seed(0))
            return aggregate_updates(mixed)

        def reference_round():
            mixed = mix_updates_reference(updates, rng_from_seed(0))
            return aggregate_updates_reference(mixed)

        flat_seconds = _best_of(flat_round, repeats)
        reference_seconds = _best_of(reference_round, repeats)
        mixed = mix_updates(updates, rng_from_seed(0))
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
                "mix": _best_of(
                    lambda u=updates: mix_updates(u, rng_from_seed(0)), repeats
                ),
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
            engine = ShardedRoundEngine(population, schema, num_shards, seed=0)
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


def cohort_train_seconds(repeats: int = 3) -> dict:
    """Serial vs cohort-batched local training for one round's cohort.

    Times the two row-plane trainers head to head on identical work: the
    serial :func:`~repro.federated.client.train_rows_into` loop (one model
    replica, one forward/backward per client per batch) against
    :class:`~repro.federated.cohort.CohortTrainer` (the whole cohort stacked
    into one ``(M, D)`` weight block, one batched forward/backward per step).
    Linear-probe model, one local epoch, batch size 8 — the training recipe
    of the round-throughput sweep.  ``speedup`` at the 256-client row is the
    acceptance number (≥ 5×).  Both paths land rows in the same layout; a
    bit-equality check guards against benchmarking diverged code.
    """
    import numpy as np

    from repro.data import SyntheticPopulation
    from repro.experiments.models import model_fn_for
    from repro.federated import LocalTrainingConfig
    from repro.federated.client import ClientPopulation, train_rows_into
    from repro.federated.cohort import CohortTrainer
    from repro.nn.serialization import schema_of
    from repro.utils.rng import rng_from_seed

    local = LocalTrainingConfig(local_epochs=1, batch_size=8)
    section: dict = {"local_epochs": 1, "batch_size": 8, "cohorts": {}}
    for cohort in COHORT_TRAIN_COHORTS:
        dataset = SyntheticPopulation(population_size=cohort, seed=0)
        model_fn = model_fn_for(dataset)
        population = ClientPopulation.for_dataset(dataset, model_fn, local, seed=0)
        broadcast = model_fn(rng_from_seed(0)).state_dict()
        schema = schema_of(broadcast)
        pairs = list(enumerate(population.client_ids(range(cohort))))
        rows_serial = np.empty((cohort, schema.total_size), dtype=np.float32)
        rows_batched = np.empty_like(rows_serial)
        trainer = CohortTrainer(population, schema)
        # Warm-up materializes the lazy population and primes both paths.
        train_rows_into(population, pairs, broadcast, 0, schema, rows_serial)
        trainer.train_rows(pairs, broadcast, 0, rows_batched)
        np.testing.assert_array_equal(rows_serial, rows_batched)
        serial = _best_of(
            lambda: train_rows_into(population, pairs, broadcast, 1, schema, rows_serial),
            repeats,
        )
        batched = _best_of(
            lambda: trainer.train_rows(pairs, broadcast, 1, rows_batched), repeats
        )
        section["cohorts"][str(cohort)] = {
            "serial_seconds": serial,
            "batched_seconds": batched,
            "speedup": serial / batched,
            "serial_clients_per_sec": cohort / serial,
            "batched_clients_per_sec": cohort / batched,
        }
    return section


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

    One miniature run per (scheme, knob) point of
    :func:`repro.experiments.extensions.frontier_points` (the same sweep and
    row schema the runner's ``frontier`` command reports, so snapshots never
    drift from the experiment); ``total_simulated_seconds`` and
    ``merged_per_simulated_sec`` come from the virtual-time engine's
    flush/arrival timestamps (measured), not from closed-form expectations.
    Deterministic, so a single run per point is exact — no timing repeats.
    """
    from repro.data import SyntheticMotionSense
    from repro.experiments.extensions import frontier_points, frontier_row, make_scenario
    from repro.experiments.models import model_fn_for
    from repro.federated import FederatedSimulation, LocalTrainingConfig, SimulationConfig

    rows = []
    for scheme, knob, overrides in frontier_points():
        dataset = SyntheticMotionSense(
            seed=0,
            windows_per_activity=4,
            test_windows_per_activity=1,
            background_subjects_per_gender=2,
        )
        scenario = make_scenario(scheme, SCENARIO_DROPOUT, dataset.num_clients, **overrides)
        config = SimulationConfig(
            rounds=SCENARIO_ROUNDS,
            local=LocalTrainingConfig(local_epochs=1, batch_size=64),
            seed=0,
            track_per_client_accuracy=False,
            scenario=scenario,
        )
        result = FederatedSimulation(dataset, model_fn_for(dataset), config).run()
        rows.append(frontier_row(scheme, knob, result).as_row())
    return rows


#: fault-recovery benchmark: rounds per run (6 so the 20 % proxy-crash row's
#: deterministic draw — seed 0 first fires in round 5 — actually exercises a
#: crash-and-failover, not just the transport-retry floor)
FAULT_ROUNDS = 6
FAULT_FRAME_RATE = 0.05
FAULT_QUORUM = 0.7


def fault_recovery() -> list[dict]:
    """Round throughput and recovery latency under seeded fault injection.

    One miniature MixNN federation per proxy-crash rate in
    :data:`repro.experiments.extensions.CHAOS_PROXY_CRASH_RATES` (the same
    sweep the runner's ``chaos`` command reports, so snapshots never drift
    from the experiment), with RW01 frame corruption held at
    ``FAULT_FRAME_RATE`` so even the 0-crash row exercises the
    backoff-and-retry transport path.  Reports real wall-clock rounds/sec
    (the fault plane's execution overhead), virtual-time merged/sec (what
    the faults cost the federation), and per-fault recovery percentiles.
    Every run's ledger is validated before its row is recorded.
    Deterministic, so a single run per point is exact — no timing repeats.
    """
    from dataclasses import replace as dc_replace

    from repro.data import SyntheticMotionSense
    from repro.defenses import MixNNDefense
    from repro.experiments.extensions import CHAOS_PROXY_CRASH_RATES, make_scenario
    from repro.experiments.models import model_fn_for
    from repro.federated import (
        FaultConfig,
        FederatedSimulation,
        LocalTrainingConfig,
        SimulationConfig,
    )
    from repro.metrics.latency import summarize_round_timing
    from repro.utils.rng import rng_from_seed, stable_seed

    rows = []
    for crash_rate in CHAOS_PROXY_CRASH_RATES:
        dataset = SyntheticMotionSense(
            seed=0,
            windows_per_activity=4,
            test_windows_per_activity=1,
            background_subjects_per_gender=2,
        )
        faults = FaultConfig(
            frame_corruption_rate=FAULT_FRAME_RATE,
            proxy_crash_rate=crash_rate,
            quorum_fraction=FAULT_QUORUM,
        )
        scenario = dc_replace(
            make_scenario("sync-full", SCENARIO_DROPOUT, dataset.num_clients),
            faults=faults,
        )
        config = SimulationConfig(
            rounds=FAULT_ROUNDS,
            local=LocalTrainingConfig(local_epochs=1, batch_size=64),
            seed=0,
            track_per_client_accuracy=False,
            scenario=scenario,
        )
        sim = FederatedSimulation(
            dataset,
            model_fn_for(dataset),
            config,
            defense=MixNNDefense(rng=rng_from_seed(stable_seed(0, "mixnn-proxy"))),
        )
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
        result.fault_ledger.validate()
        timing = summarize_round_timing(result.rounds)
        ledger = result.fault_ledger
        rows.append(
            {
                "proxy_crash_rate": crash_rate,
                "frame_corruption_rate": FAULT_FRAME_RATE,
                "wall_seconds": wall,
                "rounds_per_wall_sec": FAULT_ROUNDS / wall,
                "merged_per_simulated_sec": timing.effective_throughput,
                "recovery_p50_s": timing.recovery_p50_seconds,
                "recovery_p99_s": timing.recovery_p99_seconds,
                "total_recovery_s": timing.total_recovery_seconds,
                "faults": ledger.injected,
                "retries": timing.total_retries,
                "failed_over": ledger.failed_over,
                "discarded": ledger.discarded,
                "retransmissions": ledger.retransmissions,
            }
        )
    return rows


#: scheduler micro-benchmark: backlog sizes to drain, and virtual seconds
#: between consecutive events (fixed density — backlog size, not event
#: crowding, is the variable under test)
SCHEDULER_BACKLOGS = (1_000, 10_000, 100_000)
SCHEDULER_SPACING = 0.01


def scheduler_ops_per_second(repeats: int) -> dict:
    """Heap vs calendar queue: schedule and pop cost as the backlog grows.

    Pre-builds ``backlog`` arrival events spread over a window that keeps
    the event density fixed at one per ``SCHEDULER_SPACING`` virtual
    seconds, then times the schedule phase (push everything) and the drain
    phase (pop everything, fully ordered) separately — events are built
    outside the timed region so dataclass construction cost doesn't mask the
    queue asymptotics.  The heap pays ``O(log n)`` percolation per pop, so
    its per-op cost grows with the backlog; the calendar queue's bucket
    occupancy is set by the density, not the backlog, so its pop cost stays
    flat from 10³ to 10⁵ pending events.
    """
    from repro.federated.events import CalendarQueue, ClientUpdateArrival, EventScheduler
    from repro.utils.rng import rng_from_seed

    sweep = {}
    for backlog in SCHEDULER_BACKLOGS:
        rng = rng_from_seed(0)
        times = rng.uniform(0.0, backlog * SCHEDULER_SPACING, size=backlog)
        events = [
            ClientUpdateArrival(time=float(t), client_id=i) for i, t in enumerate(times)
        ]
        row: dict = {}
        for backend, make in (("heap", EventScheduler), ("calendar", CalendarQueue)):
            schedule_best = pop_best = float("inf")
            for _ in range(repeats):
                scheduler = make()
                start = time.perf_counter()
                for event in events:
                    scheduler.schedule(event)
                mid = time.perf_counter()
                while len(scheduler):
                    scheduler.pop()
                end = time.perf_counter()
                schedule_best = min(schedule_best, mid - start)
                pop_best = min(pop_best, end - mid)
            row[backend] = {
                "schedule_ns_per_op": schedule_best / backlog * 1e9,
                "pop_ns_per_op": pop_best / backlog * 1e9,
                "ops_per_sec": 2 * backlog / (schedule_best + pop_best),
            }
        row["calendar_pop_speedup"] = (
            row["heap"]["pop_ns_per_op"] / row["calendar"]["pop_ns_per_op"]
        )
        sweep[str(backlog)] = row
    return sweep


#: population-scale sweep: (population size, clients trained per round).
#: The (10⁵, 10³) row is the memory-bound control for (10⁶, 10³): a 10×
#: population at the same cohort must not move the traced peak.
POPULATION_POINTS = (
    (100_000, 1_000),
    (1_000_000, 1_000),
    (1_000_000, 10_000),
)


def population_scale() -> list[dict]:
    """One full round of a million-client federation, memory-instrumented.

    Each row runs selection → latency draws → local training → event replay →
    aggregation over a :class:`~repro.data.population.SyntheticPopulation`
    with the lazy client plane and the calendar scheduler, and records the
    tracemalloc peak (allocation high-water mark of the round), the process
    RSS high-water mark, and the population's own materialization peak.  The
    claim under test: peak memory is bounded by the *cohort*, never the
    population — the 10⁶-row and the 10⁵-row at equal cohort size trace the
    same peak.  Deterministic, so a single run per point is exact.
    """
    import resource
    import tracemalloc

    from repro.data import SyntheticPopulation
    from repro.experiments.models import model_fn_for
    from repro.federated import (
        FederatedSimulation,
        LocalTrainingConfig,
        LogNormalLatency,
        ScenarioConfig,
        SimulationConfig,
    )

    rows = []
    for population_size, cohort in POPULATION_POINTS:
        dataset = SyntheticPopulation(population_size=population_size, seed=0)
        config = SimulationConfig(
            rounds=1,
            local=LocalTrainingConfig(local_epochs=1, batch_size=8),
            clients_per_round=cohort,
            seed=0,
            track_per_client_accuracy=False,
            retain_received_updates=False,
            scenario=ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.5)),
        )
        tracemalloc.start()
        start = time.perf_counter()
        sim = FederatedSimulation(dataset, model_fn_for(dataset), config)
        result = sim.run()
        wall = time.perf_counter() - start
        _, peak_traced = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append(
            {
                "population_size": population_size,
                "clients_per_round": cohort,
                "wall_seconds": wall,
                "trained_clients_per_sec": cohort / wall,
                "peak_materialized": sim.population.peak_materialized,
                "peak_traced_mb": peak_traced / 1e6,
                # ru_maxrss is a process-lifetime high-water mark (kB on
                # Linux): monotonic across rows, reported for context only —
                # the bounded-memory claim is scored on the traced peak.
                "rss_high_water_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "merged_updates": result.rounds[-1].num_aggregated,
                "final_accuracy": result.rounds[-1].global_accuracy,
            }
        )
    return rows


BYZANTINE_ROUNDS = 4
BYZANTINE_ATTACK_SCALE = 100.0


def byzantine_robustness() -> list[dict]:
    """Attack penetration and filter quality per aggregation policy.

    One miniature federation per (rule × attacker-fraction) cell in the
    :data:`repro.experiments.extensions.BYZANTINE_RULES` ×
    :data:`repro.experiments.extensions.BYZANTINE_FRACTIONS` sweep under a
    sign-flip adversary (the same sweep the runner's ``byzantine`` command
    reports, so snapshots never drift from the experiment).  Reports attack
    success rate, main-task accuracy, filter precision/recall, and the
    measured cost of verifying the hash-chained round transcript.  Each
    run's adversary ledger is validated before its row is recorded.
    Deterministic, so a single run per cell is exact — no timing repeats.
    """
    from dataclasses import replace as dc_replace

    from repro.data import SyntheticMotionSense
    from repro.experiments.extensions import (
        BYZANTINE_FRACTIONS,
        BYZANTINE_RULES,
        make_scenario,
    )
    from repro.experiments.models import model_fn_for
    from repro.federated import (
        AdversaryConfig,
        FederatedSimulation,
        LocalTrainingConfig,
        SimulationConfig,
    )
    from repro.metrics.robustness import summarize_robustness

    rows = []
    baselines: dict[str, float] = {}
    for rule in BYZANTINE_RULES:
        for fraction in BYZANTINE_FRACTIONS:
            dataset = SyntheticMotionSense(
                seed=0,
                windows_per_activity=4,
                test_windows_per_activity=1,
                background_subjects_per_gender=2,
            )
            scenario = dc_replace(
                make_scenario("sync-full", 0.0, dataset.num_clients),
                adversary=AdversaryConfig(
                    fraction=fraction, kind="sign-flip", scale=BYZANTINE_ATTACK_SCALE
                ),
            )
            config = SimulationConfig(
                rounds=BYZANTINE_ROUNDS,
                local=LocalTrainingConfig(local_epochs=1, batch_size=64),
                seed=0,
                track_per_client_accuracy=False,
                scenario=scenario,
                aggregation=rule,
            )
            sim = FederatedSimulation(dataset, model_fn_for(dataset), config)
            start = time.perf_counter()
            result = sim.run()
            wall = time.perf_counter() - start
            summary = summarize_robustness(result, baseline_accuracy=baselines.get(rule))
            verify_start = time.perf_counter()
            result.transcript.verify()
            verify_seconds = time.perf_counter() - verify_start
            if fraction == 0.0:
                baselines[rule] = summary.final_accuracy
            rows.append(
                {
                    "rule": rule,
                    "attacker_fraction": fraction,
                    "attack": "sign-flip",
                    "wall_seconds": wall,
                    "final_accuracy": summary.final_accuracy,
                    "accuracy_drop": summary.accuracy_drop,
                    "injected": summary.injected,
                    "merged": summary.merged,
                    "filtered": summary.filtered,
                    "rejected": summary.rejected,
                    "attack_success_rate": summary.attack_success_rate,
                    "filter_precision": summary.filter_precision,
                    "filter_recall": summary.filter_recall,
                    "transcript_verify_seconds": verify_seconds,
                }
            )
    return rows


def collect(repeats: int) -> dict:
    from repro.experiments.system_perf import run_system_perf
    from repro.federated.update import aggregate_updates, aggregate_updates_reference
    from repro.mixnn.crypto import decrypt, encrypt, process_keypair, selftest
    from repro.mixnn.mixing import mix_updates
    from repro.mixnn.transport import pack_update, unpack_update
    from repro.utils import native
    from repro.utils.rng import rng_from_seed
    from repro.experiments.models import paper_cnn

    selftest()
    keypair = process_keypair()
    payload = b"\x42" * 1_048_576
    blob = encrypt(keypair.public, payload)

    model = paper_cnn((3, 8, 8), 10, rng_from_seed(0))
    updates = _make_updates(model, 16)
    packed = pack_update(updates[0], keypair.public)
    broadcast, references, gradsim_updates = make_gradsim_workload(model)

    results = {
        "native_ctr_available": native.available(),
        "encrypt_1mb_seconds": _best_of(lambda: encrypt(keypair.public, payload), repeats),
        "decrypt_1mb_seconds": _best_of(lambda: decrypt(keypair, blob), repeats),
        "pack_update_seconds": _best_of(lambda: pack_update(updates[0], keypair.public), repeats),
        "unpack_update_seconds": _best_of(
            lambda: unpack_update(decrypt(keypair, packed.ciphertext)), repeats
        ),
        "mix_16_updates_seconds": _best_of(lambda: mix_updates(updates, rng_from_seed(0)), repeats),
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
    results["cohort_train_seconds"] = cohort_train_seconds(repeats)
    results["scenario_round_throughput"] = scenario_round_throughput(repeats)
    results["deadline_throughput_frontier"] = deadline_throughput_frontier()
    results["fault_recovery"] = fault_recovery()
    results["byzantine_robustness"] = byzantine_robustness()
    results["scheduler_ops_per_second"] = scheduler_ops_per_second(repeats)
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
