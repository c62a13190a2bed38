"""Which entry points each layer is timed at, and the per-layer metrics.

Layers are named after the ``repro`` modules they live in.  ``ENTRY_POINTS``
lists the public functions and methods the tracer wraps; ``PREDICTIONS``
records, for every per-layer metric, the end-to-end metric a faster layer
should move and the workloads that put the most and the least work into it.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import EntryPoint, Tracer


def _count_decrypt_items(tracer: Tracer, args, kwargs, result) -> None:
    tracer.tally("enclave.decrypt_many.items", len(result))


def _record_backlog(tracer: Tracer, args, kwargs, result) -> None:
    tracer.peak("events.backlog_max", len(args[0]))


def _count_rows(position: int):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        updates = args[position] if len(args) > position else kwargs["updates"]
        tracer.tally("aggregation.rows", len(updates))

    return hook


def _count_digest(tracer: Tracer, args, kwargs, result) -> None:
    tracer.tally("integrity.digests")


def _read_shard_timings(tracer: Tracer, args, kwargs, result) -> None:
    timings = args[0].last_timings
    if timings:
        tracer.tally(
            "sharding.shard_busy_s",
            sum(timings["per_shard_train_seconds"]) + sum(timings["per_shard_reduce_seconds"]),
        )
        tracer.tally("sharding.merge_s", timings["merge_seconds"])
        tracer.peak("sharding.shards", len(timings["per_shard_train_seconds"]))


_FAULT_DRAWS = (
    "client_crash",
    "crashed_clients",
    "frame_fault",
    "enclave_fault",
    "attestation_fault",
    "proxy_crash",
    "crash_point",
    "mix_node_crash",
    "merge_fault",
    "shard_crash",
    "backoff",
    "retry_latency",
    "corrupt_frame",
)

_SCHEDULER_QUERIES = (
    "peek",
    "advance",
    "pending_arrival_count",
    "in_flight_count",
    "pending_arrivals",
    "in_flight_payloads",
)

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("repro.federated.simulation:FederatedSimulation.run_round", "simulation.run_round", root=True),
    EntryPoint("repro.federated.client:FederatedClient.local_update", "client.local_update"),
    EntryPoint("repro.federated.cohort:CohortTrainer.train_updates", "cohort.train_updates"),
    EntryPoint("repro.nn.module:Module.__call__", "nn.forward"),
    EntryPoint("repro.nn.tensor:Tensor.backward", "nn.backward"),
    EntryPoint("repro.nn.tensor:GradTape.backward", "nn.backward"),
    EntryPoint("repro.nn.optim:Optimizer.step", "nn.optim"),
    EntryPoint("repro.data.population:LazyFederatedDataset.client_data", "data.client_data"),
    EntryPoint("repro.utils.rng:rng_from_seed", "rng.seeded"),
    EntryPoint("repro.federated.scenario:ClientAvailability.filter_available", "scenario.draws"),
    EntryPoint("repro.federated.scenario:LatencyModel.latency", "scenario.draws"),
    *(EntryPoint(f"repro.federated.faults:FaultInjector.{n}", "faults.draws") for n in _FAULT_DRAWS),
    EntryPoint("repro.federated.adversary:AdversaryInjector.poison_round", "adversary.poison_round"),
    EntryPoint("repro.federated.events:VirtualClockScheduler.schedule", "events.schedule", hook=_record_backlog),
    EntryPoint("repro.federated.events:VirtualClockScheduler.pop", "events.pop"),
    *(EntryPoint(f"repro.federated.events:VirtualClockScheduler.{n}", "events.query") for n in _SCHEDULER_QUERIES),
    EntryPoint("repro.federated.sharding:ShardedRoundEngine.train_round", "sharding.train_round", hook=_read_shard_timings),
    EntryPoint("repro.mixnn.proxy:MixNNProxy.encrypt_for_proxy", "transport.pack"),
    EntryPoint("repro.mixnn.enclave:SGXEnclaveSim.decrypt_many", "enclave.decrypt_many", hook=_count_decrypt_items),
    EntryPoint("repro.mixnn.proxy:MixNNProxy.process_round", "proxy.process_round"),
    EntryPoint("repro.defenses.base:Defense.process_round", "defenses.process_round"),
    EntryPoint("repro.federated.server:AggregationServer.broadcast", "server.broadcast"),
    EntryPoint("repro.federated.server:AggregationServer.receive_and_aggregate", "server.receive_and_aggregate"),
    EntryPoint("repro.federated.update:aggregate_updates", "aggregation", hook=_count_rows(0)),
    EntryPoint("repro.federated.aggregation:AggregationPolicy.aggregate", "aggregation", hook=_count_rows(1)),
    EntryPoint("repro.federated.integrity:RoundTranscript.append", "integrity"),
    EntryPoint("repro.federated.integrity:update_digest", "integrity", hook=_count_digest),
    EntryPoint("repro.federated.integrity:state_digest", "integrity", hook=_count_digest),
    EntryPoint("repro.attacks.gradsim:GradSimAttack.craft_broadcast", "attacks.craft_broadcast"),
    EntryPoint("repro.attacks.gradsim:GradSimAttack.on_round", "attacks.on_round"),
    EntryPoint("repro.metrics.accuracy:model_accuracy", "metrics.eval"),
    EntryPoint("repro.metrics.accuracy:per_client_accuracies", "metrics.eval"),
)


_PAPER_FIRST = "paper-mixnn -> not run on fleet-*"
_NN = "paper-mixnn (serial conv, attacker references) -> fleet-* (one batched linear step)"
_PROXY = "fleet-mixnn -> paper-mixnn (16 large envelopes) -> not run on fleet-async-spawn"
# fleet-async-spawn trains in its spawn workers, outside the tracer
_COHORT = "fleet-mixnn -> untraced on fleet-async-spawn -> not run on paper-mixnn"
_RNG = "fleet-async-spawn (~5.5k seeded draws per round) -> fleet-mixnn (~500) -> paper-mixnn (~23)"
_ASYNC = "fleet-async-spawn -> not run on *-mixnn"
_MERGE = "fleet-async-spawn (multi-krum over ~600 rows) -> *-mixnn (mean, <1%)"
_ALL = "all workloads"

#: per-layer metric -> (the end-to-end metric a faster layer should move,
#: the workloads with the most work in the layer -> little or none);
#: ``BENCHMARK.json`` gives each metric's unit and better direction
PREDICTIONS: dict[str, tuple[str, str]] = {
    "client.local_update.calls": ("round_cpu_s.p50", _PAPER_FIRST),
    "client.local_update.self_s": ("round_cpu_s.p50", _PAPER_FIRST),
    "client.peak_materialized": ("peak_rss_mb", "fleet-*"),
    "cohort.train_updates.calls": ("updates_per_cpu_s", _COHORT),
    "cohort.train_updates.self_s": ("updates_per_cpu_s", _COHORT),
    "nn.forward.self_s": ("round_cpu_s.p50", _NN),
    "nn.backward.self_s": ("round_cpu_s.p50", _NN),
    "nn.optim.self_s": ("updates_per_cpu_s", _NN),
    "nn.optim.steps": ("updates_per_cpu_s", _NN),
    "data.client_data.calls": ("peak_rss_mb", _COHORT),
    "data.client_data.self_s": ("updates_per_cpu_s", _COHORT),
    "rng.seeded.calls": ("updates_per_cpu_s", _RNG),
    "rng.seeded.self_s": ("updates_per_cpu_s", _RNG),
    "scenario.draws.calls": ("round_cpu_s.p50", _ASYNC),
    "scenario.draws.self_s": ("round_cpu_s.p50", _ASYNC),
    "faults.draws.self_s": ("round_cpu_s.p50", _ASYNC),
    "faults.injected": ("delivered_share", _ASYNC),
    "faults.retried": ("delivered_share", _ASYNC),
    "faults.failed_over": ("delivered_share", _ASYNC),
    "faults.discarded": ("delivered_share", _ASYNC),
    "adversary.poison_round.self_s": ("round_cpu_s.p50", _ASYNC),
    "adversary.injected": ("final_accuracy", _ASYNC),
    "adversary.merged": ("final_accuracy", _ASYNC),
    "adversary.filtered": ("final_accuracy", _ASYNC),
    "adversary.rejected": ("final_accuracy", _ASYNC),
    "events.schedule.calls": ("round_cpu_s.p50", _ASYNC),
    "events.pop.calls": ("round_cpu_s.p50", _ASYNC),
    "events.self_s": ("round_cpu_s.p50", _ASYNC),
    "events.backlog_max": ("delivered_share", _ASYNC),
    "sharding.train_round.self_s": ("updates_per_cpu_s", "fleet-async-spawn -> bypassed elsewhere"),
    "sharding.shard_busy_s": ("updates_per_cpu_s", "fleet-async-spawn -> bypassed elsewhere"),
    "sharding.merge_s": ("updates_per_cpu_s", "fleet-async-spawn -> bypassed elsewhere"),
    "sharding.idle_share": ("updates_per_cpu_s", "fleet-async-spawn -> bypassed elsewhere"),
    "transport.pack.calls": ("updates_per_cpu_s", _PROXY),
    "transport.pack.self_s": ("updates_per_cpu_s", _PROXY),
    "transport.bytes_in": ("updates_per_cpu_s", _PROXY),
    "enclave.decrypt_many.items": ("updates_per_cpu_s", _PROXY),
    "enclave.decrypt_many.self_s": ("updates_per_cpu_s", _PROXY),
    "enclave.decrypt_failures": ("delivered_share", _PROXY),
    "proxy.process_round.self_s": ("updates_per_cpu_s", _PROXY),
    "proxy.received": ("updates_per_cpu_s", _PROXY),
    "proxy.emitted": ("updates_per_cpu_s", _PROXY),
    "proxy.replays_rejected": ("updates_per_cpu_s", _PROXY),
    "defenses.process_round.self_s": ("updates_per_cpu_s", _PROXY),
    "server.broadcast.self_s": ("round_cpu_s.p50", _MERGE),
    "server.receive_and_aggregate.self_s": ("round_cpu_s.p50", _MERGE),
    "aggregation.self_s": ("round_cpu_s.p50", _MERGE),
    "aggregation.rows": ("round_cpu_s.p50", _MERGE),
    "aggregation.kept_share": ("updates_per_cpu_s", _MERGE),
    "integrity.self_s": ("round_cpu_s.p50", _MERGE),
    "integrity.digests": ("round_cpu_s.p50", _MERGE),
    "attacks.craft_broadcast.self_s": ("round_cpu_s.p50", _PAPER_FIRST),
    "attacks.on_round.self_s": ("round_cpu_s.p50", _PAPER_FIRST),
    "attacks.inference_accuracy": ("none (privacy)", _PAPER_FIRST),
    "metrics.eval.calls": ("round_cpu_s.p50", "paper-mixnn (per-client accuracy) -> fleet-*"),
    "metrics.eval.self_s": ("round_cpu_s.p50", "paper-mixnn (per-client accuracy) -> fleet-*"),
    "simulation.run_round.self_s": ("round_cpu_s.p50", _ALL),
    "simulation.merged_share": ("updates_per_cpu_s", _ALL),
    "trace.overhead_share": ("none (measurement cost)", _ALL),
}

#: per-layer self-time metric -> the span keys whose self time it sums
SELF_TIME_KEYS: dict[str, tuple[str, ...]] = {
    "client.local_update.self_s": ("client.local_update",),
    "cohort.train_updates.self_s": ("cohort.train_updates",),
    "nn.forward.self_s": ("nn.forward",),
    "nn.backward.self_s": ("nn.backward",),
    "nn.optim.self_s": ("nn.optim",),
    "data.client_data.self_s": ("data.client_data",),
    "rng.seeded.self_s": ("rng.seeded",),
    "scenario.draws.self_s": ("scenario.draws",),
    "faults.draws.self_s": ("faults.draws",),
    "adversary.poison_round.self_s": ("adversary.poison_round",),
    "events.self_s": ("events.schedule", "events.pop", "events.query"),
    "sharding.train_round.self_s": ("sharding.train_round",),
    "transport.pack.self_s": ("transport.pack",),
    "enclave.decrypt_many.self_s": ("enclave.decrypt_many",),
    "proxy.process_round.self_s": ("proxy.process_round",),
    "defenses.process_round.self_s": ("defenses.process_round",),
    "server.broadcast.self_s": ("server.broadcast",),
    "server.receive_and_aggregate.self_s": ("server.receive_and_aggregate",),
    "aggregation.self_s": ("aggregation",),
    "integrity.self_s": ("integrity",),
    "attacks.craft_broadcast.self_s": ("attacks.craft_broadcast",),
    "attacks.on_round.self_s": ("attacks.on_round",),
    "metrics.eval.self_s": ("metrics.eval",),
    "simulation.run_round.self_s": ("simulation.run_round",),
}

#: per-layer call-count metric -> the span key it counts
CALL_KEYS: dict[str, str] = {
    "client.local_update.calls": "client.local_update",
    "cohort.train_updates.calls": "cohort.train_updates",
    "nn.optim.steps": "nn.optim",
    "data.client_data.calls": "data.client_data",
    "rng.seeded.calls": "rng.seeded",
    "scenario.draws.calls": "scenario.draws",
    "events.schedule.calls": "events.schedule",
    "events.pop.calls": "events.pop",
    "transport.pack.calls": "transport.pack",
    "metrics.eval.calls": "metrics.eval",
}

#: per-layer metrics summed at the boundaries by the entry-point hooks
TALLIES = (
    "enclave.decrypt_many.items",
    "aggregation.rows",
    "integrity.digests",
    "sharding.shard_busy_s",
    "sharding.merge_s",
)


@dataclass
class TraceTotals:
    """What a traced run saw, besides its spans."""

    rounds: int
    #: wall time of the traced rounds, summed
    traced_wall_s: float
    #: traced and untraced CPU time of the same rounds, summed
    traced_cpu_s: float
    untraced_cpu_s: float
    trained: int
    #: rows the aggregation rule merged into the model, and rows it filtered out
    kept: int
    dropped: int
    peak_materialized: int
    inference_accuracy: float
    #: end-of-run counters of the fault ledger, adversary ledger and proxy
    counters: dict[str, float]


def end_of_run_counters(simulation, defense) -> dict[str, float]:
    """The fault ledger's, adversary ledger's and proxy's counters after a run."""
    fault, adversary = simulation.fault_ledger, simulation.adversary_ledger
    proxy = getattr(defense, "proxy", None)
    stats = proxy.stats if proxy is not None else None
    return {
        "faults.injected": fault.injected,
        "faults.retried": fault.retried,
        "faults.failed_over": fault.failed_over,
        "faults.discarded": fault.discarded,
        "adversary.injected": adversary.injected,
        "adversary.merged": adversary.merged,
        "adversary.filtered": adversary.filtered,
        "adversary.rejected": adversary.rejected,
        "transport.bytes_in": stats.bytes_in if stats else 0,
        "enclave.decrypt_failures": stats.decrypt_failures if stats else 0,
        "proxy.received": stats.received if stats else 0,
        "proxy.emitted": stats.emitted if stats else 0,
        "proxy.replays_rejected": stats.replays_rejected if stats else 0,
    }


def layer_metrics(tracer: Tracer, totals: TraceTotals) -> dict[str, float]:
    """Every per-layer metric, per traced round unless it is a peak or share."""
    rounds = max(1, totals.rounds)
    self_by_key: dict[str, float] = {}
    calls_by_key: dict[str, int] = {}
    for name_id, self_s, round_id in zip(tracer.span_name, tracer.self_times(), tracer.span_round):
        if round_id < 0:
            continue
        key = tracer.keys[name_id]
        self_by_key[key] = self_by_key.get(key, 0.0) + self_s
        calls_by_key[key] = calls_by_key.get(key, 0) + 1
    out: dict[str, float] = {}
    for metric, keys in SELF_TIME_KEYS.items():
        out[metric] = sum(self_by_key.get(k, 0.0) for k in keys) / rounds
    for metric, key in CALL_KEYS.items():
        out[metric] = calls_by_key.get(key, 0) / rounds
    for metric in TALLIES:
        out[metric] = tracer.tallies.get(metric, 0.0) / rounds
    for metric, value in totals.counters.items():
        out[metric] = value / rounds
    shards = tracer.peaks.get("sharding.shards", 0.0)
    busy = tracer.tallies.get("sharding.shard_busy_s", 0.0)
    out["sharding.idle_share"] = (
        1.0 - busy / (shards * totals.traced_wall_s) if shards and totals.traced_wall_s else 0.0
    )
    out["events.backlog_max"] = tracer.peaks.get("events.backlog_max", 0.0)
    out["client.peak_materialized"] = float(totals.peak_materialized)
    filtered = totals.kept + totals.dropped
    out["aggregation.kept_share"] = totals.kept / filtered if filtered else 0.0
    out["attacks.inference_accuracy"] = totals.inference_accuracy
    out["simulation.merged_share"] = totals.kept / totals.trained if totals.trained else 0.0
    out["trace.overhead_share"] = (
        totals.traced_cpu_s / totals.untraced_cpu_s - 1.0 if totals.untraced_cpu_s else 0.0
    )
    missing = set(PREDICTIONS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {name: out[name] for name in PREDICTIONS}


def root_wall_s(tracer: Tracer) -> float:
    """Wall time of the traced rounds: the summed root spans."""
    return sum(
        end - start
        for name_id, start, end in zip(tracer.span_name, tracer.span_start, tracer.span_end)
        if tracer.keys[name_id] == "simulation.run_round"
    )


def coverage(metrics: dict[str, float], rounds: int, wall_s: float) -> float:
    """The reported self times, summed over the rounds, as a share of their wall time.

    Every span nests inside a round on one thread and the round's own self
    time is the remainder, so this is 1 unless a span key is left out of
    ``SELF_TIME_KEYS`` or spans escape their round.
    """
    return sum(metrics[m] for m in SELF_TIME_KEYS) * rounds / wall_s if wall_s else 0.0


def attributed_share(metrics: dict[str, float], rounds: int, wall_s: float) -> float:
    """The share of the traced round wall time that the named layers explain."""
    return 1.0 - metrics["simulation.run_round.self_s"] * rounds / wall_s if wall_s else 0.0
