"""Round orchestration: the full federated pipeline of Figures 2 and 3.

:class:`FederatedSimulation` wires together a dataset simulator, the client
fleet, an optional defense (noisy gradient or the MixNN proxy), an optional
∇Sim adversary on the server, and the aggregation server itself, then runs
the configured number of learning rounds while recording the metrics the
paper's figures are built from:

* per-round global-model accuracy (Figure 5),
* per-client accuracy at each round (Figure 6),
* cumulative inference accuracy of the attack (Figures 7–8),
* received raw updates for the §6.4 neighbor analysis (Figure 9).

Scenario engine
---------------
A :class:`~repro.federated.scenario.ScenarioConfig` on the simulation config
moves the round loop from the paper's idealized synchronous flow to a
production regime: per-round client churn (availability models), stragglers
cut by a deadline (latency models), and FedBuff-style buffered-async
aggregation where the server merges the first ``buffer_size`` arrivals and
late updates land in later rounds down-weighted by their staleness.  The
default ``ScenarioConfig()`` (also what ``scenario=None`` means) is the
paper's flow: everyone selected trains, arrives at the broadcast instant,
and is merged in selection order.

Virtual-time round engine
-------------------------
Every round executes as a discrete-event simulation over one persistent
virtual clock (:mod:`repro.federated.events`): each dispatched client's
update arrives at ``dispatch_time + latency``, the server consumes arrivals
*in time order*, and the three round-closure schemes are three flush
policies over the same event stream — sync waits for every dispatched
client, a deadline closes the round at ``T`` while anyone is outstanding,
and buffered-async closes on the K-th buffered arrival.  Round durations,
arrival timestamps, idle fractions, and throughput are therefore *measured*
on the event stream rather than inferred from bookkeeping, and in-flight
async updates genuinely stay in transit (their arrival events survive the
round boundary and pop whenever the clock reaches them).

There is one round loop and one event queue (a
:class:`~repro.federated.events.CalendarQueue`).  Every scenario decision is
a pure function of ``(seed, client_id, round)`` with deterministic event
tie-breaking, so results remain bit-identical across ``parallelism``,
``cohort_batching`` (Linear nets) and ``num_shards`` settings.  Local
training always runs to completion before its arrival events are scheduled
— virtual time orders the *arrivals*, not the training computation.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from typing import TYPE_CHECKING

from ..data.federated import FederatedDataset
from ..metrics.accuracy import model_accuracy, per_client_accuracies

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..defenses.base import Defense
from ..nn import Module
from ..utils.rng import rng_from_seed, stable_seed
from .client import ClientPopulation, FederatedClient, LocalTrainingConfig
from .cohort import CohortTrainer
from .events import (
    BufferedFlushPolicy,
    BufferFlush,
    CalendarQueue,
    ClientUpdateArrival,
    FlushPolicy,
    QuorumFlushPolicy,
    RoundDeadline,
    SyncFlushPolicy,
    TransmissionFailure,
)
from .adversary import AdversaryInjector, AdversaryLedger, update_contributors
from .aggregation import AGGREGATION_RULES, AggregationPolicy
from .faults import POST_FLUSH_KINDS, FaultInjector, FaultLedger
from ..nn.serialization import schema_of
from .scenario import AlwaysAvailable, ScenarioConfig
from .server import AggregationServer
from .sharding import SHARD_BACKENDS, ShardedRoundEngine
from .update import ModelUpdate

__all__ = ["SimulationConfig", "RoundRecord", "SimulationResult", "FederatedSimulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """Experiment-level knobs (paper §6.1.4 per-dataset values).

    ``parallelism`` controls how many clients train concurrently each round
    (a thread pool; the numpy/BLAS kernels release the GIL).  Every client
    derives its training RNG from ``stable_seed(seed, client_id, round)``
    independently of execution order, so results are bit-identical across
    parallelism settings — and ``parallelism=1`` takes the exact sequential
    code path.  ``None`` sizes the pool to the machine.

    ``scenario`` sets the round loop's churn/straggler/async regime (see
    :class:`~repro.federated.scenario.ScenarioConfig`); ``None`` means
    ``ScenarioConfig()``, the paper's idealized synchronous flow.
    """

    rounds: int
    local: LocalTrainingConfig
    clients_per_round: int | None = None  # None = all clients every round
    seed: int = 0
    sample_weighted: bool = False
    track_per_client_accuracy: bool = True
    parallelism: int | None = 1
    #: keep every round's received updates for post-hoc analysis (Figure 9,
    #: mixing-quality extensions).  Disable for long/large runs where the
    #: per-round history would grow without bound.
    retain_received_updates: bool = True
    #: churn / straggler / async operating regime; ``None`` means
    #: ``ScenarioConfig()`` (the paper flow).
    scenario: ScenarioConfig | None = None
    #: server aggregation rule — a name from
    #: :data:`~repro.federated.aggregation.AGGREGATION_RULES` or a full
    #: :class:`~repro.federated.aggregation.AggregationPolicy`.  ``"mean"``
    #: (the default) is classical FedAvg.
    aggregation: "str | AggregationPolicy" = "mean"
    #: leaf-shard count of the sharded training plane.  ``0`` (the default)
    #: trains in process.  ``>= 1`` partitions every round's cohort into
    #: that many leaf shards (training + partial witness + hierarchical
    #: transcript); the server still merges the round once, and the rows are
    #: byte-equal to in-process training by the contract of
    #: :mod:`repro.federated.sharding`.  A round whose cohort is smaller than
    #: ``num_shards`` raises a typed ``ShardPlanError``.
    num_shards: int = 0
    #: how leaf shards execute — ``"inline"`` (in-process, the shard
    #: workers without IPC) or ``"process"`` (a spawn pool over
    #: ``multiprocessing.shared_memory``; requires a picklable ``model_fn``
    #: such as :class:`~repro.experiments.models.ModelFactory`).
    shard_backend: str = "inline"
    #: train each round's cohort as one stacked ``(M, ...)`` batched
    #: forward/backward (see :mod:`repro.federated.cohort`) instead of one
    #: client at a time.  ``False`` (the default) keeps the serial reference.
    #: Per-client results are bit-identical to serial for Linear/elementwise
    #: architectures and within 1e-6 relative tolerance for conv/locally
    #: connected ones; composes with ``num_shards`` (each shard trains its
    #: slice as one stacked pass).
    cohort_batching: bool = False

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.scenario is None:
            object.__setattr__(self, "scenario", ScenarioConfig())
        if isinstance(self.aggregation, str) and self.aggregation not in AGGREGATION_RULES:
            raise ValueError(
                f"unknown aggregation rule {self.aggregation!r}; choose one of "
                f"{AGGREGATION_RULES} or pass an AggregationPolicy"
            )
        if self.clients_per_round is not None and self.clients_per_round < 1:
            raise ValueError(
                f"clients_per_round must be >= 1 (or None for the full cohort), "
                f"got {self.clients_per_round} — a round with no selected clients "
                "can never produce updates to aggregate"
            )
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1 (or None for auto), got {self.parallelism}")
        if self.num_shards < 0:
            raise ValueError(
                f"num_shards must be >= 0 (0 = train in process), got {self.num_shards}"
            )
        if self.shard_backend not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown shard backend {self.shard_backend!r}; choose from {SHARD_BACKENDS}"
            )

    def aggregation_policy(self) -> AggregationPolicy:
        """The server policy this config selects."""
        if isinstance(self.aggregation, AggregationPolicy):
            return self.aggregation
        return AggregationPolicy(rule=self.aggregation)


@dataclass
class RoundRecord:
    """Metrics captured at the end of one learning round.

    The ``num_*`` counters and ``simulated_duration`` describe the event
    engine's view of the round (selection → churn → deadline → buffer).
    Under the default ``ScenarioConfig()`` they degenerate to "everyone
    selected arrived at the broadcast instant, nothing was stale, duration
    0", and ``arrival_times`` still lists every merged arrival.
    """

    round_index: int
    global_accuracy: float
    per_client_accuracy: dict[int, float] = field(default_factory=dict)
    mean_local_loss: float = float("nan")
    inference_accuracy: float | None = None
    #: clients picked by the selection RNG this round
    num_selected: int = 0
    #: selected clients lost to churn (availability model said no)
    num_dropped: int = 0
    #: surviving clients that missed the sync deadline (trained in async mode)
    num_stragglers: int = 0
    #: updates the server actually merged this round (post defense)
    num_aggregated: int = 0
    #: merged updates that arrived late (staleness >= 1, async mode)
    num_stale: int = 0
    #: in-flight updates discarded for exceeding max_staleness
    num_discarded: int = 0
    #: simulated wall-clock seconds from broadcast to aggregation, measured
    #: on the event stream (flush time − round start)
    simulated_duration: float = 0.0
    #: virtual-clock timestamp at which this round's broadcast went out
    round_start: float = 0.0
    #: ``(sender_id, absolute arrival time)`` of every merged update, in the
    #: order the server consumed them (time order) — the observable event
    #: stream a timing side-channel adversary sees
    arrival_times: list[tuple[int, float]] = field(default_factory=list)
    #: true dispatch→arrival span of each merged update, aligned with
    #: ``arrival_times``.  For a stale buffered-async arrival this covers the
    #: full transit from *its* broadcast, not just the residual wait in the
    #: round that finally merged it.
    merged_latencies: list[float] = field(default_factory=list)
    #: fraction of the round during which the average merged participant sat
    #: idle after uploading (waiting for the round to close); 0 when the
    #: round took no simulated time
    idle_fraction: float = 0.0
    #: merged updates per simulated second (0 when the round took no
    #: simulated time, i.e. no latency model was configured)
    effective_throughput: float = 0.0
    #: surviving clients killed mid-training by the fault injector
    num_crashed: int = 0
    #: payloads (arrivals + pending retries) still in transit when the round
    #: closed — they land, retried or stale, in a later round
    num_carried_forward: int = 0
    #: fault-ledger entries handled during this round
    num_faults: int = 0
    #: of those, resolved by a backoff retry (plus failover retransmissions)
    num_retries: int = 0
    #: of those, resolved by failing over to fresh infrastructure
    num_failed_over: int = 0
    #: of those, discarded after exhausting the attempt budget
    num_fault_discarded: int = 0
    #: total simulated seconds spent on recovery (backoffs, failover setup)
    recovery_seconds: float = 0.0
    #: quorum size the sync flush policy would settle for (0 = no fault plane)
    quorum_target: int = 0
    #: individual non-zero recovery delays, for percentile summaries
    recovery_latencies: list[float] = field(default_factory=list)
    #: trained updates poisoned by the adversary plane this round
    num_poisoned: int = 0
    #: poisons (injected this or an earlier round) that reached the global
    #: model at this round's merge — directly or as a chimera layer source
    num_poison_merged: int = 0
    #: poisons filtered out at this round's merge by the aggregation policy
    num_poison_filtered: int = 0
    #: replayed ciphertexts the proxy's replay guard rejected this round
    num_replays_rejected: int = 0
    #: updates the aggregation policy dropped at this round's merge
    #: (participant-level filtering: norm filter / Krum selection)
    num_filtered: int = 0


@dataclass
class SimulationResult:
    """Everything an experiment needs after a run."""

    rounds: list[RoundRecord]
    final_state: dict
    defense_name: str
    #: raw updates per round as received by the server (Figure 9 input)
    received_updates: list[list[ModelUpdate]]
    attack: object | None = None
    #: the run's :class:`~repro.federated.faults.FaultLedger` (empty without
    #: a fault plane) — every injected fault and its resolution
    fault_ledger: FaultLedger | None = None
    #: the run's :class:`~repro.federated.adversary.AdversaryLedger` (empty
    #: without an adversary plane) — every injected attack and its resolution
    adversary_ledger: AdversaryLedger | None = None
    #: the server's hash-chained round transcript (always present)
    transcript: object | None = None
    #: the hierarchical shard transcript (``None`` unless the run sharded) —
    #: one hash chain per leaf aggregator plus a root chain over shard heads
    shard_transcript: object | None = None

    def accuracy_curve(self) -> list[float]:
        return [r.global_accuracy for r in self.rounds]

    def inference_curve(self) -> list[tuple[int, float]]:
        """Attack accuracy as explicit ``(round_index, value)`` pairs.

        Rounds without a measurement (no attack attached, or an attack that
        starts late) are omitted — carrying the round index keeps the curve
        alignable with :meth:`accuracy_curve`, which covers every round.
        Use :meth:`inference_values` for the bare value list.
        """
        return [
            (r.round_index, r.inference_accuracy)
            for r in self.rounds
            if r.inference_accuracy is not None
        ]

    def inference_values(self) -> list[float]:
        """Just the measured attack-accuracy values, in round order."""
        return [value for _, value in self.inference_curve()]

    def _round_timing(self):
        """One shared definition of the run-level wall-clock aggregates —
        delegating keeps these methods and the frontier/benchmark tables
        (which use :func:`~repro.metrics.latency.summarize_round_timing`
        directly) from ever drifting apart."""
        from ..metrics.latency import summarize_round_timing

        return summarize_round_timing(self.rounds)

    def total_simulated_seconds(self) -> float:
        """Virtual-clock span of the whole run (rounds are contiguous)."""
        return self._round_timing().total_seconds

    def effective_throughput(self) -> float:
        """Merged updates per simulated second over the whole run (0 if no
        simulated time elapsed, e.g. without a latency model)."""
        return self._round_timing().effective_throughput

    def mean_idle_fraction(self) -> float:
        """Mean per-round idle fraction over rounds that took simulated time."""
        return self._round_timing().mean_idle_fraction

    def arrival_log(self) -> list[tuple[int, int, float]]:
        """Flattened ``(round_index, sender_id, arrival_time)`` event stream.

        This is the adversary-observable timing trace consumed by
        :class:`~repro.attacks.timing.TimingSideChannel`.
        """
        return [
            (record.round_index, sender_id, arrival_time)
            for record in self.rounds
            for sender_id, arrival_time in record.arrival_times
        ]

    def per_client_accuracy_at(self, round_index: int) -> dict[int, float]:
        """Per-client accuracies at a given round (Figure 6 uses round 6)."""
        for record in self.rounds:
            if record.round_index == round_index:
                if not record.per_client_accuracy:
                    raise ValueError(f"per-client accuracy was not tracked at round {round_index}")
                return record.per_client_accuracy
        raise KeyError(f"no record for round {round_index}")


class FederatedSimulation:
    """End-to-end federated run with pluggable defense and adversary."""

    def __init__(
        self,
        dataset: FederatedDataset,
        model_fn: Callable[[np.random.Generator], Module],
        config: SimulationConfig,
        defense: "Defense | None" = None,
        attack=None,
    ) -> None:
        from ..defenses.base import NoDefense

        self.dataset = dataset
        self.model_fn = model_fn
        self.config = config
        self.defense = defense or NoDefense()
        self.attack = attack
        # Independent streams: client sampling must be identical across runs
        # that differ only in defense, so utility curves are comparable
        # point-for-point (and exactly equal for MixNN vs classical FL).
        self._selection_rng = rng_from_seed(stable_seed(config.seed, "selection"))
        self._defense_rng = rng_from_seed(stable_seed(config.seed, "defense"))
        # The run's one received-update history (the server keeps none).
        self._received_log: list[list[ModelUpdate]] = []
        # Completed-round records live on the instance (not a run() local) so
        # checkpoint/resume can restart mid-run from the last finished round.
        self._records: list[RoundRecord] = []
        # The persistent virtual clock: arrival/deadline/flush events live
        # here across rounds, so buffered-async updates genuinely stay in
        # transit over round boundaries (their events pop when the clock
        # reaches them).
        self._scheduler = CalendarQueue()
        # One evaluation replica per simulation: model_accuracy would
        # otherwise rebuild a scratch model from model_fn every round.
        self._eval_model: Module | None = None

        # The client plane: descriptors for everyone, FederatedClient
        # replicas only for the rounds that select them.  Eager datasets
        # retain materialized clients for the run (replica reuse, the legacy
        # behavior); lazy populations release them after each round.
        self.population = ClientPopulation.for_dataset(
            dataset, model_fn, config.local, seed=config.seed
        )
        initial_model = model_fn(rng_from_seed(config.seed))
        broadcast_hook = None
        if attack is not None and getattr(attack, "mode", None) == "active":
            broadcast_hook = attack.craft_broadcast
        scenario = config.scenario
        # Fault plane: one injector (pure hash draws, stateless) and one
        # append-only ledger per run.  Without a FaultConfig the injector is
        # None and every fault hook below is a no-op.
        faults = scenario.faults
        self.fault_ledger = FaultLedger()
        self._fault_injector = FaultInjector(config.seed, faults) if faults is not None else None
        # Byzantine adversary plane: same shape as the fault plane — one
        # deterministic injector, one append-only ledger.  Without an
        # AdversaryConfig both are inert and every hook below is a no-op.
        self.adversary_ledger = AdversaryLedger()
        self._adversary_injector = (
            AdversaryInjector(config.seed, scenario.adversary)
            if scenario.adversary is not None
            else None
        )
        # Sharded training plane: one root-side engine per run, owning the
        # shard plan, the (lazy) spawn pool + shared-memory plane, and the
        # hierarchical transcript.  num_shards=0 trains in process.
        self._shard_engine: ShardedRoundEngine | None = None
        if config.num_shards >= 1:
            self._shard_engine = ShardedRoundEngine(
                population=self.population,
                schema=schema_of(initial_model.state_dict()),
                num_shards=config.num_shards,
                backend=config.shard_backend,
                seed=config.seed,
                fault_injector=self._fault_injector,
                fault_ledger=self.fault_ledger,
                dataset=dataset,
                model_fn=model_fn,
                local_config=config.local,
                capacity=config.clients_per_round or len(self.population),
                cohort_batching=config.cohort_batching,
            )
        # Cohort-batched training plane (non-sharded path): one trainer per
        # run, validating the architecture up front.  With shards the engine
        # above owns the (per-shard) trainers instead.
        self._cohort_trainer: CohortTrainer | None = None
        if config.cohort_batching and self._shard_engine is None:
            self._cohort_trainer = CohortTrainer(
                self.population, schema_of(initial_model.state_dict())
            )
        self.server = AggregationServer(
            initial_model.state_dict(),
            sample_weighted=config.sample_weighted,
            broadcast_hook=broadcast_hook,
            # Quorum rounds carry unmerged payloads forward as stale, so a
            # fault plane needs the staleness discount even in sync mode
            # (aggregation is unchanged until something stale actually lands).
            staleness_alpha=(
                scenario.staleness_alpha if scenario.is_async or faults is not None else None
            ),
            fault_injector=self._fault_injector,
            fault_ledger=self.fault_ledger,
            policy=config.aggregation_policy(),
        )
        if self._fault_injector is not None:
            self.defense.attach_fault_plane(self._fault_injector, self.fault_ledger)
        if self._adversary_injector is not None:
            self.defense.attach_adversary_plane(self._adversary_injector, self.adversary_ledger)
        if attack is not None:
            if getattr(attack, "truth", None) is None:
                attack.truth = {c.client_id: c.attribute for c in dataset.clients()}
            self.server.add_observer(attack)

    # ------------------------------------------------------------------
    # Round loop
    # ------------------------------------------------------------------
    def _select_client_ids(self) -> list[int]:
        """Draw this round's cohort as client ids, without materializing.

        The draw is over the population *size* — one ``rng.choice`` call and
        ``clients_per_round`` id lookups, regardless of how many clients
        exist — so selecting never materializes a client.
        """
        count = self.config.clients_per_round
        size = len(self.population)
        if count is None or count >= size:
            return self.population.client_ids(range(size))
        chosen = self._selection_rng.choice(size, size=count, replace=False)
        return self.population.client_ids(sorted(int(index) for index in chosen))

    def _train_cohort(
        self, client_ids: list[int], broadcast_state: dict, round_index: int
    ) -> list[ModelUpdate]:
        """Train a round's cohort, by id, through the configured data plane.

        With ``num_shards=0`` this trains in process (cohort-batched, or
        materialize + thread-pool training); with shards the cohort routes
        through the :class:`~repro.federated.sharding.ShardedRoundEngine`,
        bit-identical rows either way.  The caller releases the cohort.
        """
        if self._shard_engine is not None:
            return self._shard_engine.train_round(client_ids, broadcast_state, round_index)
        if self._cohort_trainer is not None:
            return self._cohort_trainer.train_updates(client_ids, broadcast_state, round_index)
        participants = self.population.materialize(client_ids)
        return self._train_clients(participants, broadcast_state, round_index)

    def _train_clients(
        self, participants: list[FederatedClient], broadcast_state: dict, round_index: int
    ) -> list[ModelUpdate]:
        """Run local training for all selected clients, possibly in parallel.

        The update list is always in ``participants`` order, and each client's
        RNG is derived from its id and the round alone, so the result does not
        depend on the parallelism setting.
        """
        workers = self.config.parallelism
        if workers is None:
            workers = min(len(participants), os.cpu_count() or 1)
        if workers <= 1 or len(participants) <= 1:
            return [client.local_update(broadcast_state, round_index) for client in participants]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(
                pool.map(lambda c: c.local_update(broadcast_state, round_index), participants)
            )

    @staticmethod
    def _mean_local_loss(updates: list[ModelUpdate]) -> float:
        """Mean of the reported final losses, NaN-safe.

        Defense-only or instrumentation runs may produce updates without a
        ``final_loss`` (or with a NaN one); those are excluded rather than
        poisoning the mean or emitting a RuntimeWarning on an empty slice.
        """
        losses = [
            loss
            for u in updates
            if (loss := u.metadata.get("final_loss")) is not None and np.isfinite(loss)
        ]
        if not losses:
            return float("nan")
        return float(np.mean(losses))

    @property
    def _evaluation_model(self) -> Module:
        """Cached scratch replica for accuracy evaluation (built once)."""
        if self._eval_model is None:
            self._eval_model = self.model_fn(rng_from_seed(0))
        return self._eval_model

    # ------------------------------------------------------------------
    # Event engine (virtual time)
    # ------------------------------------------------------------------
    def _schedule_transmission(
        self, update: ModelUpdate, dispatch_time: float, origin_round: int, attempt: int
    ) -> None:
        """Schedule one transmission attempt, drawing its transport faults.

        Attempt 0 of a fault-free draw produces an arrival event with exactly
        the fields the non-faulted dispatch path would — bit-identical event
        stream.  A retry (``attempt >= 1``) redraws its transit latency; its
        arrival's ``latency`` spans the *full* dispatch→arrival interval
        including every backoff, so merged-latency metrics tell the truth.
        """
        injector = self._fault_injector
        faults = self.config.scenario.faults
        client_id = update.sender_id
        base = update.metadata.get("latency", 0.0)
        transit = (
            base
            if attempt == 0
            else injector.retry_latency(base, client_id, origin_round, attempt)
        )
        origin_dispatch = update.metadata.get("dispatch_time", dispatch_time)
        if faults.hop_timeout is not None and transit > faults.hop_timeout:
            # The per-hop ack timer expires before the frame lands: the
            # sender learns at dispatch + timeout, not after the full transit.
            self._scheduler.schedule(
                TransmissionFailure(
                    time=dispatch_time + faults.hop_timeout,
                    client_id=client_id,
                    origin_round=origin_round,
                    dispatch_time=dispatch_time,
                    latency=transit,
                    attempt=attempt,
                    kind="timeout",
                    update=update,
                )
            )
            return
        if injector.frame_fault(client_id, origin_round, attempt):
            # Corruption is detected by the receiver at the would-be arrival
            # instant (RW01 framing surfaces it as a typed error, never a
            # silent mis-parse) and NACKed back.
            self._scheduler.schedule(
                TransmissionFailure(
                    time=dispatch_time + transit,
                    client_id=client_id,
                    origin_round=origin_round,
                    dispatch_time=dispatch_time,
                    latency=transit,
                    attempt=attempt,
                    kind="frame",
                    update=update,
                )
            )
            return
        arrival_time = dispatch_time + transit
        self._scheduler.schedule(
            ClientUpdateArrival(
                time=arrival_time,
                client_id=client_id,
                origin_round=origin_round,
                dispatch_time=origin_dispatch,
                latency=arrival_time - origin_dispatch,
                update=update,
            )
        )

    def _replay_until_flush(
        self, round_index: int, policy: FlushPolicy, expected: int
    ) -> tuple[list[ClientUpdateArrival], float, int, int]:
        """Consume events in time order until the round's flush fires.

        Returns ``(merged, flush_time, discarded, lost)``: the arrival events
        the server buffered (in consumption = time order), the virtual-clock
        timestamp at which the round closed, how many arrivals were discarded
        for exceeding ``max_staleness``, and how many payloads were lost to
        transport faults after exhausting their attempt budget.  ``expected``
        is the number of payload events that can still resolve this round
        (this round's dispatches plus the in-flight backlog).
        """
        scenario = self.config.scenario
        scheduler = self._scheduler
        ledger = self.fault_ledger
        merged: list[ClientUpdateArrival] = []
        discarded = 0
        lost = 0
        deadline_lapsed = False
        while True:
            if len(scheduler) == 0:
                # Nothing else can ever arrive: close at the current clock
                # (buffered-async with fewer than K reachable arrivals).
                return merged, scheduler.now, discarded, lost
            event = scheduler.pop()
            if isinstance(event, ClientUpdateArrival):
                staleness = round_index - event.origin_round
                if scenario.max_staleness is not None and staleness > scenario.max_staleness:
                    discarded += 1
                else:
                    merged.append(event)
                outstanding = expected - len(merged) - discarded - lost
                if merged and (
                    deadline_lapsed or policy.should_flush(len(merged), outstanding)
                ):
                    # Close *at this instant*: the flush outranks same-time
                    # arrivals still in the heap, so exactly this buffer is
                    # merged (FedBuff's "first K", sync's "all dispatched").
                    scheduler.schedule(BufferFlush(time=event.time, round_index=round_index))
            elif isinstance(event, TransmissionFailure):
                faults = scenario.faults
                if event.attempt + 1 >= faults.max_attempts:
                    # Attempt budget exhausted: the payload is gone.  The
                    # flush condition must be re-checked — one fewer payload
                    # can ever arrive, which may make the round closeable.
                    ledger.record(
                        event.kind, event.client_id, round_index, event.attempt, "discarded"
                    )
                    lost += 1
                    outstanding = expected - len(merged) - discarded - lost
                    if merged and (
                        deadline_lapsed or policy.should_flush(len(merged), outstanding)
                    ):
                        scheduler.schedule(BufferFlush(time=event.time, round_index=round_index))
                else:
                    delay = self._fault_injector.backoff(
                        event.kind, event.client_id, event.origin_round, event.attempt
                    )
                    ledger.record(
                        event.kind,
                        event.client_id,
                        round_index,
                        event.attempt,
                        "retried",
                        delay_seconds=delay,
                    )
                    self._schedule_transmission(
                        event.update, event.time + delay, event.origin_round, event.attempt + 1
                    )
            elif isinstance(event, BufferFlush):
                if event.round_index == round_index:
                    return merged, event.time, discarded, lost
            elif isinstance(event, RoundDeadline):
                if event.round_index == round_index:
                    if merged:
                        return merged, event.time, discarded, lost
                    # The timer fired before anything arrived, but updates may
                    # still be in transit — a server cannot aggregate nothing,
                    # so the round stays open and closes at the very next
                    # merged arrival instead (buffered-async corner; a sync
                    # round always has at least one sub-deadline arriver).
                    deadline_lapsed = True
                # A deadline from an earlier round that closed before its
                # timer fired: inert, skip it.

    def _scenario_round(
        self, broadcast_state: dict, round_index: int
    ) -> tuple[list[ModelUpdate], list[ModelUpdate], RoundRecord]:
        """Dispatch, train, and replay one round on the virtual clock.

        Returns ``(arrivals, trained, stats)``: the updates the server will
        see this round (what the defense processes), the updates trained this
        round (for the local-loss metric), and a partially filled
        :class:`RoundRecord` carrying the scenario counters and the measured
        wall-clock fields.
        """
        scenario = self.config.scenario
        seed = self.config.seed
        scheduler = self._scheduler
        round_start = scheduler.now
        # The whole selection → churn → crash → straggler funnel runs on
        # client *ids*: every draw is a pure (seed, client_id, round) hash,
        # so nothing needs materializing until we know who actually trains.
        selected_ids = self._select_client_ids()
        availability = scenario.availability or AlwaysAvailable()
        surviving_ids = availability.filter_available(seed, selected_ids, round_index)
        num_dropped = len(selected_ids) - len(surviving_ids)
        injector = self._fault_injector
        num_crashed = 0
        if injector is not None and scenario.faults.client_crash_rate > 0:
            # Mid-training crashes: the device died after dispatch, so its
            # work (and its update) is simply gone this round — a discarded
            # fault, not churn (the server selected and broadcast to it).
            crashed_ids = injector.crashed_clients(surviving_ids, round_index)
            if crashed_ids:
                crashed_set = set(crashed_ids)
                surviving_ids = [cid for cid in surviving_ids if cid not in crashed_set]
                for client_id in crashed_ids:
                    self.fault_ledger.record(
                        "client-crash", client_id, round_index, 0, "discarded"
                    )
                num_crashed = len(crashed_ids)
        latencies: dict[int, float] = {}
        if scenario.latency is not None:
            latencies = {
                client_id: scenario.latency.latency(seed, client_id, round_index)
                for client_id in surviving_ids
            }
        stats = RoundRecord(
            round_index=round_index,
            global_accuracy=float("nan"),
            num_selected=len(selected_ids),
            num_dropped=num_dropped,
            num_crashed=num_crashed,
            round_start=round_start,
        )

        if not scenario.is_async:
            # Sync-mode stragglers can never be merged (the round closes at
            # the deadline without them), so their training is skipped
            # entirely — dropped work (at population scale they are never
            # even materialized).
            if scenario.deadline is not None:
                arriver_ids = [
                    cid for cid in surviving_ids if latencies[cid] <= scenario.deadline
                ]
            else:
                arriver_ids = surviving_ids
            stats.num_stragglers = len(surviving_ids) - len(arriver_ids)
            if not arriver_ids:
                deadline_part = (
                    f", {stats.num_stragglers} missed the {scenario.deadline}s deadline"
                    if scenario.deadline is not None
                    else ""
                )
                crash_part = f", {num_crashed} crashed mid-training" if num_crashed else ""
                raise RuntimeError(
                    f"round {round_index}: no client survived the scenario — "
                    f"{len(selected_ids)} selected, {stats.num_dropped} dropped out"
                    f"{crash_part}{deadline_part}; lower the dropout probability, "
                    "extend the deadline, or select more clients per round"
                )
            to_train_ids = arriver_ids
            # The server knows dispatch failures (churn) immediately but not
            # who will straggle: while stragglers are outstanding the
            # all-arrived condition is unreachable and only the deadline
            # timer closes the round.
            if injector is not None:
                # Graceful degradation: with a fault plane the server settles
                # for a quorum of the post-crash cohort instead of waiting
                # out a faulty tail.  quorum_fraction=1.0 only fires at the
                # same instant all-arrived would — the fault-free semantics.
                policy: FlushPolicy = QuorumFlushPolicy(
                    quorum_count=scenario.faults.quorum_count(len(surviving_ids)),
                    expected_absent=stats.num_stragglers,
                )
                stats.quorum_target = policy.quorum_count
            else:
                policy = SyncFlushPolicy(expected_absent=stats.num_stragglers)
        else:
            to_train_ids = surviving_ids
            policy = BufferedFlushPolicy(
                buffer_size=scenario.effective_buffer_size(len(to_train_ids))
            )

        # Only the post-funnel cohort is ever materialized: replica + shard
        # construction is deferred to the data plane, and for a lazy
        # population it is released again once the round's updates are merged.
        # Training runs *before* replaying virtual time: each update is a pure
        # function of (client, round), so the event engine only decides when
        # results arrive, never what they are.
        trained = self._train_cohort(to_train_ids, broadcast_state, round_index)
        if self._adversary_injector is not None:
            # Poison after training, before transport: a Byzantine participant
            # trains honestly enough to know the benign distribution (ALIE),
            # then reports poison.  In-place on the flat plane, keyed purely by
            # (seed, client, round) — order- and parallelism-independent.
            attacked = self._adversary_injector.poison_round(
                trained, broadcast_state, round_index, self.adversary_ledger
            )
            stats.num_poisoned = len(attacked)
        if injector is not None:
            # Payloads pending a retry count toward the backlog too: their
            # arrival (or final discard) still resolves in some round.
            in_flight = scheduler.in_flight_count()
        else:
            in_flight = scheduler.pending_arrival_count() if scenario.is_async else 0
        for update in trained:
            latency = latencies.get(update.sender_id, 0.0)
            update.metadata["latency"] = latency
            update.metadata["origin_round"] = round_index
            update.metadata["dispatch_time"] = round_start
            if injector is not None:
                self._schedule_transmission(update, round_start, round_index, 0)
            else:
                scheduler.schedule(
                    ClientUpdateArrival(
                        time=round_start + latency,
                        client_id=update.sender_id,
                        origin_round=round_index,
                        dispatch_time=round_start,
                        latency=latency,
                        update=update,
                    )
                )
        if scenario.deadline is not None:
            scheduler.schedule(
                RoundDeadline(time=round_start + scenario.deadline, round_index=round_index)
            )

        merged, flush_time, discarded, lost = self._replay_until_flush(
            round_index, policy, expected=len(trained) + in_flight
        )
        # The cohort's updates are merged (or in transit as events): a lazy
        # population drops the replicas and shards here, so peak memory
        # tracks the materialized cohort, never the population.
        self.population.release(to_train_ids)
        stats.num_discarded = discarded
        if injector is not None:
            stats.num_carried_forward = scheduler.in_flight_count()
        if scenario.is_async:
            # This round's dispatches still in transit when the buffer
            # flushed (they stay scheduled and land in a later round).
            stats.num_stragglers = sum(
                1 for e in scheduler.pending_arrivals() if e.origin_round == round_index
            )
        if not merged:
            raise RuntimeError(
                f"round {round_index}: the async buffer received no arrivals — "
                f"{len(selected_ids)} selected, {stats.num_dropped} dropped out, "
                f"{scheduler.pending_arrival_count()} still in transit, {discarded} "
                "discarded as too stale, and nothing was left in flight; lower the "
                "dropout probability or select more clients per round"
            )

        arrivals: list[ModelUpdate] = []
        for event in merged:
            update = event.update
            staleness = round_index - event.origin_round
            update.metadata["staleness"] = staleness
            update.metadata["arrival_time"] = event.time
            if staleness > 0:
                stats.num_stale += 1
            arrivals.append(update)
        duration = flush_time - round_start
        stats.simulated_duration = duration
        stats.arrival_times = [(e.client_id, e.time) for e in merged]
        stats.merged_latencies = [e.latency for e in merged]
        if duration > 0.0:
            waits = [flush_time - e.time for e in merged]
            stats.idle_fraction = float(np.mean(waits)) / duration
            # effective_throughput is filled in run_round once num_aggregated
            # (post-defense) is known, so the per-round and run-level numbers
            # count the same thing even under streaming defenses.
        return arrivals, trained, stats

    def run_round(self) -> RoundRecord:
        """One iteration of the Figure 2 / Figure 3 flow."""
        round_index = self.server.round_index
        # Marks into the fault ledger: everything recorded past here was
        # handled during this round and lands on this round's record.
        ledger_mark = len(self.fault_ledger.entries)
        retransmission_mark = self.fault_ledger.retransmissions
        adversary_mark = len(self.adversary_ledger.entries)
        broadcast_state = self.server.broadcast()
        updates, trained, record = self._scenario_round(broadcast_state, round_index)
        mean_loss = self._mean_local_loss(trained)

        received = self.defense.process_round(
            updates, self._defense_rng, broadcast_state=broadcast_state
        )
        new_state = self.server.receive_and_aggregate(received)
        if self.config.retain_received_updates:
            self._received_log.append(received)

        record.num_aggregated = len(received)
        report = self.server.last_aggregation_report
        record.num_filtered = len(report.dropped)
        if self._adversary_injector is not None:
            # Resolve pending poison by who actually contributed to the merge:
            # kept slots' contributors (incl. chimera layer sources) carried
            # the poison into the model; dropped-only contributors were
            # filtered.  Kept wins when a source appears on both sides.
            kept_ids: set[int] = set()
            for i in report.kept:
                kept_ids |= update_contributors(received[i])
            dropped_ids: set[int] = set()
            for i in report.dropped:
                dropped_ids |= update_contributors(received[i])
            self.adversary_ledger.resolve_contributors(kept_ids, dropped_ids - kept_ids)
        adversary_entries = self.adversary_ledger.entries[adversary_mark:]
        if adversary_entries:
            record.num_poison_merged = sum(
                1 for e in adversary_entries if e.resolution == "merged"
            )
            record.num_poison_filtered = sum(
                1 for e in adversary_entries if e.resolution == "filtered"
            )
            record.num_replays_rejected = sum(
                1 for e in adversary_entries if e.kind == "replay"
            )
        new_entries = self.fault_ledger.entries[ledger_mark:]
        if new_entries:
            # Recovery delays of post-flush kinds (enclave retries, proxy
            # failover, attestation, merge retries) happen after the round's
            # flush fired: the virtual clock and the round duration absorb
            # them here.  Transport-kind delays are already embodied in the
            # shifted arrival times the replay measured.
            post_flush = sum(
                e.delay_seconds for e in new_entries if e.kind in POST_FLUSH_KINDS
            )
            if post_flush > 0.0:
                self._scheduler.advance(post_flush)
                record.simulated_duration += post_flush
            record.num_faults = len(new_entries)
            record.num_retries = sum(1 for e in new_entries if e.resolution == "retried") + (
                self.fault_ledger.retransmissions - retransmission_mark
            )
            record.num_failed_over = sum(
                1 for e in new_entries if e.resolution == "failed-over"
            )
            record.num_fault_discarded = sum(
                1 for e in new_entries if e.resolution == "discarded"
            )
            record.recovery_seconds = sum(e.delay_seconds for e in new_entries)
            record.recovery_latencies = [
                e.delay_seconds for e in new_entries if e.delay_seconds > 0.0
            ]
        if record.simulated_duration > 0.0:
            record.effective_throughput = record.num_aggregated / record.simulated_duration
        record.mean_local_loss = mean_loss
        record.global_accuracy = model_accuracy(
            new_state, self.dataset.global_test(), self.model_fn, model=self._evaluation_model
        )
        if self.config.track_per_client_accuracy:
            record.per_client_accuracy = per_client_accuracies(
                new_state, self.dataset.clients(), self.model_fn, model=self._evaluation_model
            )
        if self.attack is not None:
            record.inference_accuracy = self.attack.accuracy_curve()[-1]
        return record

    def run(self) -> SimulationResult:
        """Run all remaining rounds and collect the result bundle.

        Resume-aware: after :meth:`restore_checkpoint` only the rounds not
        yet in the record list execute, so a killed run restarted from its
        last checkpoint produces bit-identical records and final weights.
        """
        try:
            while len(self._records) < self.config.rounds:
                self._records.append(self.run_round())
        finally:
            # The spawn pool and its /dev/shm segments must not outlive the
            # run, however it ends; the engine respawns lazily if reused.
            self.close()
        if self._adversary_injector is not None:
            # Poison still in flight when the run ends never reached the
            # model: sweep it as filtered so the ledger always balances.
            self.adversary_ledger.resolve_stranded("filtered")
        return SimulationResult(
            rounds=list(self._records),
            final_state=self.server.global_state,
            defense_name=self.defense.name,
            received_updates=self._received_log,
            attack=self.attack,
            fault_ledger=self.fault_ledger,
            adversary_ledger=self.adversary_ledger,
            transcript=self.server.transcript,
            shard_transcript=(
                self._shard_engine.transcript if self._shard_engine is not None else None
            ),
        )

    def close(self) -> None:
        """Release the sharded data plane's pool and shared segments, if any."""
        if self._shard_engine is not None:
            self._shard_engine.close()

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self) -> bytes:
        """Serialize everything needed to resume after the last finished round.

        Clients are *not* serialized: their training RNG is a pure function
        of ``(seed, client_id, round)``, so they are stateless across rounds.
        What does carry state — the RNG streams, the virtual clock with its
        in-flight events, the defense (a MixNN proxy may hold enclave keys
        and mixing RNG state), the fault ledger, and the server's aggregate —
        is pickled.  Attacks hold arbitrary observer state and are not
        supported.
        """
        if self.attack is not None:
            raise RuntimeError(
                "checkpoint/resume does not support an attached attack — "
                "attacks hold arbitrary observer state outside the simulation"
            )
        state = {
            "version": 1,
            "seed": self.config.seed,
            "records": self._records,
            "server_round_index": self.server.round_index,
            "global_state": {k: v.copy() for k, v in self.server.global_state.items()},
            "selection_rng": self._selection_rng.bit_generator.state,
            "defense_rng": self._defense_rng.bit_generator.state,
            "scheduler": self._scheduler,
            "received_log": self._received_log,
            "defense": self.defense,
            "ledger": self.fault_ledger,
            "adversary_ledger": self.adversary_ledger,
            "transcript": self.server.transcript,
        }
        if self._shard_engine is not None:
            # The pool and shared plane are never pickled (rebuilt lazily);
            # what persists is the plan, the in-flight shard set, and the
            # hierarchical transcript.
            state["shard_state"] = self._shard_engine.checkpoint_state()
        return pickle.dumps(state)

    def restore_checkpoint(self, blob: bytes) -> None:
        """Restore state captured by :meth:`checkpoint` (same config + seed)."""
        if self.attack is not None:
            raise RuntimeError(
                "checkpoint/resume does not support an attached attack — "
                "attacks hold arbitrary observer state outside the simulation"
            )
        state = pickle.loads(blob)
        if state.get("version") != 1:
            raise ValueError(f"unsupported checkpoint version {state.get('version')!r}")
        if state.get("seed") != self.config.seed:
            raise ValueError(
                f"checkpoint was taken with seed {state.get('seed')}, this simulation "
                f"is configured with seed {self.config.seed} — resuming would not be "
                "bit-identical"
            )
        self._records = list(state["records"])
        self.server.round_index = state["server_round_index"]
        self.server.global_state = state["global_state"]
        self._selection_rng.bit_generator.state = state["selection_rng"]
        self._defense_rng.bit_generator.state = state["defense_rng"]
        self._scheduler = state["scheduler"]
        self._received_log = list(state["received_log"])
        self.defense = state["defense"]
        self.fault_ledger = state["ledger"]
        self.adversary_ledger = state.get("adversary_ledger") or AdversaryLedger()
        transcript = state.get("transcript")
        if transcript is not None:
            self.server.transcript = transcript
        shard_state = state.get("shard_state")
        if self._shard_engine is not None and shard_state is not None:
            self._shard_engine.restore_checkpoint_state(shard_state)
        # Re-wire the live fault plane: the unpickled defense carries copies
        # of the hooks; point everything back at this simulation's objects.
        self.server._fault_ledger = self.fault_ledger
        if self._fault_injector is not None:
            self.server._fault_injector = self._fault_injector
            self.defense.attach_fault_plane(self._fault_injector, self.fault_ledger)
        if self._adversary_injector is not None:
            self.defense.attach_adversary_plane(self._adversary_injector, self.adversary_ledger)

    def save_checkpoint(self, path) -> None:
        """Write :meth:`checkpoint` bytes to ``path``."""
        with open(path, "wb") as handle:
            handle.write(self.checkpoint())

    def load_checkpoint(self, path) -> None:
        """Restore from a file written by :meth:`save_checkpoint`."""
        with open(path, "rb") as handle:
            self.restore_checkpoint(handle.read())
