"""Virtual-time event scheduler: determinism, tie-breaking, bit-identity."""

import numpy as np
import pytest

from repro.defenses import MixNNDefense
from repro.federated import (
    FederatedSimulation,
    FixedLatency,
    LocalTrainingConfig,
    LogNormalLatency,
    RandomDropout,
    ScenarioConfig,
    SimulationConfig,
)
from repro.federated.events import (
    BufferedFlushPolicy,
    BufferFlush,
    ClientUpdateArrival,
    EventScheduler,
    RoundDeadline,
    SyncFlushPolicy,
)
from repro.experiments.models import paper_cnn
from repro.mixnn.enclave import SGXEnclaveSim
from repro.utils.rng import rng_from_seed


def model_fn_for_dataset(dataset):
    return lambda rng: paper_cnn(dataset.input_shape, dataset.num_classes, rng)


def run_sim(dataset, scenario=None, rounds=3, parallelism=1, seed=0, clients_per_round=6):
    config = SimulationConfig(
        rounds=rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=32),
        clients_per_round=clients_per_round,
        seed=seed,
        parallelism=parallelism,
        track_per_client_accuracy=False,
        scenario=scenario,
    )
    return FederatedSimulation(dataset, model_fn_for_dataset(dataset), config).run()


class TestEventScheduler:
    def test_pops_in_time_order(self):
        scheduler = EventScheduler()
        scheduler.schedule(ClientUpdateArrival(time=3.0, client_id=1))
        scheduler.schedule(ClientUpdateArrival(time=1.0, client_id=2))
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=3))
        assert [scheduler.pop().client_id for _ in range(3)] == [2, 3, 1]

    def test_clock_advances_and_never_regresses(self):
        scheduler = EventScheduler()
        scheduler.schedule(ClientUpdateArrival(time=5.0, client_id=1))
        scheduler.pop()
        assert scheduler.now == 5.0
        # an event scheduled in the past pops at the current clock
        scheduler.schedule(ClientUpdateArrival(time=1.0, client_id=2))
        scheduler.pop()
        assert scheduler.now == 5.0

    def test_equal_time_arrivals_pop_in_insertion_order(self):
        """The tie-break that merges a round without a latency model in
        selection order: same-time arrivals come out in client order."""
        scheduler = EventScheduler()
        for client_id in (7, 3, 11, 5):
            scheduler.schedule(ClientUpdateArrival(time=0.0, client_id=client_id))
        assert [scheduler.pop().client_id for _ in range(4)] == [7, 3, 11, 5]

    def test_arrival_outranks_deadline_at_equal_time(self):
        """An update landing exactly at T is on time."""
        scheduler = EventScheduler()
        scheduler.schedule(RoundDeadline(time=2.0, round_index=0))
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=1))
        assert isinstance(scheduler.pop(), ClientUpdateArrival)
        assert isinstance(scheduler.pop(), RoundDeadline)

    def test_flush_outranks_arrival_at_equal_time(self):
        """The K-th arrival's flush closes the round before same-instant
        arrivals from other rounds leak into the buffer."""
        scheduler = EventScheduler()
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=1))
        scheduler.schedule(BufferFlush(time=2.0, round_index=0))
        assert isinstance(scheduler.pop(), BufferFlush)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventScheduler().pop()

    def test_pending_arrivals_lists_only_arrivals(self):
        scheduler = EventScheduler()
        scheduler.schedule(RoundDeadline(time=1.0, round_index=0))
        scheduler.schedule(ClientUpdateArrival(time=3.0, client_id=1))
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=2))
        pending = scheduler.pending_arrivals()
        assert [event.client_id for event in pending] == [2, 1]

    def test_heap_order_is_reproducible(self):
        """Scheduling the same events twice yields the same pop sequence."""

        def trace():
            scheduler = EventScheduler()
            for i in range(20):
                scheduler.schedule(
                    ClientUpdateArrival(time=float((i * 7) % 5), client_id=i)
                )
            scheduler.schedule(RoundDeadline(time=2.0, round_index=0))
            order = []
            while len(scheduler):
                event = scheduler.pop()
                order.append((type(event).__name__, event.time, getattr(event, "client_id", -1)))
            return order

        assert trace() == trace()


class TestFlushPolicies:
    def test_sync_waits_for_all(self):
        policy = SyncFlushPolicy()
        assert not policy.should_flush(buffered=3, outstanding=1)
        assert policy.should_flush(buffered=4, outstanding=0)

    def test_sync_with_absent_stragglers_never_flushes_early(self):
        policy = SyncFlushPolicy(expected_absent=2)
        assert not policy.should_flush(buffered=4, outstanding=0)

    def test_buffered_flushes_on_kth(self):
        policy = BufferedFlushPolicy(buffer_size=3)
        assert not policy.should_flush(buffered=2, outstanding=5)
        assert policy.should_flush(buffered=3, outstanding=4)


class TestEngineDeterminism:
    def test_no_scenario_bit_identical_to_default_scenario(self, tiny_motionsense):
        """``scenario=None`` means ``ScenarioConfig()``: same bits, and the
        same (degenerate) event stream."""
        legacy = run_sim(tiny_motionsense, scenario=None)
        events = run_sim(tiny_motionsense, scenario=ScenarioConfig())
        assert legacy.accuracy_curve() == events.accuracy_curve()
        assert [r.mean_local_loss for r in legacy.rounds] == [
            r.mean_local_loss for r in events.rounds
        ]
        for name in legacy.final_state:
            np.testing.assert_array_equal(legacy.final_state[name], events.final_state[name])
        # every round records its (degenerate) event stream
        for record in legacy.rounds + events.rounds:
            assert record.simulated_duration == 0.0
            assert len(record.arrival_times) == record.num_aggregated

    def test_mixnn_paper_flow_runs_on_the_event_engine(self, tiny_motionsense, keypair):
        """The paper's MixNN flow takes the same event loop: every selected
        client arrives at the broadcast instant, in client-id order."""
        config = SimulationConfig(
            rounds=2,
            local=LocalTrainingConfig(local_epochs=1, batch_size=32),
            clients_per_round=6,
            seed=0,
            track_per_client_accuracy=False,
        )
        defense = MixNNDefense(enclave=SGXEnclaveSim(keypair=keypair), rng=rng_from_seed(7))
        result = FederatedSimulation(
            tiny_motionsense, model_fn_for_dataset(tiny_motionsense), config, defense=defense
        ).run()
        for record in result.rounds:
            senders = [sender for sender, _ in record.arrival_times]
            assert senders == sorted(senders)
            assert len(senders) == record.num_selected == record.num_aggregated == 6
            assert {time for _, time in record.arrival_times} == {record.round_start}

    @pytest.mark.parametrize(
        "scenario",
        [
            ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.7, client_spread=0.4)),
            ScenarioConfig(
                availability=RandomDropout(0.2),
                latency=LogNormalLatency(median=1.0, sigma=0.7),
                deadline=3.0,
            ),
            ScenarioConfig(
                availability=RandomDropout(0.2),
                latency=LogNormalLatency(median=1.0, sigma=0.7),
                deadline=3.0,
                aggregation="buffered-async",
                buffer_size=4,
            ),
        ],
        ids=["sync-full", "sync-deadline", "buffered-async"],
    )
    def test_event_stream_identical_across_parallelism(self, tiny_motionsense, scenario):
        """Same seed ⇒ identical event order, timestamps, and model bits for
        parallelism 1 vs 8 — the scheduler's determinism contract."""
        sequential = run_sim(tiny_motionsense, scenario, parallelism=1)
        parallel = run_sim(tiny_motionsense, scenario, parallelism=8)
        for a, b in zip(sequential.rounds, parallel.rounds):
            assert a.arrival_times == b.arrival_times  # order AND timestamps
            assert a.round_start == b.round_start
            assert a.simulated_duration == b.simulated_duration
            assert a.idle_fraction == b.idle_fraction
        assert sequential.accuracy_curve() == parallel.accuracy_curve()
        for name in sequential.final_state:
            np.testing.assert_array_equal(
                sequential.final_state[name], parallel.final_state[name]
            )

    def test_same_seed_same_event_trace(self, tiny_motionsense):
        scenario = ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.7))
        first = run_sim(tiny_motionsense, scenario)
        second = run_sim(tiny_motionsense, scenario)
        assert first.arrival_log() == second.arrival_log()

    def test_server_consumes_arrivals_in_time_order(self, tiny_motionsense):
        scenario = ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.7))
        result = run_sim(tiny_motionsense, scenario)
        for record in result.rounds:
            times = [t for _, t in record.arrival_times]
            assert times == sorted(times)
            # merged updates reach the defense/server in the same time order
        for round_updates, record in zip(result.received_updates, result.rounds):
            assert [u.sender_id for u in round_updates] == [c for c, _ in record.arrival_times]

    def test_wall_clock_is_contiguous_across_rounds(self, tiny_motionsense):
        scenario = ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.7))
        result = run_sim(tiny_motionsense, scenario)
        clock = 0.0
        for record in result.rounds:
            assert record.round_start == pytest.approx(clock)
            clock += record.simulated_duration
        assert result.total_simulated_seconds() == pytest.approx(clock)

    def test_in_transit_updates_survive_round_boundaries(self, tiny_motionsense):
        """An arrival scheduled past the flush stays in the heap and lands in
        the next round with its original timestamp."""
        ids = [c.client_id for c in tiny_motionsense.clients()]
        scenario = ScenarioConfig(
            latency=FixedLatency(seconds=1.0, per_client={ids[0]: 7.0}),
            deadline=5.0,
            aggregation="buffered-async",
            buffer_size=len(ids),
        )
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None)
        # round 0 closes at its deadline (t=5) with the slow client in transit
        assert result.rounds[0].simulated_duration == 5.0
        # round 1 merges it at its true absolute arrival time t=7
        late = [entry for entry in result.rounds[1].arrival_times if entry[0] == ids[0]]
        assert late == [(ids[0], 7.0)]
        assert result.rounds[1].num_stale == 1
        # its recorded latency is the full 7 s transit from *its* broadcast,
        # not the 2 s residual wait inside round 1
        position = [c for c, _ in result.rounds[1].arrival_times].index(ids[0])
        assert result.rounds[1].merged_latencies[position] == 7.0

    def test_async_deadline_with_nothing_arrived_waits_for_first_arrival(
        self, tiny_motionsense
    ):
        """A buffered-async deadline that fires before any arrival must not
        crash the round: the server cannot aggregate nothing, so the round
        stays open and closes at the next merged arrival."""
        ids = [c.client_id for c in tiny_motionsense.clients()]
        scenario = ScenarioConfig(
            latency=FixedLatency(seconds=7.0),
            deadline=5.0,
            aggregation="buffered-async",
            buffer_size=len(ids),
        )
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None, rounds=2)
        first = result.rounds[0]
        # the round lapsed its t=5 deadline and closed at the first t=7
        # arrival (the flush outranks the simultaneous remainder)
        assert first.simulated_duration == 7.0
        assert first.num_aggregated == 1
        # the rest stayed in transit and merged next round, one round stale
        assert result.rounds[1].num_stale == len(ids) - 1

    def test_effective_throughput_and_idle_are_measured(self, tiny_motionsense):
        ids = [c.client_id for c in tiny_motionsense.clients()]
        scenario = ScenarioConfig(latency=FixedLatency(seconds=2.0), deadline=8.0)
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None)
        for record in result.rounds:
            # everyone arrives at t+2, round closes there: zero idle time
            assert record.simulated_duration == 2.0
            assert record.idle_fraction == 0.0
            assert record.effective_throughput == pytest.approx(len(ids) / 2.0)
