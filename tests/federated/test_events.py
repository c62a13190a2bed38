"""Virtual-time event queue: ordering, determinism, tie-breaking, resume."""

import pickle

import numpy as np
import pytest

from repro.defenses import MixNNDefense
from repro.federated import (
    AdversaryConfig,
    FaultConfig,
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
    QuorumFlushPolicy,
    RoundDeadline,
    TransmissionFailure,
    VirtualClockScheduler,
)
from repro.experiments.models import paper_cnn
from repro.mixnn.enclave import SGXEnclaveSim
from repro.utils.rng import rng_from_seed


def model_fn_for_dataset(dataset):
    return lambda rng: paper_cnn(dataset.input_shape, dataset.num_classes, rng)


def make_sim(
    dataset, scenario=None, rounds=3, parallelism=1, seed=0, clients_per_round=6, defense=None
):
    config = SimulationConfig(
        rounds=rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=32),
        clients_per_round=clients_per_round,
        seed=seed,
        parallelism=parallelism,
        track_per_client_accuracy=False,
        scenario=scenario,
    )
    return FederatedSimulation(dataset, model_fn_for_dataset(dataset), config, defense=defense)


def run_sim(dataset, scenario=None, **kwargs):
    return make_sim(dataset, scenario, **kwargs).run()


def random_event(rng, time):
    """One random event of any of the four kinds at the given timestamp."""
    kind = rng.integers(4)
    if kind == 0:
        return ClientUpdateArrival(
            time=time, client_id=int(rng.integers(100)), origin_round=int(rng.integers(5))
        )
    if kind == 1:
        return TransmissionFailure(
            time=time, client_id=int(rng.integers(100)), attempt=int(rng.integers(3))
        )
    if kind == 2:
        return RoundDeadline(time=time, round_index=int(rng.integers(5)))
    return BufferFlush(time=time, round_index=int(rng.integers(5)))


#: One scenario per flush policy, plus the fault and adversary planes: each
#: leaves a different mix of events on the clock when a round closes.
SCENARIOS = {
    # no latency model: every arrival ties at the round start
    "paper-flow": ScenarioConfig(),
    "sync-deadline": ScenarioConfig(
        availability=RandomDropout(0.2),
        latency=LogNormalLatency(median=1.0, sigma=0.8),
        deadline=3.0,
    ),
    "buffered-async": ScenarioConfig(
        latency=LogNormalLatency(median=1.0, sigma=1.0),
        aggregation="buffered-async",
        buffer_size=3,
    ),
    "quorum-faults-adversary": ScenarioConfig(
        latency=LogNormalLatency(median=1.0, sigma=0.6),
        faults=FaultConfig(
            client_crash_rate=0.05,
            frame_corruption_rate=0.1,
            quorum_fraction=0.75,
            backoff_base=0.2,
        ),
        adversary=AdversaryConfig(fraction=0.2, kind="sign-flip"),
    ),
}


def mixnn_defense(keypair):
    return MixNNDefense(enclave=SGXEnclaveSim(keypair=keypair), rng=rng_from_seed(7))


def assert_same_run(result, expected):
    """Records (event stream included) and final weights are bit-identical."""
    assert result.rounds == expected.rounds
    for name, value in expected.final_state.items():
        np.testing.assert_array_equal(value, result.final_state[name])


class TestVirtualClockScheduler:
    def test_pops_in_time_order(self):
        scheduler = VirtualClockScheduler()
        scheduler.schedule(ClientUpdateArrival(time=3.0, client_id=1))
        scheduler.schedule(ClientUpdateArrival(time=1.0, client_id=2))
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=3))
        assert [scheduler.pop().client_id for _ in range(3)] == [2, 3, 1]

    def test_clock_advances_and_never_regresses(self):
        scheduler = VirtualClockScheduler()
        scheduler.schedule(ClientUpdateArrival(time=5.0, client_id=1))
        scheduler.pop()
        assert scheduler.now == 5.0
        # an event scheduled in the past pops at the current clock
        scheduler.schedule(ClientUpdateArrival(time=1.0, client_id=2))
        scheduler.pop()
        assert scheduler.now == 5.0
        with pytest.raises(ValueError, match="backwards"):
            scheduler.advance(-1.0)

    def test_equal_time_arrivals_pop_in_insertion_order(self):
        """The tie-break that merges a round without a latency model in
        selection order: same-time arrivals come out in client order."""
        scheduler = VirtualClockScheduler()
        for client_id in (7, 3, 11, 5):
            scheduler.schedule(ClientUpdateArrival(time=0.0, client_id=client_id))
        assert [scheduler.pop().client_id for _ in range(4)] == [7, 3, 11, 5]

    def test_arrival_outranks_deadline_at_equal_time(self):
        """An update landing exactly at T is on time."""
        scheduler = VirtualClockScheduler()
        scheduler.schedule(RoundDeadline(time=2.0, round_index=0))
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=1))
        assert isinstance(scheduler.pop(), ClientUpdateArrival)
        assert isinstance(scheduler.pop(), RoundDeadline)

    def test_flush_outranks_arrival_at_equal_time(self):
        """The K-th arrival's flush closes the round before same-instant
        arrivals from other rounds leak into the buffer."""
        scheduler = VirtualClockScheduler()
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=1))
        scheduler.schedule(BufferFlush(time=2.0, round_index=0))
        assert isinstance(scheduler.pop(), BufferFlush)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError, match="empty event scheduler"):
            VirtualClockScheduler().pop()

    def test_pending_arrival_count_counts_only_arrivals(self):
        scheduler = VirtualClockScheduler()
        scheduler.schedule(RoundDeadline(time=1.0, round_index=0))
        scheduler.schedule(ClientUpdateArrival(time=3.0, client_id=1, origin_round=0))
        scheduler.schedule(ClientUpdateArrival(time=2.0, client_id=2, origin_round=1))
        scheduler.schedule(TransmissionFailure(time=2.5, client_id=3, origin_round=1))
        assert scheduler.pending_arrival_count() == 2
        assert scheduler.pending_arrival_count(origin_round=1) == 1
        assert scheduler.in_flight_count() == 3

    def test_heap_order_is_reproducible(self):
        """Scheduling the same events twice yields the same pop sequence."""

        def trace():
            scheduler = VirtualClockScheduler()
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


def assert_queue_holds(queue, entries):
    """The queue's length and backlog counters match the entry list."""
    events = [entry[3] for entry in entries]
    assert len(queue) == len(entries)
    arrivals = [e for e in events if isinstance(e, ClientUpdateArrival)]
    assert queue.pending_arrival_count() == len(arrivals)
    for origin_round in range(5):
        assert queue.pending_arrival_count(origin_round=origin_round) == sum(
            1 for e in arrivals if e.origin_round == origin_round
        )
    assert queue.in_flight_count() == len(arrivals) + sum(
        1 for e in events if isinstance(e, TransmissionFailure)
    )


class TestQueueOrder:
    """The queue pops in ``sorted()`` order of its ``(time, priority, seq)``
    entry keys, ``seq`` being the insertion index: each test keeps those
    keys in a plain list next to the queue and checks every pop against
    the smallest."""

    @pytest.mark.parametrize("seed", range(20))
    def test_interleaved_stream_pops_in_sorted_key_order(self, seed):
        """Random schedule/pop/advance/pickle interleavings, with times
        biased to the recent past, the current instant and the far future."""
        rng = rng_from_seed(seed)
        queue = VirtualClockScheduler()
        entries = []
        for seq in range(400):
            action = rng.random()
            if action < 0.5 or not entries:
                offset = float(rng.choice([-0.05, 0.0, 0.05, 0.5, 3.0, 100.0]))
                event = random_event(rng, max(0.0, queue.now + offset))
                queue.schedule(event)
                entries.append((event.time, event.priority, seq, event))
            elif action < 0.9:
                entries.sort()
                time, _, _, expected = entries.pop(0)
                clock = max(queue.now, time)
                assert queue.pop() == expected
                assert queue.now == clock
            elif action < 0.95:
                delta = float(rng.random())
                clock = queue.now + delta
                queue.advance(delta)
                assert queue.now == clock
            else:
                # Checkpointing pickles the queue wholesale mid-stream.
                queue = pickle.loads(pickle.dumps(queue))
            assert_queue_holds(queue, entries)
        for _, _, _, expected in sorted(entries):
            assert queue.pop() == expected
        assert_queue_holds(queue, [])

    def test_equal_timestamp_pileup_pops_in_priority_then_seq_order(self):
        """10k events at one instant: flushes first, then arrivals and
        failures in insertion order, then deadlines."""
        queue = VirtualClockScheduler()
        rng = rng_from_seed(7)
        entries = []
        for seq in range(10_000):
            event = random_event(rng, 5.0)
            queue.schedule(event)
            entries.append((event.time, event.priority, seq, event))
        for _, _, _, expected in sorted(entries):
            assert queue.pop() is expected
        assert len(queue) == 0


class TestFlushPolicies:
    def test_sync_waits_for_all(self):
        # the default quorum: the whole cohort of four
        policy = QuorumFlushPolicy(quorum_count=4)
        assert not policy.should_flush(buffered=3, outstanding=1)
        assert policy.should_flush(buffered=4, outstanding=0)

    def test_sync_with_absent_stragglers_never_flushes_early(self):
        # six survivors, two of them stragglers past the deadline: only the
        # deadline closes the round
        policy = QuorumFlushPolicy(quorum_count=6, expected_absent=2)
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
        result = FederatedSimulation(
            tiny_motionsense,
            model_fn_for_dataset(tiny_motionsense),
            config,
            defense=mixnn_defense(keypair),
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
            SCENARIOS["quorum-faults-adversary"],
        ],
        ids=["sync-full", "sync-deadline", "buffered-async", "quorum-faults-adversary"],
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

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_rounds_merge_in_time_order_on_one_clock(self, tiny_motionsense, name):
        """Every round merges what the queue pops: in time order, inside the
        round's own window, and the next round opens where it closed."""
        result = run_sim(tiny_motionsense, SCENARIOS[name], rounds=4, seed=11)
        clock = 0.0
        for record in result.rounds:
            assert record.round_start == pytest.approx(clock)
            close = record.round_start + record.simulated_duration
            times = [t for _, t in record.arrival_times]
            assert times == sorted(times)
            assert all(record.round_start <= t <= close for t in times)
            clock = close

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


class TestCheckpointResume:
    def test_buffered_async_resume_with_updates_in_transit(self, tiny_motionsense):
        """A checkpoint taken mid-run, with arrival events still queued on
        the clock, resumes to the uninterrupted run's records and weights."""
        scenario = ScenarioConfig(
            latency=LogNormalLatency(median=1.0, sigma=1.0),
            aggregation="buffered-async",
            buffer_size=3,
        )
        straight = run_sim(tiny_motionsense, scenario, rounds=4, seed=11)

        first = make_sim(tiny_motionsense, scenario, rounds=4, seed=11)
        for _ in range(2):
            first._records.append(first.run_round())
        assert first._scheduler.pending_arrival_count() > 0
        resumed = make_sim(tiny_motionsense, scenario, rounds=4, seed=11)
        resumed.restore_checkpoint(first.checkpoint())
        result = resumed.run()

        assert_same_run(result, straight)

    def test_straggler_counts_after_restore_equal_a_fresh_scan(self, tiny_motionsense):
        """The per-round arrival counts unpickled with a mid-run checkpoint
        equal a scan of the restored queue, and keep equal as it runs on."""
        scenario = SCENARIOS["buffered-async"]
        first = make_sim(tiny_motionsense, scenario, rounds=4, seed=11)
        for _ in range(2):
            first._records.append(first.run_round())
        resumed = make_sim(tiny_motionsense, scenario, rounds=4, seed=11)
        resumed.restore_checkpoint(first.checkpoint())
        queue = resumed._scheduler
        assert queue.pending_arrival_count() > 0
        for _ in range(2):
            assert_queue_holds(queue, queue._heap)
            resumed._records.append(resumed.run_round())
        assert_queue_holds(queue, queue._heap)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_resume_at_every_round_boundary(self, tiny_motionsense, name):
        """A run checkpointed after every round, each round in a fresh
        simulation restored from the last checkpoint, replays the
        uninterrupted run bit for bit."""
        scenario = SCENARIOS[name]
        straight = run_sim(tiny_motionsense, scenario, rounds=4, seed=11)

        blob = None
        for _ in range(3):
            sim = make_sim(tiny_motionsense, scenario, rounds=4, seed=11)
            if blob is not None:
                sim.restore_checkpoint(blob)
            sim._records.append(sim.run_round())
            blob = sim.checkpoint()
        resumed = make_sim(tiny_motionsense, scenario, rounds=4, seed=11)
        resumed.restore_checkpoint(blob)
        assert_same_run(resumed.run(), straight)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_resume_with_mixnn_proxy(self, tiny_motionsense, keypair, name):
        """The proxy mixes updates in the order the queue hands them over, so
        the restored queue must hand over the same order: the resumed run
        ends on the uninterrupted run's transcript head."""

        def sim():
            return make_sim(
                tiny_motionsense,
                SCENARIOS[name],
                rounds=3,
                seed=11,
                defense=mixnn_defense(keypair),
            )

        straight = sim().run()
        first = sim()
        first._records.append(first.run_round())
        resumed = sim()
        resumed.restore_checkpoint(first.checkpoint())
        result = resumed.run()

        assert result.transcript.head == straight.transcript.head
        assert_same_run(result, straight)
