"""Sharded training plane: plan, leaf witnesses, transcript, engine, faults.

Marked ``sharded`` so the whole plane can be exercised quickly::

    PYTHONPATH=src python -m pytest -m sharded -q

The load-bearing property throughout: for every shard count, backend, and
crash schedule, the sharded plane is **bit-identical** to the serial path —
same aggregates, same server transcript heads, same RNG streams.
"""

import glob

import numpy as np
import pytest

from repro.experiments.models import model_fn_for, paper_cnn
from repro.federated import (
    FaultConfig,
    FederatedSimulation,
    LocalTrainingConfig,
    LogNormalLatency,
    RandomDropout,
    ScenarioConfig,
    ShardedRoundEngine,
    ShardIntegrityError,
    ShardingError,
    ShardPlan,
    ShardPlanError,
    SimulationConfig,
)
from repro.federated.aggregation import AGGREGATION_RULES
from repro.federated.integrity import TranscriptError
from repro.federated.sharding import _check_partials, shard_partial_sum
from repro.nn.serialization import _intern_schema, schema_of
from repro.utils.rng import rng_from_seed

pytestmark = pytest.mark.sharded


def model_fn_for_dataset(dataset):
    return lambda rng: paper_cnn(dataset.input_shape, dataset.num_classes, rng)


def make_sim(
    dataset,
    num_shards=0,
    backend="inline",
    aggregation="mean",
    scenario=None,
    rounds=2,
    clients_per_round=6,
    seed=3,
    picklable_model_fn=False,
):
    config = SimulationConfig(
        rounds=rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=32),
        clients_per_round=clients_per_round,
        seed=seed,
        aggregation=aggregation,
        scenario=scenario,
        num_shards=num_shards,
        shard_backend=backend,
        track_per_client_accuracy=False,
    )
    model_fn = (
        model_fn_for(dataset) if picklable_model_fn else model_fn_for_dataset(dataset)
    )
    return FederatedSimulation(dataset, model_fn, config)


def small_schema():
    return _intern_schema(("layer.w", "layer.b", "head.w"), ((4, 3), (3,), (2, 3)))


def random_matrix(schema, rows, seed=0):
    rng = rng_from_seed(seed)
    return rng.standard_normal((rows, schema.total_size)).astype(np.float32)


class TestShardPlan:
    def test_contiguous_balanced_bounds(self):
        plan = ShardPlan.build(10, 3)
        assert plan.bounds == ((0, 4), (4, 7), (7, 10))
        assert plan.num_shards == 3
        assert plan.cohort_size == 10

    @pytest.mark.parametrize("cohort,shards", [(1, 1), (7, 2), (8, 8), (100, 7)])
    def test_partition_covers_every_slot_once(self, cohort, shards):
        plan = ShardPlan.build(cohort, shards)
        slots = [slot for shard in range(shards) for slot in plan.slots(shard)]
        assert slots == list(range(cohort))
        sizes = [end - start for start, end in plan.bounds]
        assert max(sizes) - min(sizes) <= 1  # balanced within one row
        for slot in range(cohort):
            shard = plan.shard_of(slot)
            assert slot in plan.slots(shard)

    def test_plan_is_a_pure_function(self):
        assert ShardPlan.build(17, 5) == ShardPlan.build(17, 5)

    def test_empty_cohort_is_rejected(self):
        with pytest.raises(ShardPlanError, match="empty cohort"):
            ShardPlan.build(0, 1)

    def test_zero_shards_is_rejected(self):
        with pytest.raises(ShardPlanError, match="num_shards"):
            ShardPlan.build(4, 0)

    def test_more_shards_than_cohort_is_a_typed_error(self):
        with pytest.raises(ShardPlanError, match="exceeds the cohort size"):
            ShardPlan.build(3, 5)

    def test_shard_of_rejects_out_of_range_slots(self):
        plan = ShardPlan.build(4, 2)
        with pytest.raises(IndexError):
            plan.shard_of(4)


class TestShardAlgebra:
    """Leaf witnesses cross-checked against the plane's column sum."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 11])
    def test_honest_partials_pass_for_every_plan(self, shards):
        """Uneven slices included: what every leaf honestly sums passes."""
        schema = small_schema()
        matrix = random_matrix(schema, 11, seed=shards)
        plan = ShardPlan.build(11, shards)
        partials = [shard_partial_sum(matrix[a:b]) for a, b in plan.bounds]
        _check_partials(matrix, plan, partials)

    @pytest.mark.parametrize("shard", [0, 1, 2, 3])
    def test_torn_row_in_any_shard_is_caught(self, shard):
        """A plane row that changed after its leaf summed it — the torn write
        the witness exists to catch — fails the check whichever shard owns it."""
        schema = small_schema()
        matrix = random_matrix(schema, 10, seed=10)
        plan = ShardPlan.build(10, 4)
        partials = [shard_partial_sum(matrix[a:b]) for a, b in plan.bounds]
        torn = matrix.copy()
        torn[plan.bounds[shard][1] - 1, -1] += 1.0  # last row of the slice
        with pytest.raises(ShardIntegrityError, match="disagree"):
            _check_partials(torn, plan, partials)

    def test_corrupted_partial_raises_integrity_error(self):
        schema = small_schema()
        matrix = random_matrix(schema, 8, seed=7)
        plan = ShardPlan.build(8, 2)
        partials = [shard_partial_sum(matrix[a:b]) for a, b in plan.bounds]
        partials[1] = partials[1] + 1.0  # a torn/corrupted leaf write
        with pytest.raises(ShardIntegrityError, match="disagree"):
            _check_partials(matrix, plan, partials)

    def test_wrong_partial_count_raises(self):
        schema = small_schema()
        matrix = random_matrix(schema, 8, seed=8)
        plan = ShardPlan.build(8, 2)
        with pytest.raises(ShardIntegrityError, match="partials"):
            _check_partials(matrix, plan, [shard_partial_sum(matrix)])


EVENT_SCENARIOS = {
    "dropout-deadline": ScenarioConfig(
        availability=RandomDropout(0.2),
        latency=LogNormalLatency(median=1.0, sigma=0.8),
        deadline=3.0,
    ),
    "buffered-async": ScenarioConfig(
        latency=LogNormalLatency(median=1.0, sigma=1.0),
        aggregation="buffered-async",
        buffer_size=3,
    ),
    "stragglers": ScenarioConfig(
        latency=LogNormalLatency(median=1.0, sigma=0.6, straggler_fraction=0.3)
    ),
}


class TestBitIdentity:
    """shards=N is byte-equal to the serial shards=0 path, end to end."""

    @pytest.mark.parametrize("rule", AGGREGATION_RULES)
    def test_every_policy_matches_serial(self, tiny_motionsense, rule):
        serial = make_sim(tiny_motionsense, num_shards=0, aggregation=rule).run()
        for shards in (1, 2, 4):
            result = make_sim(
                tiny_motionsense, num_shards=shards, aggregation=rule
            ).run()
            for name, value in serial.final_state.items():
                np.testing.assert_array_equal(
                    value, result.final_state[name], err_msg=f"{rule}/{shards}/{name}"
                )
            # identical merges + identical RNG streams ⇒ identical chains
            assert result.transcript.head == serial.transcript.head, (rule, shards)
            assert result.accuracy_curve() == serial.accuracy_curve(), (rule, shards)
            result.shard_transcript.verify()

    def test_eight_shards_matches_serial(self, tiny_motionsense):
        serial = make_sim(tiny_motionsense, num_shards=0, clients_per_round=8).run()
        result = make_sim(tiny_motionsense, num_shards=8, clients_per_round=8).run()
        for name, value in serial.final_state.items():
            np.testing.assert_array_equal(value, result.final_state[name])
        assert result.transcript.head == serial.transcript.head

    @pytest.mark.parametrize("shards", [3, 5])
    def test_uneven_plans_match_serial(self, tiny_motionsense, shards):
        """Slices of unequal size still hand the root the canonical slot order."""
        serial = make_sim(tiny_motionsense, num_shards=0, clients_per_round=7).run()
        result = make_sim(tiny_motionsense, num_shards=shards, clients_per_round=7).run()
        for name, value in serial.final_state.items():
            np.testing.assert_array_equal(value, result.final_state[name])
        assert result.transcript.head == serial.transcript.head
        result.shard_transcript.verify()

    @pytest.mark.parametrize("name", sorted(EVENT_SCENARIOS))
    def test_event_scenarios_match_serial(self, tiny_motionsense, name):
        """Churn, deadlines and buffering run on the same event loop whether
        the cohort trains in process or on shards."""
        scenario = EVENT_SCENARIOS[name]
        serial = make_sim(tiny_motionsense, num_shards=0, scenario=scenario).run()
        result = make_sim(tiny_motionsense, num_shards=2, scenario=scenario).run()
        for key, value in serial.final_state.items():
            np.testing.assert_array_equal(value, result.final_state[key])
        assert result.transcript.head == serial.transcript.head
        assert [r.arrival_times for r in result.rounds] == [
            r.arrival_times for r in serial.rounds
        ]

    def test_serial_path_has_no_shard_transcript(self, tiny_motionsense):
        assert make_sim(tiny_motionsense, num_shards=0).run().shard_transcript is None

    def test_row_digests_are_plan_invariant(self, tiny_motionsense):
        """The data plane's bytes don't depend on how it was partitioned."""
        digests = []
        for shards in (1, 3):
            result = make_sim(tiny_motionsense, num_shards=shards).run()
            transcript = result.shard_transcript
            per_round = []
            for position in range(len(transcript)):
                flat = []
                for shard in range(len(transcript.root[position].shard_heads)):
                    flat.extend(transcript.chains[shard][position].row_digests)
                per_round.append(tuple(flat))
            digests.append(per_round)
        assert digests[0] == digests[1]

    def test_cohort_smaller_than_shards_is_a_typed_error(self, tiny_motionsense):
        with pytest.raises(ShardPlanError, match="exceeds the cohort size"):
            make_sim(tiny_motionsense, num_shards=12, clients_per_round=6).run()


@pytest.fixture
def engine_setup(tiny_motionsense):
    local = LocalTrainingConfig(local_epochs=1, batch_size=32)
    model_fn = model_fn_for_dataset(tiny_motionsense)
    from repro.federated.client import ClientPopulation

    population = ClientPopulation.for_dataset(tiny_motionsense, model_fn, local, seed=0)
    broadcast = model_fn(rng_from_seed(0)).state_dict()
    schema = schema_of(broadcast)
    ids = population.client_ids(range(6))
    return population, schema, broadcast, ids


class TestShardedTranscript:
    def test_verify_passes_and_binds_shard_heads(self, engine_setup):
        population, schema, broadcast, ids = engine_setup
        engine = ShardedRoundEngine(population, schema, 2)
        engine.train_round(ids, broadcast, 0)
        engine.train_round(ids, broadcast, 1)
        transcript = engine.transcript
        assert len(transcript) == 2
        transcript.verify()
        for position, entry in enumerate(transcript.root):
            for shard, head in enumerate(entry.shard_heads):
                assert transcript.chains[shard][position].entry_hash == head

    def test_tampered_chain_entry_is_detected(self, engine_setup):
        population, schema, broadcast, ids = engine_setup
        engine = ShardedRoundEngine(population, schema, 2)
        engine.train_round(ids, broadcast, 0)
        engine.transcript.chains[1][0].client_ids = (999,)
        with pytest.raises(TranscriptError, match="tampered"):
            engine.transcript.verify()

    def test_tampered_root_entry_is_detected(self, engine_setup):
        population, schema, broadcast, ids = engine_setup
        engine = ShardedRoundEngine(population, schema, 2)
        engine.train_round(ids, broadcast, 0)
        heads = engine.transcript.root[0].shard_heads
        engine.transcript.root[0].shard_heads = heads[::-1]
        with pytest.raises(TranscriptError):
            engine.transcript.verify()

    def test_audit_round_replays_trained_updates(self, engine_setup):
        population, schema, broadcast, ids = engine_setup
        engine = ShardedRoundEngine(population, schema, 3)
        updates = engine.train_round(ids, broadcast, 0)
        engine.transcript.audit_round(0, updates)

    def test_audit_round_catches_a_substituted_update(self, engine_setup):
        population, schema, broadcast, ids = engine_setup
        engine = ShardedRoundEngine(population, schema, 3)
        updates = engine.train_round(ids, broadcast, 0)
        tampered = list(updates)
        tampered[2] = updates[3]  # swap one slice in
        with pytest.raises(TranscriptError, match="audit failed"):
            engine.transcript.audit_round(0, tampered)

    def test_audit_round_rejects_a_truncated_cohort(self, engine_setup):
        population, schema, broadcast, ids = engine_setup
        engine = ShardedRoundEngine(population, schema, 2)
        updates = engine.train_round(ids, broadcast, 0)
        with pytest.raises(TranscriptError, match="slots"):
            engine.transcript.audit_round(0, updates[:-1])


class TestEngineLifecycle:
    def test_unknown_backend_is_rejected(self, engine_setup):
        population, schema, _, _ = engine_setup
        with pytest.raises(ShardingError, match="backend"):
            ShardedRoundEngine(population, schema, 2, backend="threads")

    def test_process_backend_needs_picklable_parts(self, engine_setup):
        population, schema, _, _ = engine_setup
        with pytest.raises(ShardingError, match="process backend"):
            ShardedRoundEngine(population, schema, 2, backend="process")

    def test_close_is_idempotent_and_engine_stays_usable(self, engine_setup):
        population, schema, broadcast, ids = engine_setup
        with ShardedRoundEngine(population, schema, 2) as engine:
            first = engine.train_round(ids, broadcast, 0)
            engine.close()
            engine.close()
            again = ShardedRoundEngine(population, schema, 2).train_round(
                ids, broadcast, 0
            )
            for left, right in zip(first, again):
                np.testing.assert_array_equal(left.flat_vector, right.flat_vector)

    def test_last_timings_expose_the_critical_path(self, engine_setup):
        population, schema, broadcast, ids = engine_setup
        engine = ShardedRoundEngine(population, schema, 3)
        engine.train_round(ids, broadcast, 0)
        timings = engine.last_timings
        assert len(timings["per_shard_train_seconds"]) == 3
        assert len(timings["per_shard_reduce_seconds"]) == 3
        assert timings["wall_seconds"] >= timings["merge_seconds"]
        assert engine.pending_shards == ()


def crash_scenario(rate):
    return ScenarioConfig(faults=FaultConfig(shard_crash_rate=rate))


class TestShardCrashes:
    def test_crashes_leave_results_byte_identical(self, tiny_motionsense):
        serial = make_sim(tiny_motionsense, num_shards=0, rounds=3).run()
        crashed = make_sim(
            tiny_motionsense, num_shards=3, rounds=3, scenario=crash_scenario(0.4)
        ).run()
        for name, value in serial.final_state.items():
            np.testing.assert_array_equal(value, crashed.final_state[name])
        entries = [e for e in crashed.fault_ledger.entries if e.kind == "shard-crash"]
        assert entries, "a 0.4 crash rate over 3 rounds x 3 shards must fire"
        crashed.fault_ledger.validate()
        crashed.shard_transcript.verify()

    def test_exhausted_retries_fail_over_to_the_root(self, tiny_motionsense):
        crashed = make_sim(
            tiny_motionsense, num_shards=3, rounds=3, scenario=crash_scenario(0.97)
        ).run()
        ledger = crashed.fault_ledger
        resolutions = {
            e.resolution for e in ledger.entries if e.kind == "shard-crash"
        }
        assert "failed-over" in resolutions  # quorum degradation happened
        executors = {
            entry.executor
            for chain in crashed.shard_transcript.chains.values()
            for entry in chain
        }
        assert "failover-root" in executors  # and the transcript attests it
        ledger.validate()
        crashed.shard_transcript.verify()
        # degraded or not, the merge is still byte-equal to the serial path
        serial = make_sim(tiny_motionsense, num_shards=0, rounds=3).run()
        for name, value in serial.final_state.items():
            np.testing.assert_array_equal(value, crashed.final_state[name])

    def test_crash_delays_reach_the_round_clock(self, tiny_motionsense):
        crashed = make_sim(
            tiny_motionsense, num_shards=3, rounds=3, scenario=crash_scenario(0.4)
        ).run()
        crash_rounds = {
            e.round_index
            for e in crashed.fault_ledger.entries
            if e.kind == "shard-crash"
        }
        assert crash_rounds
        for index in crash_rounds:
            assert crashed.rounds[index].recovery_seconds > 0.0


class TestShardedCheckpoint:
    def test_resume_is_bit_identical_and_keeps_the_chain(self, tiny_motionsense):
        straight = make_sim(tiny_motionsense, num_shards=2, rounds=3).run()

        first = make_sim(tiny_motionsense, num_shards=2, rounds=3)
        first._records.append(first.run_round())
        blob = first.checkpoint()

        resumed = make_sim(tiny_motionsense, num_shards=2, rounds=3)
        resumed.restore_checkpoint(blob)
        result = resumed.run()

        for name, value in straight.final_state.items():
            np.testing.assert_array_equal(value, result.final_state[name])
        # the restored shard transcript carries round-0 history forward
        assert result.shard_transcript.root_head == straight.shard_transcript.root_head
        result.shard_transcript.verify()

    def test_checkpoint_round_trips_the_plan(self, tiny_motionsense):
        sim = make_sim(tiny_motionsense, num_shards=2)
        sim._records.append(sim.run_round())
        blob = sim.checkpoint()
        resumed = make_sim(tiny_motionsense, num_shards=2)
        resumed.restore_checkpoint(blob)
        engine = resumed._shard_engine
        assert engine.last_plan == sim._shard_engine.last_plan
        assert engine.pending_shards == ()
        assert engine.transcript.root_head == sim._shard_engine.transcript.root_head


class TestProcessBackend:
    """Spawn-pool backend: byte-equal to inline, no /dev/shm leaks."""

    def test_process_matches_inline_and_leaks_nothing(self, tiny_motionsense):
        before = set(glob.glob("/dev/shm/psm_*"))
        inline = make_sim(
            tiny_motionsense, num_shards=2, backend="inline", picklable_model_fn=True
        ).run()
        proc = make_sim(
            tiny_motionsense, num_shards=2, backend="process", picklable_model_fn=True
        ).run()
        for name, value in inline.final_state.items():
            np.testing.assert_array_equal(value, proc.final_state[name])
        assert inline.transcript.head == proc.transcript.head
        assert inline.shard_transcript.root_head == proc.shard_transcript.root_head
        leaked = set(glob.glob("/dev/shm/psm_*")) - before
        assert not leaked, f"leaked shared-memory segments: {leaked}"

    def test_raising_round_unlinks_the_shared_plane(self, tiny_motionsense):
        before = set(glob.glob("/dev/shm/psm_*"))
        local = LocalTrainingConfig(local_epochs=1, batch_size=32)
        model_fn = model_fn_for(tiny_motionsense)
        from repro.federated.client import ClientPopulation

        population = ClientPopulation.for_dataset(
            tiny_motionsense, model_fn, local, seed=0
        )
        broadcast = model_fn(rng_from_seed(0)).state_dict()
        engine = ShardedRoundEngine(
            population,
            schema_of(broadcast),
            2,
            backend="process",
            dataset=tiny_motionsense,
            model_fn=model_fn,
            local_config=local,
        )
        engine.train_round(population.client_ids(range(4)), broadcast, 0)
        assert set(glob.glob("/dev/shm/psm_*")) - before  # plane is live
        with pytest.raises(ShardPlanError):
            engine.train_round([], broadcast, 1)  # empty cohort mid-flight
        leaked = set(glob.glob("/dev/shm/psm_*")) - before
        assert not leaked, f"raising round leaked segments: {leaked}"
