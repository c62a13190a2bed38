"""Scenario engine: churn, stragglers, buffered-async, staleness weighting."""

from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from repro.defenses import MixNNDefense, NoDefense
from repro.experiments.models import paper_cnn
from repro.federated import (
    AlwaysAvailable,
    ChurnTrace,
    FederatedSimulation,
    FixedLatency,
    LocalTrainingConfig,
    LogNormalLatency,
    RandomDropout,
    ScenarioConfig,
    SimulationConfig,
    staleness_weight,
)
from repro.federated.flat import FlatUpdateBatch
from repro.federated.server import AggregationServer
from repro.federated.update import (
    ModelUpdate,
    aggregate_updates,
    aggregate_updates_reference,
    update_weights,
)
from repro.mixnn.enclave import SGXEnclaveSim
from repro.utils.rng import rng_from_seed


def model_fn_for_dataset(dataset):
    return lambda rng: paper_cnn(dataset.input_shape, dataset.num_classes, rng)


def make_config(scenario=None, rounds=2, clients_per_round=6, parallelism=1, seed=0):
    return SimulationConfig(
        rounds=rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=32),
        clients_per_round=clients_per_round,
        seed=seed,
        parallelism=parallelism,
        track_per_client_accuracy=False,
        scenario=scenario,
    )


def run_sim(dataset, scenario=None, defense=None, **kwargs):
    sim = FederatedSimulation(
        dataset, model_fn_for_dataset(dataset), make_config(scenario, **kwargs), defense=defense
    )
    return sim.run()


class TestScenarioConfigValidation:
    def test_defaults_are_sync(self):
        config = ScenarioConfig()
        assert not config.is_async
        assert config.availability is None

    def test_unknown_aggregation_mode(self):
        with pytest.raises(ValueError, match="aggregation mode"):
            ScenarioConfig(aggregation="fedavg")

    def test_deadline_requires_latency_model(self):
        with pytest.raises(ValueError, match="latency model"):
            ScenarioConfig(deadline=2.0)

    def test_async_requires_buffer_size(self):
        with pytest.raises(ValueError, match="buffer_size"):
            ScenarioConfig(aggregation="buffered-async")

    def test_buffer_size_rejected_in_sync_mode(self):
        with pytest.raises(ValueError, match="buffer_size"):
            ScenarioConfig(buffer_size=4)

    def test_dropout_probability_range(self):
        with pytest.raises(ValueError):
            RandomDropout(1.0)
        with pytest.raises(ValueError):
            RandomDropout(-0.1)

    def test_negative_staleness_alpha(self):
        with pytest.raises(ValueError, match="staleness_alpha"):
            ScenarioConfig(staleness_alpha=-1.0)

    def test_non_positive_deadline_rejected_with_actionable_message(self):
        with pytest.raises(ValueError, match="deadline must be > 0"):
            ScenarioConfig(latency=FixedLatency(1.0), deadline=0.0)
        with pytest.raises(ValueError, match="close every round"):
            ScenarioConfig(latency=FixedLatency(1.0), deadline=-2.0)

    def test_buffer_fraction_range(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="buffer_fraction"):
                ScenarioConfig(aggregation="buffered-async", buffer_fraction=bad)

    def test_buffer_size_and_fraction_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ScenarioConfig(aggregation="buffered-async", buffer_size=4, buffer_fraction=0.5)

    def test_buffer_fraction_rejected_in_sync_mode(self):
        with pytest.raises(ValueError, match="buffer_fraction"):
            ScenarioConfig(buffer_fraction=0.5)

    def test_effective_buffer_size(self):
        by_size = ScenarioConfig(aggregation="buffered-async", buffer_size=4)
        assert by_size.effective_buffer_size(10) == 4
        by_fraction = ScenarioConfig(aggregation="buffered-async", buffer_fraction=0.6)
        assert by_fraction.effective_buffer_size(10) == 6
        # never below one, even for a tiny dispatch
        assert by_fraction.effective_buffer_size(1) == 1


class TestClientsPerRoundValidation:
    def test_zero_clients_per_round_rejected(self):
        with pytest.raises(ValueError, match="clients_per_round"):
            make_config(clients_per_round=0)

    def test_negative_clients_per_round_rejected(self):
        with pytest.raises(ValueError, match="clients_per_round"):
            make_config(clients_per_round=-3)

    def test_server_empty_round_error_has_hint(self, small_model):
        server = AggregationServer(small_model.state_dict())
        with pytest.raises(ValueError, match="dropped out|clients_per_round"):
            server.receive_and_aggregate([])


class TestAvailabilityModels:
    def test_always_available(self):
        model = AlwaysAvailable()
        assert all(model.is_available(0, c, r) for c in range(5) for r in range(5))

    def test_random_dropout_is_deterministic(self):
        model = RandomDropout(0.4)
        draws = [model.is_available(7, c, r) for c in range(20) for r in range(5)]
        again = [model.is_available(7, c, r) for c in range(20) for r in range(5)]
        assert draws == again

    def test_random_dropout_rate_is_close(self):
        model = RandomDropout(0.3)
        draws = [model.is_available(0, c, r) for c in range(100) for r in range(20)]
        dropped = 1.0 - np.mean(draws)
        assert abs(dropped - 0.3) < 0.05

    def test_zero_probability_never_drops(self):
        model = RandomDropout(0.0)
        assert all(model.is_available(0, c, r) for c in range(50) for r in range(4))

    def test_churn_trace(self):
        trace = ChurnTrace({1: [0, 2]})
        assert trace.is_available(0, 5, 0)  # round absent -> default available
        assert trace.is_available(0, 0, 1)
        assert not trace.is_available(0, 1, 1)

    def test_churn_trace_default_unavailable(self):
        trace = ChurnTrace({}, default_available=False)
        assert not trace.is_available(0, 0, 0)


class TestLatencyModels:
    def test_fixed_latency_per_client_override(self):
        model = FixedLatency(seconds=1.0, per_client={3: 9.0})
        assert model.latency(0, 0, 0) == 1.0
        assert model.latency(0, 3, 0) == 9.0

    def test_lognormal_is_deterministic_and_positive(self):
        model = LogNormalLatency(median=1.0, sigma=0.5, straggler_fraction=0.2)
        values = [model.latency(3, c, r) for c in range(20) for r in range(3)]
        again = [model.latency(3, c, r) for c in range(20) for r in range(3)]
        assert values == again
        assert all(v > 0 for v in values)

    def test_straggler_tail_raises_latency(self):
        base = LogNormalLatency(median=1.0, sigma=0.0)
        tail = LogNormalLatency(
            median=1.0, sigma=0.0, straggler_fraction=1.0, straggler_multiplier=10.0
        )
        assert tail.latency(0, 0, 0) == pytest.approx(10.0 * base.latency(0, 0, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median=0.0)
        with pytest.raises(ValueError):
            LogNormalLatency(straggler_fraction=1.5)


class TestStalenessWeighting:
    def test_weight_values(self):
        assert staleness_weight(0, 0.5) == 1.0
        assert staleness_weight(3, 0.5) == pytest.approx(4.0**-0.5)
        assert staleness_weight(1, 0.0) == 1.0
        with pytest.raises(ValueError):
            staleness_weight(-1, 0.5)

    def test_update_weights_all_fresh_is_none(self, small_model):
        updates = [
            ModelUpdate(sender_id=i, round_index=0, state=small_model.state_dict())
            for i in range(3)
        ]
        assert update_weights(updates, staleness_alpha=0.5) is None

    def test_async_weighting_matches_hand_computation(self):
        """Staleness-weighted aggregate vs an explicitly computed expectation."""
        values = [2.0, 4.0, 8.0]
        staleness = [0, 1, 3]
        alpha = 0.5
        updates = [
            ModelUpdate(
                sender_id=i,
                round_index=3,
                state=OrderedDict(w=np.array([v], dtype=np.float32)),
                metadata={"staleness": s},
            )
            for i, (v, s) in enumerate(zip(values, staleness))
        ]
        weights = [(1.0 + s) ** -alpha for s in staleness]
        expected = float(np.sum(np.float32(weights) * np.float32(values)) / np.float32(sum(weights)))
        aggregated = aggregate_updates(updates, staleness_alpha=alpha)
        assert aggregated["w"][0] == pytest.approx(expected, rel=1e-6)
        # fresh-only updates reduce to the plain mean
        for u in updates:
            u.metadata["staleness"] = 0
        plain = aggregate_updates(updates, staleness_alpha=alpha)
        assert plain["w"][0] == pytest.approx(np.mean(values))

    def test_flat_and_reference_weighting_agree(self, small_model):
        rng = rng_from_seed(0)
        updates = []
        for i in range(5):
            state = OrderedDict(
                (name, value + 0.1 * rng.standard_normal(value.shape).astype(np.float32))
                for name, value in small_model.state_dict().items()
            )
            updates.append(
                ModelUpdate(
                    sender_id=i, round_index=2, state=state, metadata={"staleness": i % 3}
                )
            )
        flat = aggregate_updates(updates, staleness_alpha=0.5)
        reference = aggregate_updates_reference(updates, staleness_alpha=0.5)
        for name in flat:
            np.testing.assert_array_equal(flat[name], reference[name])

    def test_flat_batch_staleness_weighted_mean(self, small_model):
        updates = [
            ModelUpdate(
                sender_id=i,
                round_index=1,
                state=small_model.state_dict(),
                metadata={"staleness": i},
            )
            for i in range(3)
        ]
        batch = FlatUpdateBatch.from_updates(updates)
        weighted = batch.staleness_weighted_mean(0.5)
        expected = batch.mean([(1.0 + i) ** -0.5 for i in range(3)])
        np.testing.assert_array_equal(weighted, expected)


class TestScenarioRounds:
    def test_no_scenario_bit_identical_to_default_scenario(self, tiny_motionsense):
        """``scenario=None`` and ``ScenarioConfig()`` run the same round."""
        legacy = run_sim(tiny_motionsense, scenario=None)
        default = run_sim(tiny_motionsense, scenario=ScenarioConfig())
        assert legacy.accuracy_curve() == default.accuracy_curve()
        assert [r.mean_local_loss for r in legacy.rounds] == [
            r.mean_local_loss for r in default.rounds
        ]
        for name in legacy.final_state:
            np.testing.assert_array_equal(legacy.final_state[name], default.final_state[name])

    def test_dropout_shrinks_rounds(self, tiny_motionsense):
        result = run_sim(tiny_motionsense, ScenarioConfig(availability=RandomDropout(0.4)))
        for record in result.rounds:
            assert record.num_selected == 6
            assert record.num_aggregated == record.num_selected - record.num_dropped
        assert sum(r.num_dropped for r in result.rounds) > 0

    def test_every_client_dropped_raises_clear_error(self, tiny_motionsense):
        scenario = ScenarioConfig(availability=ChurnTrace({0: []}))
        with pytest.raises(RuntimeError, match="no client survived"):
            run_sim(tiny_motionsense, scenario, rounds=1)

    def test_async_buffer_without_arrivals_raises(self, tiny_motionsense):
        scenario = ScenarioConfig(
            availability=ChurnTrace({0: []}), aggregation="buffered-async", buffer_size=4
        )
        with pytest.raises(RuntimeError, match="async buffer"):
            run_sim(tiny_motionsense, scenario, rounds=1)

    def test_deadline_cuts_stragglers(self, tiny_motionsense):
        ids = [c.client_id for c in tiny_motionsense.clients()]
        slow = {ids[0]: 99.0, ids[1]: 99.0}
        scenario = ScenarioConfig(
            latency=FixedLatency(seconds=1.0, per_client=slow), deadline=5.0
        )
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None)
        for record in result.rounds:
            assert record.num_stragglers == 2
            assert record.num_aggregated == len(ids) - 2
            # Measured semantics: the server cannot know stragglers will miss,
            # so the round closes at the deadline, not at the last arrival.
            assert record.simulated_duration == 5.0
            assert record.arrival_times and all(
                time == record.round_start + 1.0 for _, time in record.arrival_times
            )
            # everyone uploaded at t+1 and waited until the t+5 close: 80% idle
            assert record.idle_fraction == pytest.approx(0.8)
            assert record.effective_throughput == pytest.approx((len(ids) - 2) / 5.0)

    def test_deadline_round_closes_at_last_arrival_without_stragglers(self, tiny_motionsense):
        scenario = ScenarioConfig(latency=FixedLatency(seconds=1.0), deadline=5.0)
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None)
        for record in result.rounds:
            assert record.num_stragglers == 0
            assert record.simulated_duration == 1.0

    def test_async_staleness_flows_into_later_rounds(self, tiny_motionsense):
        ids = [c.client_id for c in tiny_motionsense.clients()]
        # one permanently slow client misses every deadline and arrives late
        scenario = ScenarioConfig(
            latency=FixedLatency(seconds=1.0, per_client={ids[0]: 7.0}),
            deadline=5.0,
            aggregation="buffered-async",
            buffer_size=len(ids),
        )
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None, rounds=3)
        # round 0: slow client in transit; rounds 1+: its stale update merges
        assert result.rounds[0].num_stale == 0
        assert result.rounds[0].num_aggregated == len(ids) - 1
        assert result.rounds[1].num_stale == 1
        assert result.rounds[1].num_aggregated == len(ids)
        stale = [
            u
            for u in result.received_updates[1]
            if u.metadata.get("staleness", 0) > 0
        ]
        assert len(stale) == 1
        assert stale[0].sender_id == ids[0]
        assert stale[0].metadata["origin_round"] == 0

    def test_max_staleness_discards(self, tiny_motionsense):
        ids = [c.client_id for c in tiny_motionsense.clients()]
        scenario = ScenarioConfig(
            latency=FixedLatency(seconds=1.0, per_client={ids[0]: 7.0}),
            deadline=5.0,
            aggregation="buffered-async",
            buffer_size=len(ids),
            max_staleness=0,
        )
        result = run_sim(tiny_motionsense, scenario, clients_per_round=None, rounds=3)
        assert sum(r.num_stale for r in result.rounds) == 0
        assert sum(r.num_discarded for r in result.rounds) > 0

    def test_churn_determinism_across_parallelism(self, tiny_motionsense):
        """Dropout + async rounds must be bit-identical for parallelism 1 vs 8."""
        scenario = ScenarioConfig(
            availability=RandomDropout(0.25),
            latency=LogNormalLatency(median=1.0, sigma=0.8),
            aggregation="buffered-async",
            buffer_size=4,
        )
        sequential = run_sim(tiny_motionsense, scenario, parallelism=1)
        parallel = run_sim(tiny_motionsense, scenario, parallelism=8)
        assert sequential.accuracy_curve() == parallel.accuracy_curve()
        for a, b in zip(sequential.rounds, parallel.rounds):
            assert a.mean_local_loss == b.mean_local_loss
            assert (a.num_dropped, a.num_stale, a.num_aggregated) == (
                b.num_dropped,
                b.num_stale,
                b.num_aggregated,
            )
        for name in sequential.final_state:
            np.testing.assert_array_equal(sequential.final_state[name], parallel.final_state[name])

    def test_caller_supplied_proxy_keeps_its_k_under_churn(self, tiny_motionsense, keypair):
        """Adaptive k only applies to defense-built proxies: an explicitly
        configured streaming proxy must keep its small window."""
        from repro.mixnn.proxy import MixNNProxy

        proxy = MixNNProxy(enclave=SGXEnclaveSim(keypair=keypair), k=2, rng=rng_from_seed(7))
        defense = MixNNDefense(proxy=proxy)
        scenario = ScenarioConfig(availability=RandomDropout(0.3))
        run_sim(tiny_motionsense, scenario, defense=defense, rounds=2)
        assert proxy.k == 2

    def test_mixnn_mixes_the_surviving_subset(self, tiny_motionsense, keypair):
        """The proxy's k must follow the churned cohort, and mixing must keep
        the aggregate equal to classical FL over the same survivors."""
        scenario = ScenarioConfig(availability=RandomDropout(0.3))
        plain = run_sim(tiny_motionsense, scenario, defense=NoDefense(), rounds=3)
        mixed = run_sim(
            tiny_motionsense,
            scenario,
            defense=MixNNDefense(enclave=SGXEnclaveSim(keypair=keypair), rng=rng_from_seed(7)),
            rounds=3,
        )
        # same churn draws -> same survivor counts; mixing preserves the mean
        for a, b in zip(plain.rounds, mixed.rounds):
            assert a.num_dropped == b.num_dropped
            assert a.num_aggregated == b.num_aggregated
        np.testing.assert_allclose(
            plain.accuracy_curve(), mixed.accuracy_curve(), atol=1e-3
        )
        for name in plain.final_state:
            np.testing.assert_allclose(
                plain.final_state[name], mixed.final_state[name], atol=1e-4
            )


class TestMixNNStalenessPassthrough:
    def test_layerwise_mean_matches_hand_computation(self):
        """param_staleness weights each parameter span by its own source."""
        from repro.federated.update import layerwise_staleness_mean

        alpha = 0.5
        updates = []
        for i, (a_value, b_value) in enumerate([(2.0, 10.0), (4.0, 20.0), (8.0, 40.0)]):
            updates.append(
                ModelUpdate(
                    sender_id=i,
                    round_index=3,
                    state=OrderedDict(
                        a=np.array([a_value], dtype=np.float32),
                        b=np.array([b_value], dtype=np.float32),
                    ),
                    metadata={"param_staleness": {"a": i, "b": 2 * i}},
                )
            )
        result = layerwise_staleness_mean(updates, alpha)
        for name, staleness_of in (("a", lambda i: i), ("b", lambda i: 2 * i)):
            weights = np.float32([(1.0 + staleness_of(i)) ** -alpha for i in range(3)])
            values = np.float32([u.state[name][0] for u in updates])
            expected = float((weights * values).sum() / weights.sum())
            assert result[name][0] == pytest.approx(expected, rel=1e-6)

    def test_layerwise_flat_and_reference_agree_bitwise(self, small_model):
        """The retained per-parameter reference validates the flat path for
        chimera batches too (same float32 accumulation order)."""
        from repro.federated.update import (
            layerwise_staleness_mean,
            layerwise_staleness_mean_reference,
        )

        rng = rng_from_seed(3)
        names = list(small_model.state_dict())
        updates = []
        for i in range(5):
            state = OrderedDict(
                (name, value + 0.1 * rng.standard_normal(value.shape).astype(np.float32))
                for name, value in small_model.state_dict().items()
            )
            metadata = {"staleness": i % 3}
            if i % 2 == 0:
                # mix chimeras and plain stale updates; build the dict
                # *partial and in reverse schema order* so a span-slicing bug
                # (e.g. treating span() as (offset, size)) cannot be masked
                # by in-order full coverage
                metadata["param_staleness"] = {
                    name: (i + j) % 4 for j, name in reversed(list(enumerate(names[1:])))
                }
            updates.append(
                ModelUpdate(sender_id=i, round_index=2, state=state, metadata=metadata)
            )
        flat = layerwise_staleness_mean(updates, 0.5, sample_weighted=True)
        reference = layerwise_staleness_mean_reference(updates, 0.5, sample_weighted=True)
        for name in flat:
            np.testing.assert_array_equal(flat[name], reference[name])
        # aggregate_updates_reference dispatches to the same layerwise path
        via_reference = aggregate_updates_reference(
            updates, sample_weighted=True, staleness_alpha=0.5
        )
        via_flat = aggregate_updates(updates, sample_weighted=True, staleness_alpha=0.5)
        for name in via_flat:
            np.testing.assert_array_equal(via_flat[name], via_reference[name])

    def test_aggregate_updates_dispatches_on_param_staleness(self, small_model):
        """A batch containing chimeras takes the layerwise path; the same
        batch stripped of the metadata takes the scalar path."""
        state = small_model.state_dict()
        names = list(state)
        updates = [
            ModelUpdate(sender_id=i, round_index=0, state=state) for i in range(3)
        ]
        updates[0].metadata["param_staleness"] = {names[0]: 4}
        updates[0].metadata["staleness"] = 4
        layered = aggregate_updates(updates, staleness_alpha=0.5)
        # only the tagged span is down-weighted; other params use weight 1
        plain = aggregate_updates_reference(
            [ModelUpdate(sender_id=i, round_index=0, state=state) for i in range(3)]
        )
        np.testing.assert_allclose(layered[names[1]], plain[names[1]], rtol=1e-6)

    def test_chimeras_carry_param_staleness_under_async_mixnn(
        self, tiny_motionsense, keypair
    ):
        ids = [c.client_id for c in tiny_motionsense.clients()]
        scenario = ScenarioConfig(
            latency=FixedLatency(seconds=1.0, per_client={ids[0]: 7.0}),
            deadline=5.0,
            aggregation="buffered-async",
            buffer_size=len(ids),
        )
        defense = MixNNDefense(enclave=SGXEnclaveSim(keypair=keypair), rng=rng_from_seed(7))
        result = run_sim(
            tiny_motionsense, scenario, defense=defense, clients_per_round=None, rounds=3
        )
        stale_chimeras = [
            u
            for round_updates in result.received_updates
            for u in round_updates
            if "param_staleness" in u.metadata
        ]
        assert stale_chimeras, "no chimera carried the per-layer staleness vector"
        for chimera in stale_chimeras:
            staleness = chimera.metadata["param_staleness"]
            assert set(staleness) == set(chimera.state)
            assert max(staleness.values()) >= 1
            assert chimera.metadata["staleness"] == max(staleness.values())

    def test_passthrough_preserves_staleness_weighted_aggregate(
        self, tiny_motionsense, keypair
    ):
        """Per-layer weighting over chimeras == per-update weighting over the
        originals: each (participant, layer) piece is forwarded exactly once
        with its own staleness, so MixNN + async matches classical FL + async."""
        ids = [c.client_id for c in tiny_motionsense.clients()]
        scenario = ScenarioConfig(
            latency=FixedLatency(seconds=1.0, per_client={ids[0]: 7.0, ids[1]: 9.0}),
            deadline=5.0,
            aggregation="buffered-async",
            buffer_size=len(ids),
            staleness_alpha=0.7,
        )
        plain = run_sim(
            tiny_motionsense, scenario, defense=NoDefense(), clients_per_round=None, rounds=3
        )
        mixed = run_sim(
            tiny_motionsense,
            scenario,
            defense=MixNNDefense(enclave=SGXEnclaveSim(keypair=keypair), rng=rng_from_seed(7)),
            clients_per_round=None,
            rounds=3,
        )
        assert sum(r.num_stale for r in plain.rounds) >= 1
        np.testing.assert_allclose(
            plain.accuracy_curve(), mixed.accuracy_curve(), atol=1e-3
        )
        for name in plain.final_state:
            np.testing.assert_allclose(
                plain.final_state[name], mixed.final_state[name], atol=2e-4
            )


class TestInferenceCurveAlignment:
    def test_pairs_carry_round_indices(self, tiny_motionsense):
        from repro.federated.simulation import RoundRecord, SimulationResult

        records = [
            RoundRecord(round_index=0, global_accuracy=0.5, inference_accuracy=None),
            RoundRecord(round_index=1, global_accuracy=0.6, inference_accuracy=0.7),
            RoundRecord(round_index=2, global_accuracy=0.7, inference_accuracy=0.8),
        ]
        result = SimulationResult(
            rounds=records, final_state={}, defense_name="x", received_updates=[]
        )
        assert result.inference_curve() == [(1, 0.7), (2, 0.8)]
        assert result.inference_values() == [0.7, 0.8]
        assert len(result.accuracy_curve()) == 3
