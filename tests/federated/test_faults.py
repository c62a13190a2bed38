"""Fault plane: deterministic injection, retry/backoff, quorum, checkpoint.

Marked ``faults`` so the whole plane can be exercised quickly::

    PYTHONPATH=src python -m pytest -m faults -q
"""

import dataclasses

import numpy as np
import pytest

from repro.defenses import MixNNDefense
from repro.experiments.models import paper_cnn
from repro.federated import (
    AdversaryConfig,
    FaultConfig,
    FaultInjector,
    FaultLedger,
    FederatedSimulation,
    FixedLatency,
    LocalTrainingConfig,
    LogNormalLatency,
    RandomDropout,
    ScenarioConfig,
    SimulationConfig,
    state_digest,
)
from repro.federated import adversary as adversary_plane
from repro.federated import faults as fault_plane
from repro.federated.faults import FAULT_KINDS, POST_FLUSH_KINDS, RESOLUTIONS
from repro.utils.rng import rng_from_seed, stable_seed

pytestmark = pytest.mark.faults


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


def make_sim(dataset, scenario=None, defense=None, **kwargs):
    return FederatedSimulation(
        dataset, model_fn_for_dataset(dataset), make_config(scenario, **kwargs), defense=defense
    )


def faulted_scenario(**fault_kwargs):
    return ScenarioConfig(
        availability=RandomDropout(0.1),
        latency=FixedLatency(1.0),
        faults=FaultConfig(**fault_kwargs),
    )


class TestFaultConfigValidation:
    @pytest.mark.parametrize(
        "name",
        [
            "client_crash_rate",
            "frame_corruption_rate",
            "enclave_failure_rate",
            "attestation_failure_rate",
            "proxy_crash_rate",
            "merge_failure_rate",
        ],
    )
    def test_rates_must_be_probabilities(self, name):
        with pytest.raises(ValueError, match=name):
            FaultConfig(**{name: 1.0})
        with pytest.raises(ValueError, match=name):
            FaultConfig(**{name: -0.1})

    def test_quorum_fraction_bounds(self):
        with pytest.raises(ValueError, match="quorum_fraction"):
            FaultConfig(quorum_fraction=0.0)
        with pytest.raises(ValueError, match="quorum_fraction"):
            FaultConfig(quorum_fraction=1.5)
        assert FaultConfig(quorum_fraction=1.0).quorum_count(10) == 10
        assert FaultConfig(quorum_fraction=0.7).quorum_count(10) == 7
        # never below one merged update, even for a tiny cohort
        assert FaultConfig(quorum_fraction=0.1).quorum_count(3) == 1

    def test_retry_knob_bounds(self):
        with pytest.raises(ValueError, match="max_attempts"):
            FaultConfig(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_base"):
            FaultConfig(backoff_base=0.0)
        with pytest.raises(ValueError, match="backoff_factor"):
            FaultConfig(backoff_factor=0.5)
        with pytest.raises(ValueError, match="hop_timeout"):
            FaultConfig(hop_timeout=0.0)

    def test_scenario_rejects_a_missing_fault_plane(self):
        # the zero-rate FaultConfig() is the plane's one "off"
        assert ScenarioConfig().faults == FaultConfig()
        with pytest.raises(TypeError, match=r"zero-rate FaultConfig\(\) default"):
            ScenarioConfig(faults=None)


class TestFaultInjectorDeterminism:
    def test_draws_are_pure_functions_of_the_key(self):
        config = FaultConfig(frame_corruption_rate=0.5, proxy_crash_rate=0.5)
        a = FaultInjector(7, config)
        b = FaultInjector(7, config)
        for client in range(20):
            for attempt in range(3):
                assert a.frame_fault(client, 0, attempt) == b.frame_fault(client, 0, attempt)
        assert [a.proxy_crash(r) for r in range(20)] == [b.proxy_crash(r) for r in range(20)]

    def test_different_seeds_disagree_somewhere(self):
        config = FaultConfig(frame_corruption_rate=0.5)
        a = FaultInjector(0, config)
        b = FaultInjector(1, config)
        draws_a = [a.frame_fault(c, 0, 0) for c in range(64)]
        draws_b = [b.frame_fault(c, 0, 0) for c in range(64)]
        assert draws_a != draws_b

    def test_zero_rate_never_fires(self):
        injector = FaultInjector(0, FaultConfig())
        assert not any(injector.frame_fault(c, r, 0) for c in range(32) for r in range(4))
        assert not any(injector.client_crash(c, 0) for c in range(32))
        assert not any(injector.proxy_crash(r) for r in range(32))

    def test_empirical_rate_is_near_the_configured_rate(self):
        injector = FaultInjector(3, FaultConfig(frame_corruption_rate=0.5))
        fired = sum(injector.frame_fault(c, r, 0) for c in range(40) for r in range(10))
        assert 0.35 < fired / 400 < 0.65

    def test_backoff_grows_geometrically_within_jitter(self):
        config = FaultConfig(backoff_base=0.5, backoff_factor=2.0, backoff_max=30.0, backoff_jitter=0.1)
        injector = FaultInjector(0, config)
        for attempt in range(6):
            nominal = min(30.0, 0.5 * 2.0**attempt)
            delay = injector.backoff("frame", 4, 1, attempt)
            assert nominal * 0.9 <= delay <= nominal * 1.1
        # the cap binds for deep attempt counts
        assert injector.backoff("frame", 4, 1, 20) <= 30.0 * 1.1

    def test_backoff_without_jitter_is_exact(self):
        injector = FaultInjector(0, FaultConfig(backoff_jitter=0.0))
        assert injector.backoff("frame", 0, 0, 0) == 0.5
        assert injector.backoff("frame", 0, 0, 2) == 2.0

    def test_retry_latency_scales_the_base(self):
        injector = FaultInjector(0, FaultConfig())
        for attempt in range(1, 5):
            latency = injector.retry_latency(2.0, 3, 1, attempt)
            assert 1.0 <= latency < 3.0
        assert injector.retry_latency(0.0, 3, 1, 1) == 0.0

    def test_crash_point_in_range(self):
        injector = FaultInjector(0, FaultConfig(proxy_crash_rate=0.5))
        for r in range(16):
            assert 0 <= injector.crash_point(r, 10) < 10
        assert injector.crash_point(0, 0) == 0

    def test_corrupt_frame_is_deterministic_and_actually_corrupts(self):
        injector = FaultInjector(0, FaultConfig())
        blob = bytes(range(256)) * 4
        for entity in range(16):
            mangled = injector.corrupt_frame(blob, entity, 2)
            assert mangled == injector.corrupt_frame(blob, entity, 2)
            assert mangled != blob
        assert injector.corrupt_frame(b"", 0, 0) == b""


class TestRetry:
    """``FaultInjector.retry``: the one in-line retry-with-backoff loop."""

    def test_fails_k_times_then_succeeds(self):
        injector = FaultInjector(0, FaultConfig(max_attempts=4))
        ledger = injector.ledger
        for k in range(4):
            ledger.entries.clear()
            assert injector.retry("merge", -1, 2, lambda attempt: attempt < k) == k
            assert [(e.attempt, e.resolution) for e in ledger.entries] == [
                (attempt, "retried") for attempt in range(k)
            ]
            assert [e.delay_seconds for e in ledger.entries] == [
                injector.backoff("merge", -1, 2, attempt) for attempt in range(k)
            ]

    @pytest.mark.parametrize("exhausted", ["retried", "failed-over"])
    def test_a_spent_budget_resolves_the_last_failure_as_exhausted(self, exhausted):
        injector = FaultInjector(0, FaultConfig(max_attempts=3))
        failures = injector.retry("shard-crash", 1, 0, lambda attempt: True, exhausted=exhausted)
        assert failures == 3
        ledger = injector.ledger
        assert [e.resolution for e in ledger.entries] == ["retried", "retried", exhausted]
        assert [(e.kind, e.entity, e.round_index) for e in ledger.entries] == [
            ("shard-crash", 1, 0)
        ] * 3

    def test_a_clean_first_attempt_records_nothing(self):
        injector = FaultInjector()
        injector.backoff = lambda *key: pytest.fail("backoff drawn without a failure")
        assert injector.retry("enclave", 5, 0, lambda attempt: False) == 0
        assert injector.ledger.entries == []


class TestFaultLedger:
    def test_rejects_unknown_kind_and_resolution(self):
        ledger = FaultLedger()
        with pytest.raises(ValueError, match="kind"):
            ledger.record("meteor-strike", 0, 0, 0, "retried")
        with pytest.raises(ValueError, match="resolution"):
            ledger.record("frame", 0, 0, 0, "ignored")

    def test_invariant_holds_by_construction(self):
        ledger = FaultLedger()
        ledger.record("frame", 1, 0, 0, "retried", delay_seconds=0.5)
        ledger.record("frame", 1, 0, 1, "discarded")
        ledger.record("proxy-crash", 0, 1, 0, "failed-over", delay_seconds=2.0)
        ledger.validate()
        assert ledger.injected == 3
        assert ledger.retried == 1
        assert ledger.failed_over == 1
        assert ledger.discarded == 1
        summary = ledger.summary()
        assert summary["injected"] == 3
        assert summary["by_kind"]["frame"] == 2
        assert summary["recovery_seconds"] == pytest.approx(2.5)

    def test_round_slice_and_retransmissions(self):
        ledger = FaultLedger()
        ledger.record("merge", -1, 2, 0, "retried")
        ledger.record("frame", 4, 3, 0, "retried")
        ledger.note_retransmissions(5)
        assert [e.kind for e in ledger.round_slice(2)] == ["merge"]
        assert ledger.retransmissions == 5
        with pytest.raises(ValueError, match="retransmission"):
            ledger.note_retransmissions(-1)

    def test_taxonomy_is_closed(self):
        assert set(POST_FLUSH_KINDS) <= set(FAULT_KINDS)
        assert set(RESOLUTIONS) == {"retried", "failed-over", "discarded"}


class TestZeroFaultBitIdentity:
    """The zero-rate fault plane every run arms must not perturb a single bit."""

    #: final-weights SHA-256 and transcript head of the fault-free pipeline
    #: on each run below (seed 3, four rounds); the default scenario's
    #: zero-rate plane must reproduce both
    FAULT_FREE = {
        "sync": (
            "4222079bf60ceb70b07dc749561c27b1b7b52229d302953ba3b15bc7b6c75315",
            "106d6fb8887263ca937da13c9e217c540d328ecd59ffd5878009d5cc843aaa78",
        ),
        "sync-dropout": (
            "e5b71c9abb7fe4235a8d3560194f39c4df070adced391b61a85a04b684ce611c",
            "8f6b99e0ee0d8dfd6d2f8958de5167b492722c4b81f32d272153fe1ac6f55ebf",
        ),
        "buffered-async": (
            "612a0dd4f1f2b1af0c78249874ce932f68322e890dce450c2ca8c3da144beffa",
            "745ca2cee9f1f283265de42b4f62e1cccac7a64d57443582291cc9d0fe3c1c80",
        ),
    }
    SCENARIOS = {
        "sync": lambda: ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.5)),
        "sync-dropout": lambda: ScenarioConfig(
            availability=RandomDropout(0.2), latency=LogNormalLatency(median=1.0, sigma=0.5)
        ),
        "buffered-async": lambda: ScenarioConfig(
            latency=LogNormalLatency(median=1.0, sigma=1.0),
            aggregation="buffered-async",
            buffer_size=2,
        ),
    }

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_zero_plane_reproduces_the_fault_free_digests(self, tiny_motionsense, name):
        scenario = self.SCENARIOS[name]()
        assert scenario.faults == FaultConfig()
        result = make_sim(tiny_motionsense, scenario, rounds=4, seed=3).run()
        assert (state_digest(result.final_state), result.transcript.head) == self.FAULT_FREE[name]
        assert result.fault_ledger.injected == 0
        if scenario.is_async:
            # payloads stay in transit at every flush, carried forward as stale
            assert all(r.num_carried_forward > 0 for r in result.rounds)

    def test_faulted_run_identical_across_parallelism(self, tiny_motionsense):
        def run(parallelism):
            scenario = faulted_scenario(
                frame_corruption_rate=0.2, client_crash_rate=0.1, quorum_fraction=0.8
            )
            return make_sim(tiny_motionsense, scenario, parallelism=parallelism).run()

        serial = run(1)
        threaded = run(8)
        assert serial.accuracy_curve() == threaded.accuracy_curve()
        assert [e for e in serial.fault_ledger.entries] == [
            e for e in threaded.fault_ledger.entries
        ]


class TestZeroPlanesDrawNothing:
    """A default-scenario run arms both planes at zero rates: neither draws a
    hash nor records anything, and every sync round closes by the quorum
    policy at the whole surviving cohort."""

    CASES = {
        "default-mixnn": dict(scenario=ScenarioConfig(), mixnn=True),
        "dropout-latency": dict(
            scenario=ScenarioConfig(
                availability=RandomDropout(0.2), latency=LogNormalLatency(median=1.0, sigma=0.5)
            ),
        ),
        "buffered-async-mixnn": dict(
            scenario=ScenarioConfig(
                latency=LogNormalLatency(median=1.0, sigma=1.0),
                aggregation="buffered-async",
                buffer_size=2,
            ),
            mixnn=True,
        ),
        "sharded": dict(scenario=ScenarioConfig(), num_shards=2),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_zero_planes_draw_nothing(self, tiny_motionsense, monkeypatch, name):
        case = self.CASES[name]
        draws = []
        for module in (fault_plane, adversary_plane):
            for draw in ("seeded_uniform", "rng_from_seed"):
                original = getattr(module, draw)

                def counted(*args, _original=original, _key=(module.__name__, draw)):
                    draws.append(_key)
                    return _original(*args)

                monkeypatch.setattr(module, draw, counted)
        defense = (
            MixNNDefense(rng=rng_from_seed(stable_seed(0, "mixnn-proxy")))
            if case.get("mixnn")
            else None
        )
        scenario = case["scenario"]
        assert (scenario.faults, scenario.adversary) == (FaultConfig(), AdversaryConfig())
        result = FederatedSimulation(
            tiny_motionsense,
            model_fn_for_dataset(tiny_motionsense),
            dataclasses.replace(make_config(scenario, rounds=3), num_shards=case.get("num_shards", 0)),
            defense=defense,
        ).run()
        assert draws == []
        assert result.fault_ledger.entries == [] and result.fault_ledger.retransmissions == 0
        assert result.adversary_ledger.entries == [] and not result.adversary_ledger.pending
        for record in result.rounds:
            if scenario.is_async:
                assert record.quorum_target == 0
            else:
                assert record.quorum_target == record.num_selected - record.num_dropped


class TestFaultedRounds:
    def test_frame_faults_are_retried_and_arrivals_shift(self, tiny_motionsense):
        scenario = faulted_scenario(frame_corruption_rate=0.3)
        result = make_sim(tiny_motionsense, scenario).run()
        ledger = result.fault_ledger
        ledger.validate()
        assert ledger.injected > 0
        assert ledger.counts()["by_kind"].get("frame", 0) > 0
        # every fault-free arrival lands at the same fixed latency, so a
        # retried frame shows up as spread between first and last arrival
        retried_rounds = {e.round_index for e in ledger.entries if e.resolution == "retried"}
        assert retried_rounds
        for r in retried_rounds:
            times = [t for _, t in result.rounds[r].arrival_times]
            assert max(times) - min(times) > 0.0
        assert sum(r.num_faults for r in result.rounds) == ledger.injected

    def test_attempt_cap_discards(self, tiny_motionsense):
        # max_attempts=1: the first corrupted frame is dropped, never retried
        scenario = faulted_scenario(frame_corruption_rate=0.3, max_attempts=1)
        result = make_sim(tiny_motionsense, scenario).run()
        ledger = result.fault_ledger
        ledger.validate()
        assert ledger.injected > 0
        assert ledger.retried == 0
        assert ledger.discarded == ledger.injected
        assert sum(r.num_fault_discarded for r in result.rounds) == ledger.discarded

    def test_round_losing_every_payload_reports_the_transport_loss(self, tiny_motionsense):
        scenario = ScenarioConfig(
            latency=FixedLatency(1.0),
            faults=FaultConfig(frame_corruption_rate=0.99, max_attempts=1),
        )
        with pytest.raises(
            RuntimeError, match="the sync round .* 6 lost to transport faults.* max_attempts"
        ):
            make_sim(tiny_motionsense, scenario, seed=3).run()

    def test_quorum_degrades_gracefully_under_crash_and_corruption(self, tiny_motionsense):
        scenario = faulted_scenario(
            frame_corruption_rate=0.05,
            client_crash_rate=0.1,
            proxy_crash_rate=0.2,
            quorum_fraction=0.6,
        )
        result = make_sim(
            tiny_motionsense,
            scenario,
            rounds=3,
            defense=MixNNDefense(rng=rng_from_seed(stable_seed(0, "mixnn-proxy"))),
        ).run()
        ledger = result.fault_ledger
        ledger.validate()
        for record in result.rounds:
            # every round still merged something and recorded its quorum target
            assert record.num_aggregated >= 1
            assert record.quorum_target >= 1
        assert result.accuracy_curve()[-1] > 0.0

    def test_merge_faults_extend_the_round(self, tiny_motionsense):
        noisy = faulted_scenario(merge_failure_rate=0.5)
        quiet = faulted_scenario()
        faulted = make_sim(tiny_motionsense, noisy).run()
        clean = make_sim(tiny_motionsense, quiet).run()
        ledger = faulted.fault_ledger
        assert ledger.counts()["by_kind"].get("merge", 0) > 0
        merged_rounds = [e.round_index for e in ledger.entries if e.kind == "merge"]
        for r in merged_rounds:
            assert faulted.rounds[r].simulated_duration > clean.rounds[r].simulated_duration
            assert faulted.rounds[r].recovery_seconds > 0.0


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, tiny_motionsense):
        scenario = faulted_scenario(frame_corruption_rate=0.2, quorum_fraction=0.8)
        straight = make_sim(tiny_motionsense, scenario, rounds=3).run()

        first = make_sim(tiny_motionsense, scenario, rounds=3)
        first._records.append(first.run_round())
        blob = first.checkpoint()

        resumed = make_sim(tiny_motionsense, scenario, rounds=3)
        resumed.restore_checkpoint(blob)
        result = resumed.run()

        assert result.accuracy_curve() == straight.accuracy_curve()
        for name, value in straight.final_state.items():
            np.testing.assert_array_equal(value, result.final_state[name])
        # the restored ledger carries round-0 history forward
        assert result.fault_ledger.injected == straight.fault_ledger.injected

    def test_checkpoint_seed_mismatch_is_rejected(self, tiny_motionsense):
        scenario = faulted_scenario()
        sim = make_sim(tiny_motionsense, scenario)
        sim._records.append(sim.run_round())
        blob = sim.checkpoint()
        other = make_sim(tiny_motionsense, scenario, seed=1)
        with pytest.raises(ValueError, match="seed"):
            other.restore_checkpoint(blob)

    def test_checkpoint_roundtrips_through_a_file(self, tiny_motionsense, tmp_path):
        scenario = faulted_scenario(frame_corruption_rate=0.2)
        sim = make_sim(tiny_motionsense, scenario)
        sim._records.append(sim.run_round())
        path = tmp_path / "round1.ckpt"
        sim.save_checkpoint(path)

        resumed = make_sim(tiny_motionsense, scenario)
        resumed.load_checkpoint(path)
        straight = make_sim(tiny_motionsense, scenario).run()
        assert resumed.run().accuracy_curve() == straight.accuracy_curve()
