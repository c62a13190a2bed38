"""Byzantine adversary plane: poisoning, robust policies, replay, transcript.

Marked ``byzantine`` so the whole plane can be exercised quickly::

    PYTHONPATH=src python -m pytest -m byzantine -q
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.defenses import MixNNDefense
from repro.experiments.models import paper_cnn
from repro.federated import (
    AdversaryConfig,
    AdversaryInjector,
    AdversaryLedger,
    FederatedSimulation,
    FixedLatency,
    LocalTrainingConfig,
    LogNormalLatency,
    ModelUpdate,
    RandomDropout,
    ScenarioConfig,
    SimulationConfig,
    TranscriptError,
    state_digest,
    update_contributors,
    update_digest,
)
from repro.federated.adversary import ADVERSARY_KINDS, ADVERSARY_RESOLUTIONS, ATTACK_KINDS
from repro.metrics import attack_success_rate, filter_recall, summarize_robustness
from repro.utils.rng import rng_from_seed, stable_seed

pytestmark = pytest.mark.byzantine


def model_fn_for_dataset(dataset):
    return lambda rng: paper_cnn(dataset.input_shape, dataset.num_classes, rng)


def make_config(scenario=None, rounds=2, clients_per_round=6, parallelism=1, seed=0, aggregation="mean"):
    return SimulationConfig(
        rounds=rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=32),
        clients_per_round=clients_per_round,
        seed=seed,
        parallelism=parallelism,
        track_per_client_accuracy=False,
        scenario=scenario,
        aggregation=aggregation,
    )


def make_sim(dataset, scenario=None, defense=None, **kwargs):
    return FederatedSimulation(
        dataset, model_fn_for_dataset(dataset), make_config(scenario, **kwargs), defense=defense
    )


def adversarial_scenario(**adversary_kwargs):
    return ScenarioConfig(
        availability=RandomDropout(0.0),
        latency=FixedLatency(1.0),
        adversary=AdversaryConfig(**adversary_kwargs),
    )


def toy_broadcast(rng):
    return OrderedDict(
        [
            ("conv.weight", rng.standard_normal((4, 3)).astype(np.float32)),
            ("fc.bias", rng.standard_normal(20).astype(np.float32)),
        ]
    )


def toy_updates(broadcast, rng, count, round_index=0):
    updates = []
    for sender in range(count):
        state = OrderedDict(
            (name, value + 0.1 * rng.standard_normal(value.shape).astype(np.float32))
            for name, value in broadcast.items()
        )
        updates.append(ModelUpdate(sender_id=sender, round_index=round_index, state=state))
    return updates


def flatten_state(state):
    return np.concatenate([np.asarray(v).ravel().astype(np.float64) for v in state.values()])


class TestAdversaryConfigValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            AdversaryConfig(fraction=1.0)
        with pytest.raises(ValueError, match="fraction"):
            AdversaryConfig(fraction=-0.1)

    def test_fraction_and_ids_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            AdversaryConfig(fraction=0.2, attacker_ids=(1, 2))

    def test_attacker_ids_are_deduplicated_and_sorted(self):
        config = AdversaryConfig(attacker_ids=(5, 1, 5, 3))
        assert config.attacker_ids == (1, 3, 5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="attack kind"):
            AdversaryConfig(kind="teleport")

    def test_scenario_rejects_a_missing_adversary_plane(self):
        # the silent AdversaryConfig() is the plane's one "off"
        assert ScenarioConfig().adversary == AdversaryConfig()
        with pytest.raises(TypeError, match=r"zero-rate AdversaryConfig\(\) default"):
            ScenarioConfig(adversary=None)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("scale", 0.0),
            ("noise_sigma", -1.0),
            ("alie_z", -0.5),
            ("backdoor_value", float("inf")),
            ("backdoor_dims", 0),
            ("replay_rate", 1.0),
        ],
    )
    def test_parameter_bounds(self, name, value):
        with pytest.raises(ValueError, match=name):
            AdversaryConfig(**{name: value})

    def test_taxonomy_is_closed(self):
        assert set(ATTACK_KINDS) <= set(ADVERSARY_KINDS)
        assert "replay" in ADVERSARY_KINDS
        assert set(ADVERSARY_RESOLUTIONS) == {"merged", "filtered", "rejected"}


class TestAdversaryInjectorDeterminism:
    def test_draws_are_pure_functions_of_the_key(self):
        config = AdversaryConfig(fraction=0.5, replay_rate=0.5)
        a = AdversaryInjector(7, config)
        b = AdversaryInjector(7, config)
        for client in range(20):
            for round_index in range(3):
                assert a.is_attacker(client, round_index) == b.is_attacker(client, round_index)
                assert a.should_replay(client, round_index) == b.should_replay(
                    client, round_index
                )

    def test_different_seeds_disagree_somewhere(self):
        config = AdversaryConfig(fraction=0.5)
        a = AdversaryInjector(0, config)
        b = AdversaryInjector(1, config)
        assert [a.is_attacker(c, 0) for c in range(64)] != [
            b.is_attacker(c, 0) for c in range(64)
        ]

    def test_zero_fraction_never_fires(self):
        injector = AdversaryInjector(0, AdversaryConfig())
        assert not any(injector.is_attacker(c, r) for c in range(32) for r in range(4))
        assert not any(injector.should_replay(c, r) for c in range(32) for r in range(4))

    def test_explicit_coalition_is_exact(self):
        injector = AdversaryInjector(0, AdversaryConfig(attacker_ids=(2, 9)))
        for round_index in range(4):
            assert {c for c in range(16) if injector.is_attacker(c, round_index)} == {2, 9}

    def test_empirical_rate_is_near_the_configured_rate(self):
        injector = AdversaryInjector(3, AdversaryConfig(fraction=0.5))
        fired = sum(injector.is_attacker(c, r) for c in range(40) for r in range(10))
        assert 0.35 < fired / 400 < 0.65

    def test_replay_requires_an_active_attacker(self):
        injector = AdversaryInjector(0, AdversaryConfig(attacker_ids=(1,), replay_rate=0.99))
        assert not injector.should_replay(0, 0)

    def test_backdoor_coordinates_are_cached_and_deterministic(self):
        a = AdversaryInjector(5, AdversaryConfig(kind="backdoor", backdoor_dims=8))
        b = AdversaryInjector(5, AdversaryConfig(kind="backdoor", backdoor_dims=8))
        coords = a.backdoor_coordinates(100)
        np.testing.assert_array_equal(coords, b.backdoor_coordinates(100))
        assert a.backdoor_coordinates(100) is coords  # cached per size
        assert len(coords) == 8 and len(set(coords.tolist())) == 8
        assert coords.max() < 100
        # a tiny model clamps the dims instead of failing
        assert len(a.backdoor_coordinates(4)) == 4


class TestPoisonSemantics:
    """Attack math on the flat plane, checked bit-for-bit."""

    def attack(self, kind, count=5, attacker_ids=(1, 3), **kwargs):
        rng = rng_from_seed(0)
        broadcast = toy_broadcast(rng)
        updates = toy_updates(broadcast, rng, count)
        honest = [u.flat().copy() for u in updates]
        injector = AdversaryInjector(
            0, AdversaryConfig(attacker_ids=attacker_ids, kind=kind, **kwargs)
        )
        attacked = injector.poison_round(updates, broadcast, 0)
        return injector, broadcast, updates, honest, attacked, injector.ledger

    def test_sign_flip_reverses_the_delta(self):
        injector, broadcast, updates, honest, attacked, _ = self.attack("sign-flip", scale=2.0)
        assert attacked == [1, 3]
        reference = flatten_state(broadcast).astype(np.float32)
        for i in (1, 3):
            # same float32 op order as the injector: (w − ref)·(−s) + ref
            expected = honest[i].copy()
            expected -= reference
            expected *= np.float32(-2.0)
            expected += reference
            np.testing.assert_array_equal(updates[i].flat(), expected)
            assert updates[i].metadata["poisoned"] == "sign-flip"
        for i in (0, 2, 4):
            np.testing.assert_array_equal(updates[i].flat(), honest[i])
            assert "poisoned" not in updates[i].metadata

    def test_poison_is_visible_through_the_state_dict(self):
        _, _, updates, honest, _, _ = self.attack("sign-flip")
        # ensure_flat made the state views of the flat buffer, so the state
        # dict a downstream consumer reads carries the poison too
        assert not np.array_equal(flatten_state(updates[1].state), honest[1].astype(np.float64))

    def test_gaussian_is_deterministic_per_client_round(self):
        _, _, first, honest, _, _ = self.attack("gaussian", noise_sigma=0.5)
        _, _, second, _, _, _ = self.attack("gaussian", noise_sigma=0.5)
        np.testing.assert_array_equal(first[1].flat(), second[1].flat())
        assert not np.array_equal(first[1].flat(), honest[1])
        # different attackers draw different noise
        delta_1 = first[1].flat() - honest[1]
        delta_3 = first[3].flat() - honest[3]
        assert not np.array_equal(delta_1, delta_3)

    def test_backdoor_writes_the_target_coordinates(self):
        injector, _, updates, honest, _, _ = self.attack(
            "backdoor", backdoor_value=7.0, backdoor_dims=5
        )
        coords = injector.backdoor_coordinates(updates[1].flat().size)
        for i in (1, 3):
            row = updates[1 if i == 1 else 3].flat()
            np.testing.assert_array_equal(row[coords], np.float32(7.0))
            untouched = np.delete(honest[i], coords)
            np.testing.assert_array_equal(np.delete(updates[i].flat(), coords), untouched)

    def test_alie_hides_within_the_benign_variance(self):
        _, _, updates, honest, _, _ = self.attack("alie", alie_z=1.0)
        benign = np.stack([honest[i] for i in (0, 2, 4)]).astype(np.float64)
        target = (benign.mean(axis=0) + benign.std(axis=0)).astype(np.float32)
        np.testing.assert_array_equal(updates[1].flat(), target)
        np.testing.assert_array_equal(updates[3].flat(), target)

    def test_zero_config_poisons_nothing(self):
        rng = rng_from_seed(0)
        broadcast = toy_broadcast(rng)
        updates = toy_updates(broadcast, rng, 4)
        honest = [u.flat().copy() for u in updates]
        injector = AdversaryInjector()
        assert injector.poison_round(updates, broadcast, 0) == []
        assert not injector.ledger.entries and not injector.ledger.pending
        for update, row in zip(updates, honest):
            np.testing.assert_array_equal(update.flat(), row)

    def test_pending_registrations_cover_the_attackers(self):
        _, _, _, _, _, ledger = self.attack("sign-flip")
        assert set(ledger.pending) == {(1, 0), (3, 0)}
        assert not ledger.entries


class TestAdversaryLedger:
    def test_rejects_unknown_kind_and_resolution(self):
        ledger = AdversaryLedger()
        with pytest.raises(ValueError, match="kind"):
            ledger.record("meteor-strike", 0, 0, "merged")
        with pytest.raises(ValueError, match="resolution"):
            ledger.record("sign-flip", 0, 0, "shrugged")

    def test_invariant_holds_by_construction(self):
        ledger = AdversaryLedger()
        ledger.record("sign-flip", 1, 0, "merged")
        ledger.record("scaling", 2, 0, "filtered")
        ledger.record("replay", 3, 1, "rejected")
        ledger.validate()
        assert ledger.injected == 3
        assert (ledger.merged, ledger.filtered, ledger.rejected) == (1, 1, 1)
        summary = ledger.summary()
        assert summary["injected"] == 3
        assert summary["by_kind"]["replay"] == 1
        assert [e.kind for e in ledger.round_slice(1)] == ["replay"]

    def test_pending_lifecycle(self):
        ledger = AdversaryLedger()
        ledger.register("sign-flip", 4, 0)
        ledger.register("sign-flip", 5, 0)
        with pytest.raises(ValueError, match="pending"):
            ledger.validate()
        ledger.resolve(4, 0, "merged")
        assert ledger.resolve_stranded("filtered") == 1
        ledger.validate()
        assert (ledger.merged, ledger.filtered) == (1, 1)
        with pytest.raises(KeyError, match="no pending"):
            ledger.resolve(4, 0, "merged")

    def test_resolve_contributors_kept_wins(self):
        ledger = AdversaryLedger()
        for client in (1, 2, 3):
            ledger.register("sign-flip", client, 0)
        # client 1 reached the model, client 2 was only in dropped updates,
        # client 3 is still in flight
        ledger.resolve_contributors({1}, {2})
        assert ledger.merged == 1 and ledger.filtered == 1
        assert set(ledger.pending) == {(3, 0)}

    def test_contributor_mapping(self):
        rng = rng_from_seed(0)
        update = toy_updates(toy_broadcast(rng), rng, 1)[0]
        assert update_contributors(update) == {0}
        update.metadata["unit_sources"] = [4, 7, 4]
        assert update_contributors(update) == {4, 7}


class TestZeroAdversaryBitIdentity:
    """The silent adversary plane every run arms must not perturb a single bit."""

    #: final-weights SHA-256 and transcript head of the adversary-free
    #: pipeline on this run; the default scenario's silent plane must
    #: reproduce both
    ADVERSARY_FREE = (
        "24c3dbcd09fe8e60243ff35f030c5d722804366fd1e75b1958b724b97c1bb912",
        "b1ceb92bb598ee99f4eee53310bc1a12e33036307dbe004717321fecd77af41a",
    )

    def test_silent_plane_reproduces_the_adversary_free_digests(self, tiny_motionsense):
        scenario = ScenarioConfig(availability=RandomDropout(0.2), latency=FixedLatency(1.0))
        assert scenario.adversary == AdversaryConfig()
        result = make_sim(tiny_motionsense, scenario).run()
        assert (state_digest(result.final_state), result.transcript.head) == self.ADVERSARY_FREE
        assert result.adversary_ledger.injected == 0

    @pytest.mark.parametrize("rule", ["mean", "krum"])
    def test_adversarial_run_identical_across_parallelism(self, tiny_motionsense, rule):
        def run(parallelism):
            scenario = adversarial_scenario(fraction=0.3, kind="sign-flip", scale=10.0)
            return make_sim(
                tiny_motionsense, scenario, parallelism=parallelism, aggregation=rule
            ).run()

        serial = run(1)
        threaded = run(8)
        assert serial.accuracy_curve() == threaded.accuracy_curve()
        for name, value in serial.final_state.items():
            np.testing.assert_array_equal(value, threaded.final_state[name])
        assert serial.adversary_ledger.entries == threaded.adversary_ledger.entries
        assert serial.transcript.head == threaded.transcript.head


class TestSignFlipCollapse:
    """Acceptance: 30% sign-flip breaks plain mean; robust policies hold."""

    #: measured drift of the poisoned-mean model from the clean model is ~8.2
    #: (62% of the model norm); robust rules stay below 0.25
    COLLAPSE_FLOOR = 2.0
    HOLD_CEILING = 0.5

    @pytest.fixture(scope="class")
    def clean_state(self, tiny_motionsense):
        scenario = ScenarioConfig(availability=RandomDropout(0.0), latency=FixedLatency(1.0))
        result = make_sim(tiny_motionsense, scenario, rounds=3).run()
        return flatten_state(result.final_state)

    def poisoned(self, dataset, rule):
        scenario = adversarial_scenario(fraction=0.3, kind="sign-flip", scale=100.0)
        return make_sim(dataset, scenario, rounds=3, aggregation=rule).run()

    def test_plain_mean_collapses(self, tiny_motionsense, clean_state):
        result = self.poisoned(tiny_motionsense, "mean")
        drift = np.linalg.norm(flatten_state(result.final_state) - clean_state)
        assert drift > self.COLLAPSE_FLOOR
        ledger = result.adversary_ledger
        ledger.validate()
        assert ledger.injected > 0 and ledger.merged == ledger.injected
        assert attack_success_rate(ledger) == 1.0
        assert sum(r.num_poisoned for r in result.rounds) == ledger.injected

    @pytest.mark.parametrize("rule", ["median", "norm_filter", "krum", "multi-krum"])
    def test_robust_policies_hold(self, tiny_motionsense, clean_state, rule):
        result = self.poisoned(tiny_motionsense, rule)
        drift = np.linalg.norm(flatten_state(result.final_state) - clean_state)
        assert drift < self.HOLD_CEILING
        result.adversary_ledger.validate()
        assert result.adversary_ledger.injected > 0

    @pytest.mark.parametrize("rule", ["norm_filter", "krum", "multi-krum"])
    def test_filtering_rules_catch_every_poison(self, tiny_motionsense, rule):
        result = self.poisoned(tiny_motionsense, rule)
        ledger = result.adversary_ledger
        assert ledger.filtered == ledger.injected
        assert filter_recall(ledger) == 1.0
        summary = summarize_robustness(result)
        assert summary.attack_success_rate == 0.0
        assert summary.filter_recall == 1.0
        # per-round tallies never exceed the ledger (end-of-run stranded
        # sweeps land on no round record)
        assert sum(r.num_poison_filtered for r in result.rounds) <= ledger.filtered


class TestReplayEndToEnd:
    def test_replays_are_rejected_at_the_proxy(self, tiny_motionsense):
        scenario = adversarial_scenario(fraction=0.5, kind="sign-flip", replay_rate=0.9)
        defense = MixNNDefense(rng=rng_from_seed(stable_seed(0, "mixnn-proxy")))
        result = make_sim(tiny_motionsense, scenario, defense=defense, rounds=2).run()
        ledger = result.adversary_ledger
        ledger.validate()
        assert ledger.rejected > 0
        assert defense.proxy.stats.replays_rejected == ledger.rejected
        assert sum(r.num_replays_rejected for r in result.rounds) == ledger.rejected
        # a rejected replay never changes the number of merged updates
        for record in result.rounds:
            assert record.num_aggregated == record.num_selected

    def test_zero_replay_rate_leaves_the_proxy_clean(self, tiny_motionsense):
        scenario = adversarial_scenario(fraction=0.5, kind="sign-flip")
        defense = MixNNDefense(rng=rng_from_seed(stable_seed(0, "mixnn-proxy")))
        result = make_sim(tiny_motionsense, scenario, defense=defense, rounds=2).run()
        assert defense.proxy.stats.replays_rejected == 0
        assert result.adversary_ledger.rejected == 0


class TestCheckpointResumeWithAdversary:
    def test_resume_is_bit_identical(self, tiny_motionsense):
        scenario = adversarial_scenario(fraction=0.3, kind="sign-flip", scale=10.0)
        straight = make_sim(tiny_motionsense, scenario, rounds=3, aggregation="krum").run()

        first = make_sim(tiny_motionsense, scenario, rounds=3, aggregation="krum")
        first._records.append(first.run_round())
        blob = first.checkpoint()

        resumed = make_sim(tiny_motionsense, scenario, rounds=3, aggregation="krum")
        resumed.restore_checkpoint(blob)
        result = resumed.run()

        assert result.accuracy_curve() == straight.accuracy_curve()
        for name, value in straight.final_state.items():
            np.testing.assert_array_equal(value, result.final_state[name])
        assert result.adversary_ledger.entries == straight.adversary_ledger.entries
        assert result.transcript.head == straight.transcript.head

    def test_resume_with_poison_in_flight_is_bit_identical(self, tiny_motionsense):
        """Buffered-async poison still in transit at the checkpoint resolves
        after the resume exactly as in the uninterrupted run: merged,
        filtered, or swept as stranded at the end."""
        scenario = ScenarioConfig(
            latency=LogNormalLatency(median=1.0, sigma=1.0),
            aggregation="buffered-async",
            buffer_size=2,
            adversary=AdversaryConfig(fraction=0.3, kind="sign-flip"),
        )
        straight = make_sim(tiny_motionsense, scenario, rounds=3)
        straight_result = straight.run()

        first = make_sim(tiny_motionsense, scenario, rounds=3)
        first._records.append(first.run_round())
        assert first.adversary_ledger.pending  # poison in flight at the checkpoint
        blob = first.checkpoint()

        resumed = make_sim(tiny_motionsense, scenario, rounds=3)
        resumed.restore_checkpoint(blob)
        result = resumed.run()

        ledger = result.adversary_ledger
        ledger.validate()
        assert ledger is resumed.adversary_ledger
        assert ledger.entries == straight_result.adversary_ledger.entries
        assert ledger.filtered > 0  # the end-of-run sweep resolved stranded poison
        assert result.rounds == straight_result.rounds
        for name, value in straight_result.final_state.items():
            np.testing.assert_array_equal(value, result.final_state[name])
        assert result.transcript.head == straight_result.transcript.head


class TestRoundTranscript:
    def run_with_transcript(self, dataset, rule="mean"):
        scenario = adversarial_scenario(fraction=0.3, kind="sign-flip", scale=10.0)
        return make_sim(dataset, scenario, rounds=2, aggregation=rule).run()

    def test_every_run_yields_a_verifiable_chain(self, tiny_motionsense):
        result = self.run_with_transcript(tiny_motionsense)
        transcript = result.transcript
        assert len(transcript) == len(result.rounds)
        transcript.verify()
        assert [e.rule for e in transcript.entries] == ["mean", "mean"]

    def test_transcript_records_the_policy_rule_and_drops(self, tiny_motionsense):
        result = self.run_with_transcript(tiny_motionsense, rule="krum")
        transcript = result.transcript
        transcript.verify()
        for entry, record in zip(transcript.entries, result.rounds):
            assert entry.rule == "krum"
            assert len(entry.kept) == 1
            assert len(entry.updates) == record.num_aggregated

    def test_tampering_is_detected(self, tiny_motionsense):
        transcript = self.run_with_transcript(tiny_motionsense).transcript
        entry = transcript.entries[0]
        entry.aggregate_digest = "0" * 64
        with pytest.raises(TranscriptError):
            transcript.verify()

    def test_audit_round_matches_the_received_updates(self, tiny_motionsense):
        result = self.run_with_transcript(tiny_motionsense)
        transcript = result.transcript
        for position, received in enumerate(result.received_updates):
            transcript.audit_round(position, received)
        # an update swapped after the fact no longer matches its digest
        doctored = list(result.received_updates[0])
        doctored[0] = doctored[0].copy()
        doctored[0].ensure_flat()[0] += 1.0
        assert update_digest(doctored[0]) != transcript.entries[0].updates[0][1]
        with pytest.raises(TranscriptError):
            transcript.audit_round(0, doctored)
