"""∇Sim attack engine: similarity math, accumulation, modes."""

import numpy as np
import pytest

from repro.attacks.gradsim import GradSimAttack
from repro.experiments.models import paper_cnn
from repro.federated.client import ClientPopulation, LocalTrainingConfig
from repro.federated.cohort import CohortTrainer
from repro.federated.update import ModelUpdate
from repro.nn.serialization import schema_of
from repro.utils.rng import rng_from_seed

from ..oracles.algebra import cosine_similarity


class TestCosineSimilarity:
    """The cosine the per-class ∇Sim scoring oracle is built on."""

    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_opposite_vectors(self):
        v = np.array([1.0, -2.0])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector_returns_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_scale_invariance(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([2.0, 1.0, 0.5])
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(5 * a, 0.1 * b))


@pytest.fixture()
def attack_setup(tiny_motionsense):
    model_fn = lambda rng: paper_cnn(tiny_motionsense.input_shape, 6, rng)
    config = LocalTrainingConfig(local_epochs=1, batch_size=32)
    return tiny_motionsense, model_fn, config


def train_clients(clients, model_fn, config, broadcast, round_index, seed=0):
    """The participants' local updates, through the round's trainer."""
    population = ClientPopulation.from_client_data(clients, model_fn, config, seed=seed)
    trainer = CohortTrainer(population, schema_of(broadcast))
    return trainer.train_updates([c.client_id for c in clients], broadcast, round_index)


def run_one_round(dataset, model_fn, config, attack, num_clients=8):
    broadcast = model_fn(rng_from_seed(0)).state_dict()
    if attack.mode == "active":
        broadcast = attack.craft_broadcast(0, broadcast)
    updates = train_clients(dataset.clients()[:num_clients], model_fn, config, broadcast, 0)
    attack.on_round(0, broadcast, updates)
    return updates


class TestGradSimAttack:
    def test_mode_validation(self, attack_setup):
        dataset, model_fn, config = attack_setup
        with pytest.raises(ValueError):
            GradSimAttack(
                background_clients=dataset.background_clients(),
                model_fn=model_fn,
                config=config,
                rng=rng_from_seed(0),
                mode="sneaky",
            )

    def test_predictions_cover_observed_participants(self, attack_setup):
        dataset, model_fn, config = attack_setup
        attack = GradSimAttack(
            background_clients=dataset.background_clients(),
            model_fn=model_fn,
            config=config,
            rng=rng_from_seed(0),
            mode="passive",
        )
        updates = run_one_round(dataset, model_fn, config, attack)
        predictions = attack.predictions()
        assert set(predictions) == {u.apparent_id for u in updates}
        assert set(predictions.values()) <= {0, 1}

    def test_history_records_similarities(self, attack_setup):
        dataset, model_fn, config = attack_setup
        attack = GradSimAttack(
            background_clients=dataset.background_clients(),
            model_fn=model_fn,
            config=config,
            rng=rng_from_seed(0),
            mode="passive",
        )
        run_one_round(dataset, model_fn, config, attack)
        assert len(attack.history) == 1
        record = attack.history[0]
        some_participant = next(iter(record.similarities))
        assert set(record.similarities[some_participant]) == {0, 1}

    def test_accuracy_requires_overlap(self, attack_setup):
        dataset, model_fn, config = attack_setup
        attack = GradSimAttack(
            background_clients=dataset.background_clients(),
            model_fn=model_fn,
            config=config,
            rng=rng_from_seed(0),
            mode="passive",
        )
        run_one_round(dataset, model_fn, config, attack)
        with pytest.raises(ValueError):
            attack.accuracy({99999: 0})

    def test_active_attack_beats_chance(self, attack_setup):
        dataset, model_fn, config = attack_setup
        strong_config = LocalTrainingConfig(local_epochs=2, batch_size=16)
        attack = GradSimAttack(
            background_clients=dataset.background_clients(),
            model_fn=model_fn,
            config=strong_config,
            rng=rng_from_seed(0),
            mode="active",
            attack_epochs=6,
        )
        # Accumulate evidence over two observed rounds (the paper's
        # amplification argument); the tiny fixture is too noisy for one.
        for round_index in range(2):
            broadcast = model_fn(rng_from_seed(round_index)).state_dict()
            broadcast = attack.craft_broadcast(round_index, broadcast)
            updates = train_clients(
                dataset.clients()[:12], model_fn, strong_config, broadcast, round_index,
                seed=round_index,
            )
            attack.on_round(round_index, broadcast, updates)
        truth = {c.client_id: c.attribute for c in dataset.clients()[:12]}
        assert attack.accuracy(truth) > 0.55

    def test_truth_autofills_accuracy_curve(self, attack_setup):
        dataset, model_fn, config = attack_setup
        truth = {c.client_id: c.attribute for c in dataset.clients()}
        attack = GradSimAttack(
            background_clients=dataset.background_clients(),
            model_fn=model_fn,
            config=config,
            rng=rng_from_seed(0),
            mode="passive",
            truth=truth,
        )
        run_one_round(dataset, model_fn, config, attack)
        assert len(attack.accuracy_curve()) == 1
        assert 0.0 <= attack.accuracy_curve()[0] <= 1.0

    def test_craft_broadcast_is_reference_mean(self, attack_setup):
        dataset, model_fn, config = attack_setup
        attack = GradSimAttack(
            background_clients=dataset.background_clients(),
            model_fn=model_fn,
            config=config,
            rng=rng_from_seed(0),
            mode="active",
        )
        initial = model_fn(rng_from_seed(0)).state_dict()
        crafted = attack.craft_broadcast(0, initial)
        refs = attack._crafted_references
        assert refs is not None and set(refs) == {0, 1}
        for name in crafted:
            expected = (refs[0][name] + refs[1][name]) / 2
            np.testing.assert_allclose(crafted[name], expected, atol=1e-6)

    def test_scores_accumulate_across_rounds(self, attack_setup):
        dataset, model_fn, config = attack_setup
        attack = GradSimAttack(
            background_clients=dataset.background_clients(),
            model_fn=model_fn,
            config=config,
            rng=rng_from_seed(0),
            mode="passive",
        )
        broadcast = model_fn(rng_from_seed(0)).state_dict()
        update = ModelUpdate(sender_id=0, round_index=0, state=broadcast)
        attack.on_round(0, broadcast, [update])
        first = dict(attack._scores[0])
        attack.on_round(1, broadcast, [update])
        second = attack._scores[0]
        for key in first:
            # zero-delta update has zero similarity; scores stay finite and keyed
            assert key in second
