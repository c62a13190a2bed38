"""Lazy client plane: descriptor population, materialization lifecycle,
selection-stream preservation, and the population-scale synthetic dataset."""

import numpy as np
import pytest

from repro.data import LazyFederatedDataset, SyntheticPopulation, shard_label_counts
from repro.experiments.models import linear_probe, model_fn_for
from repro.federated import (
    ClientPopulation,
    CohortTrainer,
    FederatedSimulation,
    LocalTrainingConfig,
    LogNormalLatency,
    ScenarioConfig,
    SimulationConfig,
)
from repro.nn import Linear, Tensor
from repro.nn.serialization import schema_of
from repro.utils.rng import rng_from_seed


def local_config():
    return LocalTrainingConfig(local_epochs=1, batch_size=4)


def sim_config(**kwargs):
    defaults = dict(
        rounds=2,
        local=local_config(),
        clients_per_round=8,
        seed=5,
        track_per_client_accuracy=False,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestClientPopulation:
    def test_lazy_materialize_and_release(self):
        dataset = SyntheticPopulation(population_size=50, seed=1)
        population = ClientPopulation.for_dataset(
            dataset, model_fn_for(dataset), local_config(), seed=1
        )
        assert len(population) == 50
        assert population.materialized == 0
        cohort = [population.get(client_id) for client_id in (3, 7, 11)]
        assert [c.client_id for c in cohort] == [3, 7, 11]
        assert population.materialized == 3
        assert population.peak_materialized == 3
        population.release([3, 7, 11])
        assert population.materialized == 0
        # the high-water mark survives the release
        assert population.peak_materialized == 3

    def test_rematerialized_client_trains_bit_identically(self):
        """Release + rebuild is invisible: the same (broadcast, round) yields
        the same update, because all client state is derived per call."""
        dataset = SyntheticPopulation(population_size=20, seed=2)
        population = ClientPopulation.for_dataset(
            dataset, model_fn_for(dataset), local_config(), seed=2
        )
        broadcast = model_fn_for(dataset)(rng_from_seed(2)).state_dict()
        trainer = CohortTrainer(population, schema_of(broadcast))
        (first,) = trainer.train_updates([9], broadcast, round_index=4)
        population.release([9])
        assert population.materialized == 0
        (second,) = trainer.train_updates([9], broadcast, round_index=4)
        np.testing.assert_array_equal(first.flat(), second.flat())

    def test_eager_ids_come_from_the_dataset(self, tiny_motionsense):
        population = ClientPopulation.for_dataset(
            tiny_motionsense, model_fn_for(tiny_motionsense), local_config()
        )
        expected = [c.client_id for c in tiny_motionsense.clients()]
        assert population.client_ids(range(len(population))) == expected

    def test_duplicate_client_ids_rejected(self, tiny_motionsense):
        shard = tiny_motionsense.clients()[0]
        with pytest.raises(ValueError, match="unique"):
            ClientPopulation.from_client_data(
                [shard, shard], model_fn_for(tiny_motionsense), local_config()
            )

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            ClientPopulation(0, lambda i: None, lambda rng: None, local_config())

    def test_selection_stream_matches_direct_choice(self):
        """The id-space draw consumes exactly the stream the legacy draw over
        the materialized client list did."""
        dataset = SyntheticPopulation(population_size=40, seed=3)
        config = sim_config(clients_per_round=6, seed=3)
        sim = FederatedSimulation(dataset, model_fn_for(dataset), config)
        from repro.utils.rng import stable_seed

        reference_rng = rng_from_seed(stable_seed(3, "selection"))
        for _ in range(5):
            expected = sorted(
                int(i) for i in reference_rng.choice(40, size=6, replace=False)
            )
            assert sim._select_client_ids() == expected


class TestLazySimulation:
    def test_peak_memory_tracks_cohort_not_population(self):
        dataset = SyntheticPopulation(population_size=500, seed=4)
        sim = FederatedSimulation(dataset, model_fn_for(dataset), sim_config())
        sim.run()
        assert sim.population.peak_materialized <= 8
        assert sim.population.materialized == 0

    def test_lazy_run_is_deterministic(self):
        def run():
            dataset = SyntheticPopulation(population_size=300, seed=6)
            sim = FederatedSimulation(dataset, model_fn_for(dataset), sim_config(seed=6))
            return sim.run()

        a, b = run(), run()
        assert [r.global_accuracy for r in a.rounds] == [r.global_accuracy for r in b.rounds]
        for key in a.final_state:
            np.testing.assert_array_equal(a.final_state[key], b.final_state[key])

    def test_lazy_run_identical_across_parallelism(self):
        def run(parallelism):
            dataset = SyntheticPopulation(population_size=300, seed=6)
            sim = FederatedSimulation(
                dataset, model_fn_for(dataset), sim_config(seed=6, parallelism=parallelism)
            )
            return sim.run()

        seq, par = run(1), run(8)
        for key in seq.final_state:
            np.testing.assert_array_equal(seq.final_state[key], par.final_state[key])

    def test_scenario_round_releases_cohort(self):
        dataset = SyntheticPopulation(population_size=400, seed=7)
        scenario = ScenarioConfig(
            latency=LogNormalLatency(median=1.0, sigma=0.5),
            aggregation="buffered-async",
            buffer_size=4,
        )
        sim = FederatedSimulation(
            dataset, model_fn_for(dataset), sim_config(seed=7, scenario=scenario)
        )
        sim.run()
        assert sim.population.materialized == 0
        assert sim.population.peak_materialized <= 8


class TestSyntheticPopulation:
    def test_shards_are_pure_functions_of_seed_and_id(self):
        a = SyntheticPopulation(population_size=1_000_000, seed=9)
        b = SyntheticPopulation(population_size=1_000_000, seed=9)
        left, right = a.client_data(987_654), b.client_data(987_654)
        np.testing.assert_array_equal(left.train.features, right.train.features)
        np.testing.assert_array_equal(left.train.labels, right.train.labels)
        assert left.attribute == right.attribute
        # and a different seed actually changes the shard
        other = SyntheticPopulation(population_size=1_000_000, seed=10).client_data(987_654)
        assert not np.array_equal(left.train.features, other.train.features)

    def test_num_clients_does_not_materialize(self):
        dataset = SyntheticPopulation(population_size=1_000_000, seed=0)
        assert dataset.num_clients == 1_000_000
        assert dataset._clients is None

    def test_full_materialization_guard(self):
        dataset = SyntheticPopulation(population_size=1_000_000, seed=0)
        with pytest.raises(RuntimeError, match="refusing to materialize"):
            dataset.clients()

    def test_out_of_range_client_id(self):
        dataset = SyntheticPopulation(population_size=100, seed=0)
        with pytest.raises(IndexError, match="outside population"):
            dataset.client_data(100)

    def test_background_ids_disjoint_from_population(self):
        dataset = SyntheticPopulation(population_size=100, seed=0)
        background = dataset.background_clients()
        assert all(c.client_id >= 100 for c in background)
        assert len(dataset.global_test()) > 0

    def test_dirichlet_alpha_skews_shards(self):
        iid = SyntheticPopulation(population_size=100, samples_per_client=64, seed=1)
        skewed = SyntheticPopulation(
            population_size=100, samples_per_client=64, alpha=0.1, seed=1
        )

        def dominant_share(dataset):
            shares = []
            for client_id in range(50):
                labels = dataset.client_data(client_id).train.labels
                shares.append(np.bincount(labels, minlength=4).max() / len(labels))
            return float(np.mean(shares))

        assert dominant_share(skewed) > dominant_share(iid) + 0.2

    def test_validation(self):
        with pytest.raises(ValueError, match="population_size"):
            SyntheticPopulation(population_size=0)
        with pytest.raises(ValueError, match="num_classes"):
            SyntheticPopulation(num_classes=1)


class TestShardLabelCounts:
    def test_counts_sum_and_uniform_split(self):
        counts = shard_label_counts(12, 4, None, rng_from_seed(0))
        assert counts.sum() == 12
        assert (counts == 3).all()

    def test_dirichlet_counts_sum_exactly(self):
        rng = rng_from_seed(1)
        for _ in range(50):
            counts = shard_label_counts(7, 5, 0.2, rng)
            assert counts.sum() == 7
            assert (counts >= 0).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="num_samples"):
            shard_label_counts(0, 4, None, rng_from_seed(0))
        with pytest.raises(ValueError, match="alpha"):
            shard_label_counts(4, 4, -1.0, rng_from_seed(0))


class TestLinearProbe:
    def test_flat_input_gets_linear_probe(self):
        dataset = SyntheticPopulation(population_size=10, seed=0)
        model = model_fn_for(dataset)(rng_from_seed(0))
        assert any(isinstance(layer, Linear) for layer in model)
        batch = dataset.client_data(0).train.features
        logits = model(Tensor(batch)).numpy()
        assert logits.shape == (len(batch), dataset.num_classes)

    def test_probe_is_deterministic_in_the_rng(self):
        a = linear_probe((16,), 4, rng_from_seed(3)).state_dict()
        b = linear_probe((16,), 4, rng_from_seed(3)).state_dict()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
