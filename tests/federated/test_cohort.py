"""Stacked training: the same local loop on a model stacked over clients.

Marked ``cohort``::

    PYTHONPATH=src python -m pytest -m cohort -q

Serial and stacked training share the kernels of :mod:`repro.nn.functional`,
the loop :func:`~repro.federated.client.local_sgd` and in-place ``Adam``;
they differ only in whether equal-size clients are stacked over a leading
axis of one ``(M, D)`` block.  The load-bearing properties:

* **Bit-equality** — for Linear/Flatten/activation architectures (the
  ``linear_probe`` family and deeper MLPs), for ``Conv2d``/``MaxPool2d``
  ones (``paper_cnn``) and for ``LocallyConnected2d`` ones
  (``deepface_like``), stacked training produces per-client rows and losses
  byte-identical to the serial ``train_rows_into`` path, for any cohort
  size, epoch count, batch size, or dataset-size mix.
* **Aliasing** — the stacked model's parameters are views into the block
  before, during and after training, and the template is never written.
* **Wiring** — ``SimulationConfig(cohort_batching=True)`` is end-to-end
  bit-identical (MLP) on the plain path and through the sharded plane, while
  ``cohort_batching=False`` keeps the serial reference byte-for-byte across
  parallelism settings.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.base import ArrayDataset, ClientDataset
from repro.data.population import SyntheticPopulation
from repro.experiments.models import ModelFactory, model_fn_for
from repro.federated import (
    CohortBatchingError,
    CohortTrainer,
    FederatedSimulation,
    LocalTrainingConfig,
    SimulationConfig,
    build_cohort_model,
)
from repro.federated.client import (
    ClientPopulation,
    evaluate_accuracy,
    local_sgd,
    train_rows_into,
)
from repro.nn import Dropout, Flatten, Linear, Sequential, no_grad
from repro.nn.serialization import schema_of
from repro.utils.rng import rng_from_seed

pytestmark = pytest.mark.cohort


def _image_population(num_clients, sizes, shape=(1, 8, 8), classes=3, seed=0):
    """Eager population of tiny image clients with per-client sizes."""
    rng = np.random.default_rng(seed)
    datasets = []
    for cid in range(num_clients):
        n = sizes[cid % len(sizes)]
        X = rng.standard_normal((n, *shape)).astype(np.float32)
        y = rng.integers(0, classes, n)
        datasets.append(ClientDataset(cid, ArrayDataset(X, y), ArrayDataset(X[:1], y[:1]), 0))
    return datasets


def _train_both(datasets, model_fn, config, round_index=1, seed=0):
    """Serial and cohort-batched rows + metas for the same cohort."""
    pop_serial = ClientPopulation.from_client_data(datasets, model_fn, config, seed=seed)
    pop_batch = ClientPopulation.from_client_data(datasets, model_fn, config, seed=seed)
    broadcast = model_fn(rng_from_seed(seed)).state_dict()
    schema = schema_of(broadcast)
    pairs = [(slot, data.client_id) for slot, data in enumerate(datasets)]
    rows_serial = np.empty((len(pairs), schema.total_size), dtype=np.float32)
    rows_batch = np.empty_like(rows_serial)
    metas_serial = train_rows_into(
        pop_serial, pairs, broadcast, round_index, schema, rows_serial
    )
    trainer = CohortTrainer(pop_batch, schema)
    metas_batch = trainer.train_rows(pairs, broadcast, round_index, rows_batch)
    return rows_serial, metas_serial, rows_batch, metas_batch


class TestBatchedVsSerialProperty:
    @given(
        cohort=st.integers(min_value=1, max_value=8),
        features=st.integers(min_value=2, max_value=12),
        classes=st.integers(min_value=2, max_value=5),
        samples=st.integers(min_value=1, max_value=20),
        epochs=st.integers(min_value=1, max_value=3),
        batch=st.integers(min_value=1, max_value=16),
        round_index=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_probe_bit_identical(
        self, cohort, features, classes, samples, epochs, batch, round_index
    ):
        dataset = SyntheticPopulation(
            population_size=cohort,
            num_features=features,
            num_classes=classes,
            samples_per_client=samples,
            seed=3,
        )
        model_fn = model_fn_for(dataset)
        config = LocalTrainingConfig(local_epochs=epochs, batch_size=batch)
        pop_serial = ClientPopulation.for_dataset(dataset, model_fn, config, seed=0)
        pop_batch = ClientPopulation.for_dataset(dataset, model_fn, config, seed=0)
        broadcast = model_fn(rng_from_seed(0)).state_dict()
        schema = schema_of(broadcast)
        pairs = [(slot, slot) for slot in range(cohort)]
        rows_serial = np.empty((cohort, schema.total_size), dtype=np.float32)
        rows_batch = np.empty_like(rows_serial)
        metas_serial = train_rows_into(
            pop_serial, pairs, broadcast, round_index, schema, rows_serial
        )
        metas_batch = CohortTrainer(pop_batch, schema).train_rows(
            pairs, broadcast, round_index, rows_batch
        )
        np.testing.assert_array_equal(rows_serial, rows_batch)
        assert metas_serial == metas_batch

    @given(
        hidden=st.integers(min_value=2, max_value=16),
        epochs=st.integers(min_value=1, max_value=2),
        batch=st.integers(min_value=1, max_value=8),
        sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_mlp_mixed_sizes_bit_identical(self, hidden, epochs, batch, sizes):
        # Deeper MLP + heterogeneous dataset sizes: exercises the trainer's
        # size-grouping while staying inside the bit-equality contract.
        rng = np.random.default_rng(11)
        datasets = []
        for cid in range(5):
            n = sizes[cid % len(sizes)]
            X = rng.standard_normal((n, 6)).astype(np.float32)
            y = rng.integers(0, 3, n)
            datasets.append(
                ClientDataset(cid, ArrayDataset(X, y), ArrayDataset(X[:1], y[:1]), 0)
            )

        def model_fn(build_rng):
            from repro.nn import Flatten, ReLU

            return Sequential(
                Flatten(),
                Linear(6, hidden, rng=build_rng),
                ReLU(),
                Linear(hidden, 3, rng=build_rng),
            )

        config = LocalTrainingConfig(local_epochs=epochs, batch_size=batch)
        rows_serial, metas_serial, rows_batch, metas_batch = _train_both(
            datasets, model_fn, config
        )
        np.testing.assert_array_equal(rows_serial, rows_batch)
        assert metas_serial == metas_batch

    @given(
        cohort=st.integers(min_value=1, max_value=5),
        epochs=st.integers(min_value=1, max_value=2),
        batch=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=10, deadline=None)
    def test_paper_cnn_bit_identical(self, cohort, epochs, batch):
        datasets = _image_population(cohort, sizes=(6, 9))
        model_fn = ModelFactory("paper_cnn", (1, 8, 8), 3)
        config = LocalTrainingConfig(local_epochs=epochs, batch_size=batch)
        rows_serial, metas_serial, rows_batch, metas_batch = _train_both(
            datasets, model_fn, config
        )
        np.testing.assert_array_equal(rows_batch, rows_serial)
        assert metas_batch == metas_serial

    @given(
        cohort=st.integers(min_value=1, max_value=5),
        epochs=st.integers(min_value=1, max_value=2),
        batch=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=10, deadline=None)
    def test_deepface_like_bit_identical(self, cohort, epochs, batch):
        datasets = _image_population(cohort, sizes=(6, 9), shape=(1, 8, 8))
        model_fn = ModelFactory("deepface_like", (1, 8, 8), 3)
        config = LocalTrainingConfig(local_epochs=epochs, batch_size=batch)
        rows_serial, metas_serial, rows_batch, metas_batch = _train_both(
            datasets, model_fn, config
        )
        np.testing.assert_array_equal(rows_batch, rows_serial)
        assert metas_batch == metas_serial


def _make_sim(dataset, model_fn, seed=0, **overrides):
    config = SimulationConfig(
        rounds=3,
        local=LocalTrainingConfig(local_epochs=2, batch_size=8),
        clients_per_round=12,
        seed=seed,
        **overrides,
    )
    return FederatedSimulation(dataset, model_fn, config)


class TestSimulationWiring:
    @pytest.fixture(scope="class")
    def population_dataset(self):
        return SyntheticPopulation(
            population_size=30, num_features=12, num_classes=4, samples_per_client=16, seed=0
        )

    def test_cohort_batching_end_to_end_bit_identical(self, population_dataset):
        model_fn = model_fn_for(population_dataset)
        serial = _make_sim(population_dataset, model_fn).run()
        batched = _make_sim(population_dataset, model_fn, cohort_batching=True).run()
        for name, value in serial.final_state.items():
            np.testing.assert_array_equal(value, batched.final_state[name])
        assert [r.global_accuracy for r in serial.rounds] == [
            r.global_accuracy for r in batched.rounds
        ]
        assert [r.mean_local_loss for r in serial.rounds] == [
            r.mean_local_loss for r in batched.rounds
        ]

    def test_serial_reference_unchanged_across_parallelism(self, population_dataset):
        # cohort_batching=False must keep the serial reference byte-for-byte,
        # whatever the thread-pool width.
        model_fn = model_fn_for(population_dataset)
        parallel_1 = _make_sim(
            population_dataset, model_fn, cohort_batching=False, parallelism=1
        ).run()
        parallel_8 = _make_sim(
            population_dataset, model_fn, cohort_batching=False, parallelism=8
        ).run()
        for name, value in parallel_1.final_state.items():
            np.testing.assert_array_equal(value, parallel_8.final_state[name])

    def test_sharded_cohort_batching_bit_identical(self, population_dataset):
        model_fn = model_fn_for(population_dataset)
        serial = _make_sim(population_dataset, model_fn).run()
        sharded = _make_sim(
            population_dataset, model_fn, cohort_batching=True, num_shards=3
        ).run()
        for name, value in serial.final_state.items():
            np.testing.assert_array_equal(value, sharded.final_state[name])

    def test_cohort_updates_are_flat_backed_in_cohort_order(self, population_dataset):
        model_fn = model_fn_for(population_dataset)
        sim = _make_sim(population_dataset, model_fn, cohort_batching=True)
        broadcast = sim.server.broadcast()
        client_ids = sim._select_client_ids()[:6]
        updates = sim._train_cohort(client_ids, broadcast, 0)
        assert [u.sender_id for u in updates] == list(client_ids)
        for update in updates:
            assert update.flat_vector is not None
            for name, view in update.state.items():
                assert np.shares_memory(view, update.flat_vector)

    def test_training_under_parallelism_with_concurrent_evaluation(self):
        # Satellite regression: a concurrent no_grad evaluation must not
        # disable grad recording for in-flight training threads.
        dataset = SyntheticPopulation(
            population_size=16, num_features=8, num_classes=3, samples_per_client=12, seed=5
        )
        model_fn = model_fn_for(dataset)
        reference = _make_sim(dataset, model_fn, parallelism=1).run()

        eval_model = model_fn(rng_from_seed(0))
        eval_data = dataset.client_data(0).train
        stop = threading.Event()

        def evaluator():
            while not stop.is_set():
                with no_grad():
                    evaluate_accuracy(eval_model, eval_data)

        worker = threading.Thread(target=evaluator)
        worker.start()
        try:
            concurrent = _make_sim(dataset, model_fn, parallelism=8).run()
        finally:
            stop.set()
            worker.join(timeout=60)
        for name, value in reference.final_state.items():
            np.testing.assert_array_equal(value, concurrent.final_state[name])


class TestCohortModelConstruction:
    def test_block_views_write_through(self):
        template = Sequential(Linear(4, 3, rng=np.random.default_rng(0)))
        schema = schema_of(template.state_dict())
        block = np.zeros((2, schema.total_size), dtype=np.float32)
        model = build_cohort_model(template, block, schema)
        for param in model.parameters():
            assert np.shares_memory(param.data, block)
        model.parameters()[0].data += 1.0
        assert block.any()

    def test_block_views_stay_bound_through_training(self):
        # In-place Adam keeps every (M, *shape) parameter a view of the
        # block across many steps: the trained rows land in the block.
        template = Sequential(Flatten(), Linear(4, 3, rng=np.random.default_rng(0)))
        schema = schema_of(template.state_dict())
        broadcast = schema.pack(template.state_dict())
        block = np.repeat(broadcast[None, :], 2, axis=0)
        model = build_cohort_model(template, block, schema)
        rng = np.random.default_rng(1)
        features = rng.standard_normal((2, 10, 4)).astype(np.float32)
        labels = rng.integers(0, 3, (2, 10))
        config = LocalTrainingConfig(local_epochs=3, batch_size=4, learning_rate=0.05)
        local_sgd(model, features, labels, config, [rng_from_seed(2), rng_from_seed(3)])
        for param in model.parameters():
            assert np.shares_memory(param.data, block)
        assert not np.array_equal(block[0], broadcast)
        assert not np.array_equal(block[0], block[1])
        np.testing.assert_array_equal(
            np.concatenate([p.data[1].ravel() for p in model.parameters()]), block[1]
        )
        # The template's own parameters are untouched.
        np.testing.assert_array_equal(schema.pack(template.state_dict()), broadcast)

    def test_dropout_rejected(self):
        template = Sequential(Linear(4, 3, rng=np.random.default_rng(0)), Dropout(0.5))
        schema = schema_of(template.state_dict())
        with pytest.raises(CohortBatchingError, match="Dropout"):
            build_cohort_model(template, np.zeros((2, schema.total_size), np.float32), schema)

    def test_non_sequential_rejected(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        schema = schema_of(layer.state_dict())
        with pytest.raises(CohortBatchingError, match="Sequential"):
            build_cohort_model(layer, np.zeros((1, schema.total_size), np.float32), schema)

    def test_trainer_rejects_unsupported_architecture_up_front(self):
        dataset = SyntheticPopulation(
            population_size=4, num_features=4, num_classes=2, samples_per_client=4, seed=0
        )

        def model_fn(rng):
            return Sequential(Linear(4, 2, rng=rng), Dropout(0.25))

        population = ClientPopulation.for_dataset(
            dataset, model_fn, LocalTrainingConfig(local_epochs=1, batch_size=2), seed=0
        )
        schema = schema_of(model_fn(rng_from_seed(0)).state_dict())
        with pytest.raises(CohortBatchingError):
            CohortTrainer(population, schema)
