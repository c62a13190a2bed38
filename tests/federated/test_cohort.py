"""The one trainer: every client trains as a view of its own row.

Marked ``cohort``::

    PYTHONPATH=src python -m pytest -m cohort -q

:class:`~repro.federated.cohort.CohortTrainer` trains every in-process
cohort and every shard slice.  Client by client (``L = ()``, each model a
view of its own output row) and stacked (``cohort_batching=True``, one
``(M, D)`` block per training-set size) share the kernels of
:mod:`repro.nn.functional`, the loop
:func:`~repro.federated.client.local_sgd` and in-place ``Adam``.  The
load-bearing properties:

* **Bit-equality** — for Linear/Flatten/activation architectures (the
  ``linear_probe`` family and deeper MLPs), for ``Conv2d``/``MaxPool2d``
  ones (``paper_cnn``) and for ``LocallyConnected2d`` ones
  (``deepface_like``), both trainer modes produce per-client rows and
  losses byte-identical to :func:`~repro.federated.client.train_locally` on
  a fresh replica, for any cohort size, epoch count, batch size, or
  dataset-size mix, and at any thread count.
* **Aliasing** — the model's parameters are views into the row or block
  before, during and after training, and the template is never written.
* **Wiring** — ``SimulationConfig(cohort_batching=True)`` is end-to-end
  bit-identical (MLP) on the plain path and through the sharded plane,
  ``cohort_batching=False`` keeps the serial result byte-for-byte across
  parallelism settings, every population releases its cohort after the
  round, and a template the row plane cannot view is refused before any
  client trains.
"""

import sys
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
    train_locally,
)
from repro.nn import Dropout, Flatten, Linear, Sequential, no_grad
from repro.nn.serialization import schema_of
from repro.utils.rng import rng_from_seed, stable_seed

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


def _serial_reference(datasets, model_fn, config, broadcast, schema, round_index, seed):
    """Rows + metas of ``train_locally`` on a fresh ``model_fn`` replica per client."""
    rows = np.empty((len(datasets), schema.total_size), dtype=np.float32)
    metas = []
    for slot, data in enumerate(datasets):
        model = model_fn(rng_from_seed(seed))
        model.load_state_dict(broadcast)
        rng = rng_from_seed(stable_seed(seed, data.client_id, round_index))
        loss = train_locally(model, data.train, config, rng)
        schema.write_into(rows[slot], model.state_dict())
        metas.append((data.client_id, len(data.train), loss))
    return rows, metas


def _assert_trainers_match_reference(
    datasets, model_fn, config, round_index=1, seed=0, parallelisms=(1,)
):
    """Both trainer modes, at every given thread count, byte-equal to the
    serial reference: rows and ``(client_id, num_samples, final_loss)``."""
    population = ClientPopulation.from_client_data(datasets, model_fn, config, seed=seed)
    broadcast = model_fn(rng_from_seed(seed)).state_dict()
    schema = schema_of(broadcast)
    reference_rows, reference_metas = _serial_reference(
        datasets, model_fn, config, broadcast, schema, round_index, seed
    )
    pairs = [(slot, data.client_id) for slot, data in enumerate(datasets)]
    for stacked in (False, True):
        for parallelism in parallelisms:
            trainer = CohortTrainer(
                population, schema, cohort_batching=stacked, parallelism=parallelism
            )
            rows = np.empty_like(reference_rows)
            metas = trainer.train_rows(pairs, broadcast, round_index, rows)
            np.testing.assert_array_equal(rows, reference_rows)
            assert metas == reference_metas


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
        config = LocalTrainingConfig(local_epochs=epochs, batch_size=batch)
        _assert_trainers_match_reference(
            [dataset.client_data(cid) for cid in range(cohort)],
            model_fn_for(dataset),
            config,
            round_index=round_index,
        )

    @given(
        hidden=st.integers(min_value=2, max_value=16),
        epochs=st.integers(min_value=1, max_value=2),
        batch=st.integers(min_value=1, max_value=8),
        sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_mlp_mixed_sizes_bit_identical(self, hidden, epochs, batch, sizes):
        # Deeper MLP + heterogeneous dataset sizes: exercises the trainer's
        # size-grouping and its thread pool over the groups while staying
        # inside the bit-equality contract.
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
        _assert_trainers_match_reference(datasets, model_fn, config, parallelisms=(1, 3))

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
        _assert_trainers_match_reference(datasets, model_fn, config)

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
        _assert_trainers_match_reference(datasets, model_fn, config)


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
        # cohort_batching=False must keep the serial result byte-for-byte,
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

    def test_row_view_is_an_ordinary_model(self):
        # L = (): a single flat row gives the template's own shapes, and
        # training writes straight into the row.
        template = Sequential(Flatten(), Linear(4, 3, rng=np.random.default_rng(0)))
        schema = schema_of(template.state_dict())
        row = schema.pack(template.state_dict())
        model = build_cohort_model(template, row, schema)
        for param, original in zip(model.parameters(), template.parameters()):
            assert param.shape == original.shape
            assert np.shares_memory(param.data, row)
        rng = np.random.default_rng(1)
        features = rng.standard_normal((10, 4)).astype(np.float32)
        labels = rng.integers(0, 3, 10)
        config = LocalTrainingConfig(local_epochs=2, batch_size=4, learning_rate=0.05)
        local_sgd(model, features, labels, config, [rng_from_seed(2)])
        assert not np.array_equal(row, schema.pack(template.state_dict()))


def _dropout_model(rng):
    return Sequential(Flatten(), Linear(4, 2, rng=rng), Dropout(0.25))


class TestOneTrainerPerRun:
    def test_thread_pool_keeps_every_row(self):
        # More threads than cores and a short switch interval: a lost or
        # torn row write would break byte-equality with the in-order run.
        dataset = SyntheticPopulation(
            population_size=24, num_features=8, num_classes=3, samples_per_client=12, seed=4
        )
        model_fn = model_fn_for(dataset)
        config = LocalTrainingConfig(local_epochs=2, batch_size=4)
        population = ClientPopulation.for_dataset(dataset, model_fn, config, seed=4)
        broadcast = model_fn(rng_from_seed(4)).state_dict()
        schema = schema_of(broadcast)
        pairs = list(enumerate(range(24)))
        in_order = np.empty((24, schema.total_size), dtype=np.float32)
        expected = CohortTrainer(population, schema).train_rows(pairs, broadcast, 3, in_order)
        threaded = np.full_like(in_order, np.nan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            metas = CohortTrainer(population, schema, parallelism=8).train_rows(
                pairs, broadcast, 3, threaded
            )
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(threaded, in_order)
        assert metas == expected

    @pytest.mark.parametrize("num_shards", [0, 2])
    def test_eager_population_releases_its_cohort(self, tiny_motionsense, num_shards):
        # No client keeps a model between rounds, so an eager dataset's
        # population is bounded by the cohort like a lazy one's.
        cohort = 4
        assert cohort < len(tiny_motionsense.clients())
        config = SimulationConfig(
            rounds=3,
            local=LocalTrainingConfig(local_epochs=1, batch_size=32),
            clients_per_round=cohort,
            track_per_client_accuracy=False,
            num_shards=num_shards,
        )
        sim = FederatedSimulation(tiny_motionsense, model_fn_for(tiny_motionsense), config)
        sim.run()
        assert sim.population.peak_materialized <= cohort
        assert sim.population.materialized == 0

    @pytest.mark.parametrize("num_shards", [0, 2])
    @pytest.mark.parametrize("cohort_batching", [False, True])
    def test_dropout_template_refused_before_training(self, cohort_batching, num_shards):
        dataset = SyntheticPopulation(
            population_size=8, num_features=4, num_classes=2, samples_per_client=4, seed=0
        )
        config = SimulationConfig(
            rounds=1,
            local=LocalTrainingConfig(local_epochs=1, batch_size=2),
            clients_per_round=4,
            cohort_batching=cohort_batching,
            num_shards=num_shards,
        )
        with pytest.raises(CohortBatchingError, match="Dropout"):
            FederatedSimulation(dataset, _dropout_model, config)
