"""Client local training and server aggregation protocol."""

import numpy as np
import pytest

from repro.data.base import ArrayDataset
from repro.federated.client import (
    FederatedClient,
    LocalTrainingConfig,
    evaluate_accuracy,
    train_locally,
)
from repro.federated.aggregation import (
    AGGREGATION_RULES,
    AggregationPolicy,
    AggregationReport,
)
from repro.federated.integrity import state_digest
from repro.federated.server import AggregationServer
from repro.federated.update import ModelUpdate, aggregate_updates
from repro.experiments.models import paper_cnn
from repro.nn import Linear, Sequential, ReLU
from repro.utils.rng import rng_from_seed

from ..conftest import make_updates


def linear_model(seed: int = 0):
    return Sequential(Linear(4, 8, rng=rng_from_seed(seed)), ReLU(), Linear(8, 2, rng=rng_from_seed(seed + 1)))


def separable_dataset(n: int = 64) -> ArrayDataset:
    rng = rng_from_seed(0)
    x = rng.standard_normal((n, 4)).astype(np.float32)
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return ArrayDataset(x, y)


class TestLocalTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalTrainingConfig(local_epochs=0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(batch_size=0)

    def test_defaults_match_paper_style(self):
        config = LocalTrainingConfig()
        assert config.local_epochs == 2
        assert config.learning_rate == pytest.approx(1e-3)


class TestTrainLocally:
    def test_loss_decreases(self):
        model = linear_model()
        data = separable_dataset()
        config = LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.01)
        first = train_locally(model, data, config, rng_from_seed(1))
        last = first
        for _ in range(5):
            last = train_locally(model, data, config, rng_from_seed(2))
        assert last < first

    def test_returns_final_loss(self):
        model = linear_model()
        loss = train_locally(
            model, separable_dataset(), LocalTrainingConfig(local_epochs=1, batch_size=64), rng_from_seed(0)
        )
        assert np.isfinite(loss)


class TestEvaluateAccuracy:
    def test_perfect_and_chance(self):
        model = linear_model()
        data = separable_dataset()
        config = LocalTrainingConfig(local_epochs=20, batch_size=16, learning_rate=0.02)
        train_locally(model, data, config, rng_from_seed(1))
        assert evaluate_accuracy(model, data) > 0.85

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate_accuracy(linear_model(), ArrayDataset(np.zeros((0, 4)), np.zeros(0)))

    def test_batching_equivalent(self):
        model = linear_model()
        data = separable_dataset(50)
        assert evaluate_accuracy(model, data, batch_size=7) == evaluate_accuracy(model, data, batch_size=50)


class TestFederatedClient:
    def test_local_update_carries_identity(self, tiny_motionsense):
        client_data = tiny_motionsense.clients()[3]
        model_fn = lambda rng: paper_cnn(tiny_motionsense.input_shape, 6, rng)
        client = FederatedClient(client_data, model_fn, LocalTrainingConfig(local_epochs=1, batch_size=32))
        broadcast = model_fn(rng_from_seed(0)).state_dict()
        update = client.local_update(broadcast, round_index=2)
        assert update.sender_id == client_data.client_id
        assert update.round_index == 2
        assert update.num_samples == len(client_data.train)
        assert np.isfinite(update.metadata["final_loss"])

    def test_update_differs_from_broadcast(self, tiny_motionsense):
        client_data = tiny_motionsense.clients()[0]
        model_fn = lambda rng: paper_cnn(tiny_motionsense.input_shape, 6, rng)
        client = FederatedClient(client_data, model_fn, LocalTrainingConfig(local_epochs=1, batch_size=32))
        broadcast = model_fn(rng_from_seed(0)).state_dict()
        update = client.local_update(broadcast, round_index=0)
        moved = any(
            not np.allclose(update.state[name], broadcast[name]) for name in broadcast
        )
        assert moved

    def test_local_update_deterministic(self, tiny_motionsense):
        client_data = tiny_motionsense.clients()[0]
        model_fn = lambda rng: paper_cnn(tiny_motionsense.input_shape, 6, rng)
        broadcast = model_fn(rng_from_seed(0)).state_dict()

        def one_run():
            client = FederatedClient(client_data, model_fn, LocalTrainingConfig(local_epochs=1, batch_size=32))
            return client.local_update(broadcast, round_index=0).flat()

        np.testing.assert_array_equal(one_run(), one_run())


class TestAggregationServer:
    def _updates(self, values):
        return [
            ModelUpdate(sender_id=i, round_index=0, state={"w": np.full(3, v, dtype=np.float32)})
            for i, v in enumerate(values)
        ]

    def test_broadcast_is_zero_copy_without_observers(self):
        """The hook-less, observer-less fast path broadcasts the live state."""
        server = AggregationServer({"w": np.zeros(3, dtype=np.float32)})
        broadcast = server.broadcast()
        assert broadcast["w"] is server.global_state["w"]

    def test_observers_get_pristine_broadcast_copy(self):
        """With observers, downstream mutation cannot corrupt what they see."""
        seen = {}

        class Spy:
            def on_round(self, round_index, broadcast_state, updates):
                seen["w"] = broadcast_state["w"].copy()

        server = AggregationServer({"w": np.zeros(3, dtype=np.float32)})
        server.add_observer(Spy())
        broadcast = server.broadcast()
        broadcast["w"][:] = 9.0  # a rogue consumer scribbles on the live state
        server.receive_and_aggregate(self._updates([1.0]))
        np.testing.assert_allclose(seen["w"], 0.0)

    def test_aggregate_mean(self):
        server = AggregationServer({"w": np.zeros(3, dtype=np.float32)})
        server.broadcast()
        new_state = server.receive_and_aggregate(self._updates([0.0, 2.0, 4.0]))
        np.testing.assert_allclose(new_state["w"], 2.0)
        assert server.round_index == 1

    def test_empty_round_rejected(self):
        server = AggregationServer({"w": np.zeros(3, dtype=np.float32)})
        server.broadcast()
        with pytest.raises(ValueError):
            server.receive_and_aggregate([])

    def test_observers_see_broadcast_and_updates(self):
        seen = []

        class Spy:
            def on_round(self, round_index, broadcast_state, updates):
                seen.append((round_index, len(updates)))

        server = AggregationServer({"w": np.zeros(3, dtype=np.float32)})
        server.add_observer(Spy())
        server.broadcast()
        server.receive_and_aggregate(self._updates([1.0, 3.0]))
        assert seen == [(0, 2)]

    def test_broadcast_hook_replaces_model(self):
        crafted = {"w": np.full(3, 7.0, dtype=np.float32)}
        server = AggregationServer(
            {"w": np.zeros(3, dtype=np.float32)}, broadcast_hook=lambda r, s: crafted
        )
        np.testing.assert_allclose(server.broadcast()["w"], 7.0)

    def test_from_model(self, small_model):
        server = AggregationServer.from_model(small_model)
        assert set(server.global_state) == set(small_model.state_dict())


class TestServerMergePolicy:
    """Every merge goes through the server's one AggregationPolicy."""

    @pytest.mark.parametrize(
        "sample_weighted,staleness_alpha",
        [(False, None), (True, None), (False, 0.5)],
        ids=["plain", "sample-weighted", "staleness"],
    )
    def test_default_policy_is_the_fedavg_mean(
        self, small_model, sample_weighted, staleness_alpha
    ):
        updates = make_updates(small_model, count=5, seed=1)
        for index, update in enumerate(updates):
            update.num_samples = 10 * (index + 1)
            update.metadata["staleness"] = index % 3
        server = AggregationServer(
            small_model.state_dict(),
            sample_weighted=sample_weighted,
            staleness_alpha=staleness_alpha,
        )
        assert server.policy == AggregationPolicy()
        server.broadcast()
        state = server.receive_and_aggregate(updates)
        expected = aggregate_updates(
            updates, sample_weighted=sample_weighted, staleness_alpha=staleness_alpha
        )
        assert list(state) == list(expected)
        for name in expected:
            np.testing.assert_array_equal(state[name], expected[name])
        assert server.last_aggregation_report == AggregationReport(
            rule="mean", kept=tuple(range(5)), dropped=()
        )

    @pytest.mark.parametrize("rule", AGGREGATION_RULES)
    def test_every_rule_merges_through_the_policy(self, small_model, rule):
        updates = make_updates(small_model, count=7, seed=2)
        outlier = 3
        for name in updates[outlier].state:
            updates[outlier].state[name] = updates[outlier].state[name] + 5.0
        policy = AggregationPolicy(rule=rule)
        server = AggregationServer(small_model.state_dict(), policy=policy)
        reference = {name: value.copy() for name, value in server.global_state.items()}
        server.broadcast()
        state = server.receive_and_aggregate(updates)

        expected, kept, dropped = policy.aggregate(updates, reference=reference)
        for name in expected:
            np.testing.assert_array_equal(state[name], expected[name])
        assert server.last_aggregation_report == AggregationReport(
            rule=rule, kept=kept, dropped=dropped
        )
        entry = server.transcript.entries[-1]
        assert (entry.rule, entry.kept) == (rule, kept)
        assert entry.aggregate_digest == state_digest(expected)
        if rule in ("norm_filter", "krum", "multi-krum"):
            assert outlier in dropped  # participant-level filtering
        else:
            assert dropped == ()

