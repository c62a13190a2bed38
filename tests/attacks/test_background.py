"""Reference-model construction from adversary background knowledge."""

import numpy as np
import pytest

from repro.attacks.background import build_reference_states, reference_delta_matrix
from repro.experiments.models import paper_cnn
from repro.federated.client import LocalTrainingConfig
from repro.utils.rng import rng_from_seed


@pytest.fixture()
def setup(tiny_motionsense):
    model_fn = lambda rng: paper_cnn(tiny_motionsense.input_shape, 6, rng)
    config = LocalTrainingConfig(local_epochs=1, batch_size=32)
    broadcast = model_fn(rng_from_seed(0)).state_dict()
    return tiny_motionsense, model_fn, config, broadcast


class TestBuildReferenceStates:
    def test_one_reference_per_attribute_class(self, setup):
        dataset, model_fn, config, broadcast = setup
        refs = build_reference_states(
            broadcast, dataset.background_clients(), model_fn, config, rng_from_seed(1)
        )
        assert set(refs) == {0, 1}

    def test_references_differ_from_broadcast_and_each_other(self, setup):
        dataset, model_fn, config, broadcast = setup
        refs = build_reference_states(
            broadcast, dataset.background_clients(), model_fn, config, rng_from_seed(1)
        )
        flat = {k: np.concatenate([v.ravel() for v in state.values()]) for k, state in refs.items()}
        base = np.concatenate([v.ravel() for v in broadcast.values()])
        assert not np.allclose(flat[0], base)
        assert not np.allclose(flat[0], flat[1])

    def test_single_class_background_rejected(self, setup):
        dataset, model_fn, config, broadcast = setup
        one_class = [c for c in dataset.background_clients() if c.attribute == 0]
        with pytest.raises(ValueError, match="attribute classes"):
            build_reference_states(broadcast, one_class, model_fn, config, rng_from_seed(1))

    def test_ratio_subsets_background(self, setup):
        dataset, model_fn, config, broadcast = setup
        refs = build_reference_states(
            broadcast, dataset.background_clients(), model_fn, config, rng_from_seed(1), ratio=0.5
        )
        assert set(refs) == {0, 1}

    def test_attack_epochs_change_reference(self, setup):
        dataset, model_fn, config, broadcast = setup
        short = build_reference_states(
            broadcast, dataset.background_clients(), model_fn, config, rng_from_seed(1), attack_epochs=1
        )
        long = build_reference_states(
            broadcast, dataset.background_clients(), model_fn, config, rng_from_seed(1), attack_epochs=3
        )
        moved_more = np.linalg.norm(
            np.concatenate([v.ravel() for v in long[0].values()])
            - np.concatenate([v.ravel() for v in broadcast.values()])
        ) > np.linalg.norm(
            np.concatenate([v.ravel() for v in short[0].values()])
            - np.concatenate([v.ravel() for v in broadcast.values()])
        )
        assert moved_more


class TestReferenceDeltas:
    def test_deltas_are_flat_and_nonzero(self, setup):
        dataset, model_fn, config, broadcast = setup
        refs = build_reference_states(
            broadcast, dataset.background_clients(), model_fn, config, rng_from_seed(1)
        )
        attributes, deltas = reference_delta_matrix(refs, broadcast)
        total = sum(v.size for v in broadcast.values())
        assert attributes == list(refs)
        assert deltas.shape == (len(refs), total)
        for delta in deltas:
            assert np.linalg.norm(delta) > 0
