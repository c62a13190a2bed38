"""§6.4 robustness tools: neighbor census and the re-linking attack."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.attacks.reconstruction import (
    RelinkAttack,
    neighbor_counts,
    pairwise_distances,
)
from repro.federated.update import ModelUpdate
from repro.utils.rng import rng_from_seed

from ..conftest import mix_round


def updates_at(points: list[float]) -> list[ModelUpdate]:
    """1-D updates placed at given coordinates (easy distance math)."""
    return [
        ModelUpdate(
            sender_id=i,
            round_index=0,
            state=OrderedDict([("w.weight", np.array([p], dtype=np.float32))]),
        )
        for i, p in enumerate(points)
    ]


ZERO_REF = {"w.weight": np.zeros(1, dtype=np.float32)}


class TestPairwiseDistances:
    def test_distance_matrix(self):
        distances = pairwise_distances(updates_at([0.0, 3.0, 4.0]), ZERO_REF)
        assert distances[0, 1] == pytest.approx(3.0)
        assert distances[1, 2] == pytest.approx(1.0)
        assert np.allclose(np.diag(distances), 0.0)
        assert np.allclose(distances, distances.T)


class TestNeighborCounts:
    def test_counts_within_radius(self):
        counts = neighbor_counts(updates_at([0.0, 0.1, 0.2, 5.0]), ZERO_REF, radius=0.3)
        np.testing.assert_array_equal(counts, [2, 2, 2, 0])

    def test_self_not_counted(self):
        counts = neighbor_counts(updates_at([1.0]), ZERO_REF, radius=10.0)
        np.testing.assert_array_equal(counts, [0])


class TestRelinkAttack:
    def _references(self, model, shift: float):
        base = model.state_dict()
        plus = OrderedDict((k, v + shift) for k, v in base.items())
        minus = OrderedDict((k, v - shift) for k, v in base.items())
        return {0: minus, 1: plus}, base

    def test_relink_succeeds_on_separable_unmixed_updates(self, small_model):
        """Sanity: with huge class separation, piece classification works."""
        references, base = self._references(small_model, shift=1.0)
        rng = rng_from_seed(0)
        updates = []
        for sender in range(6):
            attr = sender % 2
            sign = 1.0 if attr else -1.0
            state = OrderedDict(
                (k, v + sign * 0.9 + 0.01 * rng.standard_normal(v.shape).astype(np.float32))
                for k, v in base.items()
            )
            updates.append(ModelUpdate(sender_id=sender, round_index=0, state=state))
        mixed = mix_round(updates, seed=1)
        attack = RelinkAttack(references, base)
        truth = {u.sender_id: u.sender_id % 2 for u in updates}
        report = attack.run(mixed, true_attributes=truth)
        assert report.piece_accuracy is not None
        assert report.piece_accuracy > 0.9

    def test_relink_fails_on_close_gradients(self, small_model):
        """The paper's point: indistinguishable updates defeat re-linking."""
        references, base = self._references(small_model, shift=1.0)
        rng = rng_from_seed(0)
        updates = []
        for sender in range(6):
            state = OrderedDict(
                (k, v + 0.01 * rng.standard_normal(v.shape).astype(np.float32))
                for k, v in base.items()
            )
            updates.append(ModelUpdate(sender_id=sender, round_index=0, state=state))
        mixed = mix_round(updates, seed=1)
        attack = RelinkAttack(references, base)
        truth = {u.sender_id: u.sender_id % 2 for u in updates}
        report = attack.run(mixed, true_attributes=truth)
        assert report.piece_accuracy is not None
        assert 0.2 <= report.piece_accuracy <= 0.8  # chance-level linking

    def test_consistency_rate_bounds(self, small_model):
        references, base = self._references(small_model, shift=0.5)
        updates = [
            ModelUpdate(sender_id=i, round_index=0, state=OrderedDict(base))
            for i in range(4)
        ]
        mixed = mix_round(updates, seed=2)
        report = RelinkAttack(references, base).run(mixed)
        assert 0.0 <= report.consistency_rate <= 1.0
        assert len(report.piece_assignments) == 4

    def test_empty_run(self, small_model):
        references, base = self._references(small_model, shift=0.5)
        report = RelinkAttack(references, base).run([])
        assert report.consistency_rate == 0.0
        assert report.piece_accuracy is None
