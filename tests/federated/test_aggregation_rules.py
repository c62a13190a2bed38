"""Robust aggregation rules and their interaction with mixing."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.federated.aggregation import coordinate_median, norm_filtered_mean, trimmed_mean
from repro.federated.update import ModelUpdate

from ..conftest import make_updates, mix_round


def scalar_updates(values: list[float]) -> list[ModelUpdate]:
    return [
        ModelUpdate(
            sender_id=i,
            round_index=0,
            state=OrderedDict([("a.weight", np.array([v], dtype=np.float32))]),
        )
        for i, v in enumerate(values)
    ]


class TestCoordinateMedian:
    def test_median_value(self):
        out = coordinate_median(scalar_updates([1.0, 2.0, 100.0]))
        np.testing.assert_allclose(out["a.weight"], [2.0])

    def test_robust_to_one_outlier(self):
        honest = coordinate_median(scalar_updates([1.0, 2.0, 3.0]))
        attacked = coordinate_median(scalar_updates([1.0, 2.0, 1e9]))
        assert abs(float(attacked["a.weight"][0]) - float(honest["a.weight"][0])) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coordinate_median([])


class TestTrimmedMean:
    def test_drops_extremes(self):
        out = trimmed_mean(scalar_updates([0.0, 1.0, 2.0, 3.0, 1000.0]), trim=1)
        np.testing.assert_allclose(out["a.weight"], [2.0])

    def test_trim_validation(self):
        with pytest.raises(ValueError):
            trimmed_mean(scalar_updates([1.0, 2.0]), trim=1)
        with pytest.raises(ValueError):
            trimmed_mean([], trim=0)


class TestNormFilteredMean:
    def test_filters_oversized_updates(self):
        reference = {"a.weight": np.zeros(1, dtype=np.float32)}
        out = norm_filtered_mean(scalar_updates([0.1, 0.2, 50.0]), reference, max_norm=1.0)
        np.testing.assert_allclose(out["a.weight"], [0.15], atol=1e-6)

    def test_all_rejected_raises(self):
        reference = {"a.weight": np.zeros(1, dtype=np.float32)}
        with pytest.raises(ValueError, match="rejected"):
            norm_filtered_mean(scalar_updates([50.0]), reference, max_norm=1.0)


class TestMixingCommutation:
    """Which aggregation rules commute with MixNN's layer mixing."""

    def test_median_is_mixing_invariant(self, small_model):
        updates = make_updates(small_model, 7)
        mixed = mix_round(updates, seed=0)
        before = coordinate_median(updates)
        after = coordinate_median(mixed)
        for name in before:
            np.testing.assert_allclose(before[name], after[name], atol=1e-6)

    def test_trimmed_mean_is_mixing_invariant(self, small_model):
        updates = make_updates(small_model, 7)
        mixed = mix_round(updates, seed=1)
        before = trimmed_mean(updates, trim=1)
        after = trimmed_mean(mixed, trim=1)
        for name in before:
            np.testing.assert_allclose(before[name], after[name], atol=1e-6)

    def test_norm_filter_is_not_mixing_invariant(self, small_model):
        """A cross-layer rule sees different norms after mixing.

        One participant's update is scaled to be an outlier; unmixed, the norm
        filter drops exactly that participant.  After mixing, the outlier's
        layers are spread over several chimeras, so the filter's decision set
        differs and the aggregate changes — deploy MixNN only in front of
        per-coordinate aggregation rules.
        """
        updates = make_updates(small_model, 6)
        reference = {name: np.zeros_like(v) for name, v in updates[0].state.items()}
        # Inflate one participant far beyond the filter bound.
        for name in updates[3].state:
            updates[3].state[name] = updates[3].state[name] + 100.0
        mixed = mix_round(updates, seed=2)
        bound = 150.0  # keeps honest updates, drops the inflated one
        before = norm_filtered_mean(updates, reference, max_norm=bound)
        after = norm_filtered_mean(mixed, reference, max_norm=bound)
        drift = max(
            float(np.abs(before[name] - after[name]).max()) for name in before
        )
        assert drift > 0.01  # orders of magnitude above float round-off
