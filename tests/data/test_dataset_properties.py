"""Property-based tests of dataset invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticCIFAR10, SyntheticMotionSense
from repro.data.base import ArrayDataset, train_test_split
from repro.utils.rng import rng_from_seed


class TestLoaderProperties:
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_split_partitions_dataset(self, n, seed):
        data = ArrayDataset(np.zeros((n, 2)), np.arange(n) % 2)
        train, test = train_test_split(data, 1 / 3, rng_from_seed(seed), stratify=False)
        assert len(train) + len(test) == n
        combined = sorted(train.labels.tolist() + test.labels.tolist())
        assert combined == sorted(data.labels.tolist())


class TestCohortProperties:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=5, deadline=None)
    def test_cifar10_cohort_structure_invariant_to_seed(self, seed):
        dataset = SyntheticCIFAR10(seed=seed, samples_per_client=10, test_samples_per_client=2)
        counts = np.bincount(dataset.attributes(), minlength=3)
        np.testing.assert_array_equal(counts, [6, 6, 8])

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=5, deadline=None)
    def test_motionsense_gender_balance_invariant_to_seed(self, seed):
        dataset = SyntheticMotionSense(seed=seed, windows_per_activity=2, test_windows_per_activity=1)
        counts = np.bincount(dataset.attributes(), minlength=2)
        np.testing.assert_array_equal(counts, [12, 12])
