"""Dataset containers and splits."""

import numpy as np
import pytest

from repro.data.base import ArrayDataset, ClientDataset, train_test_split
from repro.utils.rng import rng_from_seed


@pytest.fixture()
def dataset():
    rng = rng_from_seed(0)
    return ArrayDataset(rng.standard_normal((30, 4)), rng.integers(0, 3, 30))


class TestArrayDataset:
    def test_coerces_dtypes(self, dataset):
        assert dataset.features.dtype == np.float32
        assert dataset.labels.dtype == np.int64

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_subset(self, dataset):
        sub = dataset.subset(np.array([0, 2, 4]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.features[1], dataset.features[2])

    def test_concat(self, dataset):
        merged = dataset.concat(dataset)
        assert len(merged) == 60

    def test_len(self, dataset):
        assert len(dataset) == 30


class TestClientDataset:
    def test_fields_and_repr(self, dataset):
        client = ClientDataset(client_id=3, train=dataset, test=dataset, attribute=1)
        assert client.num_train == 30
        assert "id=3" in repr(client)
        assert "attribute=1" in repr(client)

    def test_metadata_defaults_empty(self, dataset):
        client = ClientDataset(client_id=0, train=dataset, test=dataset, attribute=0)
        assert client.metadata == {}


class TestTrainTestSplit:
    def test_paper_fraction(self, dataset):
        train, test = train_test_split(dataset, 1 / 6, rng_from_seed(0))
        assert len(train) + len(test) == len(dataset)
        assert len(test) == pytest.approx(5, abs=2)

    def test_stratified_keeps_all_labels(self):
        labels = np.repeat([0, 1, 2], 12)
        data = ArrayDataset(np.zeros((36, 2)), labels)
        _, test = train_test_split(data, 0.25, rng_from_seed(0))
        assert set(test.labels.tolist()) == {0, 1, 2}

    def test_unstratified(self, dataset):
        train, test = train_test_split(dataset, 0.2, rng_from_seed(0), stratify=False)
        assert len(test) == 6
        assert len(train) == 24

    def test_rejects_bad_fraction(self, dataset):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                train_test_split(dataset, bad, rng_from_seed(0))
