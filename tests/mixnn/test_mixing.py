"""The §4.2 mix as the proxy runs it: granularities and identity bookkeeping
of a full round (``k`` = cohort), encrypted and decrypted end to end."""

import numpy as np
import pytest

from repro.federated.update import aggregate_updates
from repro.mixnn.proxy import Granularity, MixNNProxy

from ..conftest import make_updates, mix_round


class TestFullRoundMix:
    def test_output_count_matches_input(self, small_model):
        updates = make_updates(small_model, 6)
        mixed = mix_round(updates, seed=0)
        assert len(mixed) == 6

    def test_each_layer_piece_used_exactly_once(self, small_model):
        updates = make_updates(small_model, 5)
        mixed = mix_round(updates, seed=1)
        layers = list(updates[0].layers)
        for layer_index, layer in enumerate(layers):
            sources = [m.metadata["unit_sources"][layer_index] for m in mixed]
            assert sorted(sources) == [u.sender_id for u in updates]

    def test_aggregation_preserved(self, small_model):
        updates = make_updates(small_model, 6)
        mixed = mix_round(updates, seed=2)
        original = aggregate_updates(updates)
        after = aggregate_updates(mixed)
        for name in original:
            np.testing.assert_allclose(original[name], after[name], atol=1e-6)

    def test_apparent_ids_follow_arrival_order(self, small_model):
        updates = make_updates(small_model, 4)
        mixed = mix_round(updates, seed=3)
        assert [m.apparent_id for m in mixed] == [u.sender_id for u in updates]
        assert all(m.sender_id == -1 for m in mixed)

    def test_layer_values_come_from_declared_source(self, small_model):
        updates = make_updates(small_model, 4)
        by_sender = {u.sender_id: u for u in updates}
        mixed = mix_round(updates, seed=4)
        for emitted in mixed:
            layers = list(emitted.layers.items())
            for (layer, names), source in zip(layers, emitted.metadata["unit_sources"]):
                for name in names:
                    np.testing.assert_array_equal(emitted.state[name], by_sender[source].state[name])

    def test_model_granularity_keeps_whole_updates(self, small_model):
        updates = make_updates(small_model, 5)
        mixed = mix_round(updates, seed=5, granularity="model")
        for emitted in mixed:
            assert len(set(emitted.metadata["unit_sources"])) == 1

    def test_parameter_granularity_has_one_unit_per_tensor(self, small_model):
        updates = make_updates(small_model, 3)
        mixed = mix_round(updates, seed=6, granularity="parameter")
        assert len(mixed[0].metadata["unit_sources"]) == len(updates[0].state)

    def test_unknown_granularity(self, enclave):
        with pytest.raises(ValueError, match="granularity") as raised:
            MixNNProxy(enclave=enclave, granularity="neuron")
        assert all(repr(choice) in str(raised.value) for choice in ("model", "layer", "parameter"))
        assert "layer" in Granularity

    def test_empty_round_emits_nothing(self):
        assert mix_round([]) == []

    def test_schema_mismatch_rejected(self, small_model):
        updates = make_updates(small_model, 3)
        updates[1].state.pop(list(updates[1].state)[-1])
        mixed = mix_round(updates, seed=0)
        assert sorted(m.apparent_id for m in mixed) == [0, 2]
        for layer_index in range(len(updates[0].layers)):
            assert sorted(m.metadata["unit_sources"][layer_index] for m in mixed) == [0, 2]

    def test_preserves_schema_order(self, small_model):
        updates = make_updates(small_model, 4)
        mixed = mix_round(updates, seed=7)
        assert mixed[0].parameter_names == updates[0].parameter_names
