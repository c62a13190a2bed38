"""Flat parameter plane: property-style equivalence against the oracles.

Marked ``oracles``::

    PYTHONPATH=src python -m pytest -m oracles -q

Every flat-plane path must be *bit-identical* (``np.array_equal``, no
tolerances) to the dict-based oracle it replaced (:mod:`tests.oracles.algebra`),
across randomized schemas (parameter counts, shapes, scalar params, bare
names) and client counts — this is the contract that makes the flat plane a
drop-in data plane rather than an approximation.  ∇Sim scoring agrees with
its cosine loop to float32 precision and on every argmax.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.attacks.background import reference_delta_matrix
from repro.attacks.gradsim import score_updates
from repro.federated.aggregation import (
    AggregationPolicy,
    _krum_scores,
    _multi_krum_selection,
    coordinate_median,
    krum,
    multi_krum,
    norm_filtered_mean,
    pairwise_sq_distances,
    trimmed_mean,
)
from repro.federated.flat import FlatUpdateBatch, row_norms, unit_columns
from repro.federated.update import (
    ModelUpdate,
    aggregate_states,
    aggregate_updates,
    state_delta,
)
from repro.mixnn.enclave import SGXEnclaveSim
from repro.mixnn.proxy import MixNNProxy
from repro.nn.serialization import schema_of
from repro.utils.rng import rng_from_seed

from ..conftest import mix_round

from ..oracles.algebra import (
    aggregate_states_reference,
    aggregate_updates_reference,
    coordinate_median_reference,
    krum_reference,
    krum_scores_reference,
    multi_krum_reference,
    norm_filtered_mean_reference,
    pairwise_sq_distances_reference,
    proxy_mix_reference,
    reference_deltas,
    score_updates_reference,
    state_delta_reference,
    trimmed_mean_reference,
)

pytestmark = pytest.mark.oracles


def random_schema_state(rng: np.random.Generator, scale: float = 1.0) -> "OrderedDict[str, np.ndarray]":
    """One random state under a random (but rng-reproducible) schema.

    Mixes multi-layer dotted names, a bare (layer-less) name, a scalar
    parameter, and varied tensor ranks — the shapes the flat plane must
    round-trip exactly.
    """
    state: "OrderedDict[str, np.ndarray]" = OrderedDict()
    num_layers = int(rng.integers(1, 5))
    for layer in range(num_layers):
        fan_in = int(rng.integers(1, 7))
        fan_out = int(rng.integers(1, 7))
        state[f"layer{layer}.weight"] = (
            scale * rng.standard_normal((fan_out, fan_in))
        ).astype(np.float32)
        if rng.random() < 0.8:
            state[f"layer{layer}.bias"] = (scale * rng.standard_normal(fan_out)).astype(np.float32)
    if rng.random() < 0.5:
        state["embedding"] = (scale * rng.standard_normal((3, 2, 2))).astype(np.float32)
    if rng.random() < 0.5:
        state["temperature"] = np.float32(scale * rng.standard_normal()) * np.ones(
            (), dtype=np.float32
        )
    return state


def states_like(template: dict, rng: np.random.Generator, count: int) -> list[dict]:
    return [
        OrderedDict(
            (name, (value + 0.1 * rng.standard_normal(value.shape)).astype(np.float32))
            for name, value in template.items()
        )
        for _ in range(count)
    ]


def updates_from(states: list[dict], rng: np.random.Generator) -> list[ModelUpdate]:
    return [
        ModelUpdate(
            sender_id=i,
            round_index=0,
            state=state,
            num_samples=int(rng.integers(1, 50)),
        )
        for i, state in enumerate(states)
    ]


def flat_of(state: dict) -> np.ndarray:
    return np.concatenate([np.asarray(v, dtype=np.float32).ravel() for v in state.values()])


def assert_states_identical(a: dict, b: dict) -> None:
    assert list(a.keys()) == list(b.keys())
    for name in a:
        assert np.asarray(a[name]).shape == np.asarray(b[name]).shape
        np.testing.assert_array_equal(np.asarray(a[name]), np.asarray(b[name]), strict=False)


SEEDS = [0, 1, 2, 3, 4]
COUNTS = [1, 2, 3, 5, 16, 64]


class TestAggregationEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", COUNTS)
    def test_plain_mean_bit_identical(self, seed, count):
        rng = rng_from_seed(seed)
        states = states_like(random_schema_state(rng), rng, count)
        assert_states_identical(aggregate_states(states), aggregate_states_reference(states))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_weighted_mean_bit_identical(self, seed):
        rng = rng_from_seed(seed)
        states = states_like(random_schema_state(rng), rng, 6)
        weights = [float(w) for w in rng.uniform(0.1, 5.0, size=6)]
        assert_states_identical(
            aggregate_states(states, weights), aggregate_states_reference(states, weights)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_weighted_updates_bit_identical(self, seed):
        rng = rng_from_seed(seed)
        updates = updates_from(states_like(random_schema_state(rng), rng, 5), rng)
        assert_states_identical(
            aggregate_updates(updates, sample_weighted=True),
            aggregate_updates_reference(updates, sample_weighted=True),
        )

    def test_validation_matches_reference(self):
        rng = rng_from_seed(9)
        states = states_like(random_schema_state(rng), rng, 3)
        with pytest.raises(ValueError):
            aggregate_states([])
        broken = OrderedDict(states[1])
        broken.pop(list(broken)[-1])
        with pytest.raises(KeyError):
            aggregate_states([states[0], broken])
        with pytest.raises(ValueError):
            aggregate_states(states, weights=[1.0])
        with pytest.raises(ValueError):
            aggregate_states(states, weights=[0.0, 0.0, 0.0])


class TestRobustRulesEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [1, 3, 5, 16, 64])
    def test_coordinate_median_bit_identical(self, seed, count):
        rng = rng_from_seed(seed)
        updates = updates_from(states_like(random_schema_state(rng), rng, count), rng)
        assert_states_identical(coordinate_median(updates), coordinate_median_reference(updates))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count,trim", [(3, 1), (5, 1), (16, 3), (64, 8)])
    def test_trimmed_mean_bit_identical(self, seed, count, trim):
        rng = rng_from_seed(seed)
        updates = updates_from(states_like(random_schema_state(rng), rng, count), rng)
        assert_states_identical(
            trimmed_mean(updates, trim=trim), trimmed_mean_reference(updates, trim=trim)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [8, 40])
    def test_norm_filtered_mean_bit_identical(self, seed, count):
        rng = rng_from_seed(seed)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, count), rng)
        # Inflate some rows so the filter genuinely partitions the cohort.
        for update in updates[::3]:
            for name in update.state:
                update.state[name] = update.state[name] + 25.0
        reference = template
        norms = row_norms(
            FlatUpdateBatch.from_updates(updates).deltas(reference),
            schema_of(reference),
        )
        bound = float(np.median(norms))  # keeps the honest half
        assert_states_identical(
            norm_filtered_mean(updates, reference, bound),
            norm_filtered_mean_reference(updates, reference, bound),
        )

    def test_norm_filter_rejecting_all_raises(self):
        rng = rng_from_seed(11)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, 3), rng)
        # A positive-but-unreachable bound rejects every update at runtime.
        with pytest.raises(ValueError, match="rejected"):
            norm_filtered_mean(updates, template, max_norm=1e-30)

    def test_norm_filter_rejects_non_positive_bound(self):
        rng = rng_from_seed(11)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, 3), rng)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="max_norm must be > 0"):
                norm_filtered_mean(updates, template, max_norm=bad)
            with pytest.raises(ValueError, match="max_norm must be > 0"):
                norm_filtered_mean_reference(updates, template, max_norm=bad)

    def test_trimmed_mean_rejects_negative_trim(self):
        rng = rng_from_seed(12)
        updates = updates_from(states_like(random_schema_state(rng), rng, 5), rng)
        for fn in (trimmed_mean, trimmed_mean_reference):
            with pytest.raises(ValueError, match="trim must be >= 0"):
                fn(updates, trim=-1)
        with pytest.raises(ValueError, match="trim must be >= 0"):
            FlatUpdateBatch.from_updates(updates).trimmed_mean(-2)

    def test_trimmed_mean_rejects_overlarge_trim(self):
        rng = rng_from_seed(13)
        updates = updates_from(states_like(random_schema_state(rng), rng, 4), rng)
        for fn in (trimmed_mean, trimmed_mean_reference):
            with pytest.raises(ValueError, match="removes all of 4 updates"):
                fn(updates, trim=2)


class TestKrumEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [3, 5, 16, 64])
    def test_pairwise_sq_distances_bit_identical(self, seed, count):
        rng = rng_from_seed(seed)
        updates = updates_from(states_like(random_schema_state(rng), rng, count), rng)
        np.testing.assert_array_equal(
            pairwise_sq_distances(updates), pairwise_sq_distances_reference(updates)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count,attackers", [(3, 0), (5, 1), (16, 4), (64, 20)])
    def test_krum_bit_identical(self, seed, count, attackers):
        rng = rng_from_seed(seed)
        updates = updates_from(states_like(random_schema_state(rng), rng, count), rng)
        flat_state, flat_index = krum(updates, attackers, return_index=True)
        ref_state, ref_index = krum_reference(updates, attackers, return_index=True)
        assert flat_index == ref_index
        assert_states_identical(flat_state, ref_state)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count,attackers", [(4, 1), (5, 1), (16, 4), (64, 20)])
    def test_multi_krum_bit_identical(self, seed, count, attackers):
        rng = rng_from_seed(seed)
        updates = updates_from(states_like(random_schema_state(rng), rng, count), rng)
        flat_state, flat_sel = multi_krum(updates, attackers, return_selected=True)
        ref_state, ref_sel = multi_krum_reference(updates, attackers, return_selected=True)
        assert flat_sel == ref_sel
        assert_states_identical(flat_state, ref_state)

    @pytest.mark.parametrize("count", [127, 128, 129, 600])
    def test_blocked_scores_match_row_oracle_with_duplicates(self, count):
        """Scores and the multi-Krum selection across the 128-row block
        boundary, with duplicate updates: exact-zero and tiny negative Gram
        distances off the diagonal."""
        rng = rng_from_seed(count)
        template = OrderedDict(
            w=rng.standard_normal((4, 3)).astype(np.float32), b=rng.standard_normal(4).astype(np.float32)
        )
        states = states_like(template, rng, count)
        for source, target in rng.integers(0, count, (count // 8, 2)):
            states[target] = states[source]
        updates = updates_from(states, rng)
        d2 = pairwise_sq_distances(updates)
        assert (d2[~np.eye(count, dtype=bool)] == 0.0).any()
        attackers = (count - 3) // 2
        scores, expected = _krum_scores(d2, attackers), krum_scores_reference(d2, attackers)
        assert scores.tobytes() == expected.tobytes()
        select = count - attackers - 2
        assert _multi_krum_selection(scores, select) == _multi_krum_selection(expected, select)
        _, flat_sel = multi_krum(updates, attackers, return_selected=True)
        _, ref_sel = multi_krum_reference(updates, attackers, return_selected=True)
        assert flat_sel == ref_sel

    def test_krum_rejects_tiny_cohorts(self):
        rng = rng_from_seed(5)
        updates = updates_from(states_like(random_schema_state(rng), rng, 4), rng)
        for fn in (krum, krum_reference, multi_krum, multi_krum_reference):
            with pytest.raises(ValueError, match="num_attackers \\+ 3"):
                fn(updates, num_attackers=2)
            with pytest.raises(ValueError, match="num_attackers must be >= 0"):
                fn(updates, num_attackers=-1)

    def test_krum_selects_an_actual_update(self):
        rng = rng_from_seed(6)
        updates = updates_from(states_like(random_schema_state(rng), rng, 8), rng)
        state, index = krum(updates, num_attackers=2, return_index=True)
        assert_states_identical(state, updates[index].state)

    def test_krum_excludes_an_obvious_outlier(self):
        rng = rng_from_seed(7)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, 8), rng)
        for name in updates[0].state:
            updates[0].state[name] = updates[0].state[name] + 1000.0
        _, index = krum(updates, num_attackers=1, return_index=True)
        assert index != 0
        _, selected = multi_krum(updates, num_attackers=1, return_selected=True)
        assert 0 not in selected


class TestAggregationPolicyEquivalence:
    """Every wired policy rule agrees bit-for-bit with its reference rule."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [3, 5, 16])
    @pytest.mark.parametrize("rule", ["median", "trimmed", "norm_filter", "krum", "multi-krum"])
    def test_policy_matches_reference_rule(self, seed, count, rule):
        rng = rng_from_seed(seed)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, count), rng)
        policy = AggregationPolicy(rule=rule)
        state, kept, dropped = policy.aggregate(updates, reference=template)
        assert not set(kept) & set(dropped)
        assert set(kept) | set(dropped) <= set(range(count))
        if rule == "median":
            assert_states_identical(state, coordinate_median_reference(updates))
        elif rule == "trimmed":
            trim = min(1, max(0, (count - 1) // 2))
            assert_states_identical(state, trimmed_mean_reference(updates, trim=trim))
        elif rule == "norm_filter":
            batch = FlatUpdateBatch.from_updates(updates)
            bound = 2.0 * float(np.median(batch.norms(template)))
            assert_states_identical(
                state, norm_filtered_mean_reference(updates, template, bound)
            )
            assert len(kept) >= (count + 1) // 2  # adaptive bound keeps the median half
        elif rule == "krum":
            f = max(0, min((count - 3) // 2, count - 3))
            ref_state, ref_index = krum_reference(updates, f, return_index=True)
            assert kept == (ref_index,)
            assert_states_identical(state, ref_state)
        else:
            f = max(0, min((count - 3) // 2, count - 3))
            ref_state, ref_sel = multi_krum_reference(updates, f, return_selected=True)
            assert list(kept) == ref_sel
            assert_states_identical(state, ref_state)

    @pytest.mark.parametrize("rule", ["krum", "multi-krum"])
    def test_krum_policies_fall_back_to_mean_below_floor(self, rule):
        rng = rng_from_seed(8)
        updates = updates_from(states_like(random_schema_state(rng), rng, 2), rng)
        state, kept, dropped = AggregationPolicy(rule=rule).aggregate(updates)
        assert kept == (0, 1) and dropped == ()
        assert_states_identical(state, aggregate_updates_reference(updates))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="unknown aggregation rule"):
            AggregationPolicy(rule="geometric-median")
        with pytest.raises(ValueError, match="trim must be >= 1"):
            AggregationPolicy(rule="trimmed", trim=0)
        with pytest.raises(ValueError, match="max_norm must be > 0"):
            AggregationPolicy(rule="norm_filter", max_norm=0.0)
        with pytest.raises(ValueError, match="norm_multiplier must be >= 1"):
            AggregationPolicy(rule="norm_filter", norm_multiplier=0.5)
        with pytest.raises(ValueError, match="num_attackers must be >= 0"):
            AggregationPolicy(rule="krum", num_attackers=-1)
        with pytest.raises(ValueError, match="multi_select must be >= 1"):
            AggregationPolicy(rule="multi-krum", multi_select=0)


class TestDeltaEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_delta_bit_identical(self, seed):
        rng = rng_from_seed(seed)
        template = random_schema_state(rng)
        state = states_like(template, rng, 1)[0]
        assert_states_identical(
            state_delta(state, template), state_delta_reference(state, template)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [2, 7])
    def test_batch_deltas_bit_identical(self, seed, count):
        rng = rng_from_seed(seed)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, count), rng)
        batch = FlatUpdateBatch.from_updates(updates)
        deltas = batch.deltas(template)
        for i, update in enumerate(updates):
            np.testing.assert_array_equal(
                deltas[i], flat_of(state_delta_reference(update.state, template))
            )

    def test_mismatched_schema_rejected(self):
        rng = rng_from_seed(12)
        template = random_schema_state(rng)
        with pytest.raises(KeyError):
            state_delta(template, {"other": np.zeros(1, dtype=np.float32)})


class TestMixingEquivalence:
    """The proxy's §4.3 stream, encrypted and decrypted, against its list
    oracle: emitted states byte for byte, identities, unit sources and the
    generator's state after the round."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [1, 2, 5, 16])
    @pytest.mark.parametrize("granularity", ["model", "layer", "parameter"])
    @pytest.mark.parametrize("mode", ["streaming", "full-round"])
    def test_proxy_matches_oracle_bit_for_bit(self, seed, count, granularity, mode, keypair):
        rng = rng_from_seed(seed)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, count), rng)
        k = count if mode == "full-round" else max(1, count // 2)
        proxy = MixNNProxy(
            enclave=SGXEnclaveSim(keypair=keypair),
            k=k,
            rng=rng_from_seed(seed + 100),
            granularity=granularity,
        )
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        oracle_rng = rng_from_seed(seed + 100)
        reference = proxy_mix_reference(updates, k, oracle_rng, granularity)
        assert proxy.rng.bit_generator.state == oracle_rng.bit_generator.state
        assert len(emitted) == len(reference) == count
        for got, want in zip(emitted, reference):
            assert (got.sender_id, got.apparent_id, got.round_index, got.num_samples) == (
                want.sender_id,
                want.apparent_id,
                want.round_index,
                want.num_samples,
            )
            assert got.metadata["unit_sources"] == want.metadata["unit_sources"]
            assert got.metadata["granularity"] == want.metadata["granularity"] == granularity
            assert list(got.state) == list(want.state)
            for name, value in want.state.items():
                value = np.asarray(value)
                assert got.state[name].dtype == value.dtype == np.float32
                assert got.state[name].shape == value.shape
                assert got.state[name].tobytes() == value.tobytes()


class TestAttackScoringEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("classes", [2, 6])
    def test_gradsim_scores_match_reference(self, seed, classes):
        rng = rng_from_seed(seed)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, 8), rng)
        references = {
            attribute: states_like(template, rng, 1)[0] for attribute in range(classes)
        }
        flat = score_updates(updates, template, reference_delta_matrix(references, template))
        reference = score_updates_reference(
            updates, template, reference_deltas(references, template)
        )
        assert list(flat) == list(reference)
        for participant in reference:
            assert list(flat[participant]) == list(reference[participant])
            for attribute in reference[participant]:
                assert flat[participant][attribute] == pytest.approx(
                    reference[participant][attribute], abs=1e-5
                )
            # the decision (argmax class) must agree exactly
            assert max(flat[participant], key=flat[participant].get) == max(
                reference[participant], key=reference[participant].get
            )

    def test_zero_direction_scores_zero(self):
        rng = rng_from_seed(31)
        template = random_schema_state(rng)
        identical = ModelUpdate(
            sender_id=0,
            round_index=0,
            state=OrderedDict((k, v.copy()) for k, v in template.items()),
        )
        references = {a: states_like(template, rng, 1)[0] for a in range(2)}
        class_deltas = reference_delta_matrix(references, template)
        scores = score_updates([identical], template, class_deltas)
        assert all(value == 0.0 for value in scores[0].values())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reference_delta_matrix_matches_dict_deltas(self, seed):
        rng = rng_from_seed(seed)
        template = random_schema_state(rng)
        references = {a: states_like(template, rng, 1)[0] for a in range(3)}
        attributes, matrix = reference_delta_matrix(references, template)
        deltas = reference_deltas(references, template)
        assert attributes == list(references)
        for i, attribute in enumerate(attributes):
            np.testing.assert_array_equal(matrix[i], deltas[attribute])


class TestFlatPlumbing:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_roundtrip_views_share_memory(self, seed):
        rng = rng_from_seed(seed)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, 3), rng)
        batch = FlatUpdateBatch.from_updates(updates)
        rebuilt = batch.to_updates()
        for i, (original, view_backed) in enumerate(zip(updates, rebuilt)):
            assert view_backed.sender_id == original.sender_id
            assert view_backed.num_samples == original.num_samples
            assert_states_identical(view_backed.state, original.state)
            assert view_backed.flat_vector is not None
            # in-place writes through the dict view hit the batch matrix
            first = next(iter(view_backed.state))
            view_backed.state[first][...] = 123.0
            assert np.all(batch.matrix[i, : view_backed.state[first].size] == 123.0)

    def test_ensure_flat_swaps_state_to_views(self):
        rng = rng_from_seed(40)
        template = random_schema_state(rng)
        update = updates_from(states_like(template, rng, 1), rng)[0]
        before = update.flat().copy()
        vector = update.ensure_flat()
        assert update.flat_vector is vector
        np.testing.assert_array_equal(before, vector)
        name = next(iter(update.state))
        update.state[name][...] = 7.0
        assert np.all(vector[: update.state[name].size] == 7.0)

    def test_copy_detaches_from_flat_plane(self):
        rng = rng_from_seed(41)
        template = random_schema_state(rng)
        update = updates_from(states_like(template, rng, 1), rng)[0]
        update.ensure_flat()
        clone = update.copy()
        assert clone.flat_vector is None
        name = next(iter(clone.state))
        clone.state[name][...] = 55.0
        assert not np.any(update.state[name] == 55.0)

    def test_unit_columns_cover_each_coordinate_once(self):
        rng = rng_from_seed(43)
        template = random_schema_state(rng)
        schema = schema_of(template)
        from repro.federated.update import layer_groups

        units = [names for names in layer_groups(tuple(schema.names)).values()]
        columns = unit_columns(schema, units)
        covered = np.zeros(schema.total_size, dtype=int)
        for column in columns:
            covered[column] += 1
        assert np.all(covered == 1)

    def test_batch_rejects_schema_mismatch(self):
        rng = rng_from_seed(44)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, 2), rng)
        broken = OrderedDict(updates[1].state)
        broken.pop(list(broken)[-1])
        updates[1] = updates[1].with_state(broken)
        with pytest.raises(KeyError):
            FlatUpdateBatch.from_updates(updates)

    def test_batch_rejects_flat_backed_update_of_other_schema(self):
        """Same total size is not enough — flat-backed rows must share names."""
        a = ModelUpdate(
            sender_id=0,
            round_index=0,
            state=OrderedDict([("w", np.zeros(4, dtype=np.float32))]),
        )
        b = ModelUpdate(
            sender_id=1,
            round_index=0,
            state=OrderedDict([("conv.w", np.zeros((2, 2), dtype=np.float32))]),
        )
        a.ensure_flat()
        b.ensure_flat()
        with pytest.raises(KeyError):
            FlatUpdateBatch.from_updates([a, b])

    def test_norms_pack_dict_reference_by_name(self):
        """A reference dict with reordered keys must still align by name."""
        rng = rng_from_seed(45)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, 3), rng)
        reordered = OrderedDict((name, template[name]) for name in reversed(list(template)))
        batch = FlatUpdateBatch.from_updates(updates)
        np.testing.assert_array_equal(batch.norms(template), batch.norms(reordered))


class TestReorderedReferenceStates:
    def test_relink_attack_aligns_reference_states_by_name(self, small_model):
        """Reference states with reordered keys classify identically."""
        from repro.attacks.reconstruction import RelinkAttack

        base = small_model.state_dict()
        plus = OrderedDict((k, v + 1.0) for k, v in base.items())
        minus = OrderedDict((k, v - 1.0) for k, v in base.items())
        reordered_plus = OrderedDict((k, plus[k]) for k in reversed(list(plus)))
        rng = rng_from_seed(0)
        updates = updates_from(states_like(base, rng, 4), rng)
        mixed = mix_round(updates, seed=1)
        straight = RelinkAttack({0: minus, 1: plus}, base).run(mixed)
        shuffled = RelinkAttack({0: minus, 1: reordered_plus}, base).run(mixed)
        assert straight.piece_assignments == shuffled.piece_assignments

    def test_norm_filtered_mean_with_reordered_reference(self):
        rng = rng_from_seed(46)
        template = random_schema_state(rng)
        updates = updates_from(states_like(template, rng, 5), rng)
        reordered = OrderedDict((name, template[name]) for name in reversed(list(template)))
        norms = row_norms(
            FlatUpdateBatch.from_updates(updates).deltas(template), schema_of(template)
        )
        bound = float(np.median(norms))
        assert_states_identical(
            norm_filtered_mean(updates, reordered, bound),
            norm_filtered_mean_reference(updates, reordered, bound),
        )
