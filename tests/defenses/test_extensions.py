"""Extension defenses: secure aggregation and DP clip-and-noise."""

import numpy as np
import pytest

from repro.defenses import ClipAndNoiseDefense, SecureAggregationDefense
from repro.federated.update import aggregate_updates, state_delta
from repro.utils.rng import rng_from_seed

from ..conftest import make_updates
from ..oracles.algebra import clip_delta, delta_norm, state_delta_reference


class TestSecureAggregation:
    def test_mask_scale_validation(self):
        with pytest.raises(ValueError):
            SecureAggregationDefense(mask_scale=0.0)

    def test_aggregate_preserved(self, small_model):
        updates = make_updates(small_model, 5)
        masked = SecureAggregationDefense().process_round(updates, rng_from_seed(0))
        original = aggregate_updates(updates)
        after = aggregate_updates(masked)
        for name in original:
            np.testing.assert_allclose(original[name], after[name], atol=1e-3)

    def test_individual_updates_are_hidden(self, small_model):
        """A masked update must look nothing like the participant's real one."""
        updates = make_updates(small_model, 4)
        masked = SecureAggregationDefense(mask_scale=5.0).process_round(updates, rng_from_seed(0))
        for original, hidden in zip(updates, masked):
            residual = hidden.flat() - original.flat()
            # The residual is the pairwise mask sum: large compared to the
            # 0.05-scale differences between the real updates.
            assert np.abs(residual).mean() > 1.0

    def test_masks_are_fresh_per_round(self, small_model):
        updates = make_updates(small_model, 3)
        defense = SecureAggregationDefense()
        rng = rng_from_seed(0)
        first = defense.process_round(updates, rng)[0].flat()
        second = defense.process_round(updates, rng)[0].flat()
        assert not np.allclose(first, second)

    def test_identity_metadata(self, small_model):
        updates = make_updates(small_model, 3)
        masked = SecureAggregationDefense().process_round(updates, rng_from_seed(0))
        assert all(m.metadata["masked"] for m in masked)
        assert [m.sender_id for m in masked] == [u.sender_id for u in updates]

    def test_single_participant_is_unmasked(self, small_model):
        """With one participant there is no pair, hence no mask."""
        updates = make_updates(small_model, 1)
        masked = SecureAggregationDefense().process_round(updates, rng_from_seed(0))
        np.testing.assert_allclose(masked[0].flat(), updates[0].flat(), atol=1e-6)

    def test_originals_not_mutated(self, small_model):
        updates = make_updates(small_model, 3)
        snapshot = updates[0].flat().copy()
        SecureAggregationDefense().process_round(updates, rng_from_seed(0))
        np.testing.assert_array_equal(updates[0].flat(), snapshot)


class TestDeltaHelpers:
    def test_delta_norm(self):
        delta = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert delta_norm(delta) == pytest.approx(5.0)

    def test_clip_noop_below_bound(self):
        delta = {"a": np.array([0.3], dtype=np.float32)}
        clipped = clip_delta(delta, max_norm=1.0)
        np.testing.assert_allclose(clipped["a"], [0.3])

    def test_clip_scales_to_bound(self):
        delta = {"a": np.array([3.0], dtype=np.float32), "b": np.array([4.0], dtype=np.float32)}
        clipped = clip_delta(delta, max_norm=1.0)
        assert delta_norm(clipped) == pytest.approx(1.0, rel=1e-5)

    def test_clip_zero_delta(self):
        delta = {"a": np.zeros(3, dtype=np.float32)}
        clipped = clip_delta(delta, max_norm=1.0)
        np.testing.assert_array_equal(clipped["a"], np.zeros(3))

    def test_clip_returns_copies(self):
        delta = {"a": np.array([0.5], dtype=np.float32)}
        clipped = clip_delta(delta, max_norm=1.0)
        clipped["a"][:] = 9.0
        assert delta["a"][0] == pytest.approx(0.5)


class TestClipAndNoise:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClipAndNoiseDefense(clip_norm=0.0)
        with pytest.raises(ValueError):
            ClipAndNoiseDefense(noise_multiplier=-1.0)

    def test_requires_broadcast_state(self, small_model):
        updates = make_updates(small_model, 2)
        with pytest.raises(ValueError, match="broadcast"):
            ClipAndNoiseDefense().process_round(updates, rng_from_seed(0))

    def test_deltas_clipped_to_bound(self, small_model):
        broadcast = small_model.state_dict()
        updates = make_updates(small_model, 3)
        defense = ClipAndNoiseDefense(clip_norm=0.5, noise_multiplier=0.0)
        processed = defense.process_round(updates, rng_from_seed(0), broadcast_state=broadcast)
        for update in processed:
            norm = delta_norm(state_delta(update.state, broadcast))
            assert norm <= 0.5 + 1e-4

    def test_clip_bit_identical_to_oracle(self, small_model):
        """Without noise, every processed update is the broadcast plus the
        per-parameter clip of its delta, bit for bit."""
        broadcast = small_model.state_dict()
        updates = make_updates(small_model, 6)
        deltas = [state_delta_reference(u.state, broadcast) for u in updates]
        # a bound between the delta norms clips some rows and keeps the rest
        bound = float(np.median([delta_norm(d) for d in deltas]))
        processed = ClipAndNoiseDefense(clip_norm=bound, noise_multiplier=0.0).process_round(
            updates, rng_from_seed(0), broadcast_state=broadcast
        )
        for delta, out in zip(deltas, processed):
            clipped = clip_delta(delta, bound)
            for name in broadcast:
                np.testing.assert_array_equal(out.state[name], broadcast[name] + clipped[name])

    def test_noise_added_when_configured(self, small_model):
        broadcast = small_model.state_dict()
        updates = make_updates(small_model, 1)
        quiet = ClipAndNoiseDefense(clip_norm=10.0, noise_multiplier=0.0).process_round(
            updates, rng_from_seed(0), broadcast_state=broadcast
        )
        loud = ClipAndNoiseDefense(clip_norm=10.0, noise_multiplier=0.5).process_round(
            updates, rng_from_seed(0), broadcast_state=broadcast
        )
        assert not np.allclose(quiet[0].flat(), loud[0].flat())

    def test_zero_noise_large_bound_is_identity(self, small_model):
        broadcast = small_model.state_dict()
        updates = make_updates(small_model, 2)
        processed = ClipAndNoiseDefense(clip_norm=1e6, noise_multiplier=0.0).process_round(
            updates, rng_from_seed(0), broadcast_state=broadcast
        )
        for original, out in zip(updates, processed):
            np.testing.assert_allclose(original.flat(), out.flat(), atol=1e-5)

    def test_metadata(self, small_model):
        broadcast = small_model.state_dict()
        updates = make_updates(small_model, 1)
        processed = ClipAndNoiseDefense(clip_norm=2.0, noise_multiplier=0.3).process_round(
            updates, rng_from_seed(0), broadcast_state=broadcast
        )
        assert processed[0].metadata["clip_norm"] == 2.0
        assert processed[0].metadata["noise_multiplier"] == 0.3
