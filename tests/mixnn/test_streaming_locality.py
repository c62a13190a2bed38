"""The streaming window's locality property (k-list ablation, paper §4.3).

With a small ``k``, the proxy's layer lists act as a sliding window over
arrival order: an emitted update's layer pieces can only come from the last
few arrivals, so mixed layers correlate temporally with the apparent sender.
With ``k`` equal to the round size (the paper's L = C evaluation setting) the
selection is uniform over the whole cohort.  These tests pin down both ends.
"""

import numpy as np
import pytest

from repro.mixnn.enclave import SGXEnclaveSim
from repro.mixnn.proxy import MixNNProxy
from repro.utils.rng import rng_from_seed

from ..conftest import make_updates


def source_distance_stats(model, keypair, k: int, cohort: int = 16, seed: int = 0):
    """Mean |arrival index of layer source − arrival index of apparent sender|."""
    proxy = MixNNProxy(
        enclave=SGXEnclaveSim(keypair=keypair, constant_time=False),
        k=k,
        rng=rng_from_seed(seed),
    )
    updates = make_updates(model, cohort, seed=seed)
    emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
    arrival_index = {u.sender_id: i for i, u in enumerate(updates)}
    distances = []
    for message in emitted:
        apparent = arrival_index[message.apparent_id]
        for source in message.metadata["unit_sources"]:
            distances.append(abs(arrival_index[source] - apparent))
    return float(np.mean(distances))


class TestStreamingLocality:
    def test_small_window_correlates_with_arrival_order(self, small_model, keypair):
        """k=2 keeps sources within a couple of arrivals of the sender."""
        near = source_distance_stats(small_model, keypair, k=2)
        assert near < 4.0

    def test_full_round_buffering_decorrelates(self, small_model, keypair):
        """k=cohort draws sources uniformly: mean distance ≈ cohort/3."""
        far = source_distance_stats(small_model, keypair, k=16)
        # Uniform |i - j| over 16 slots has mean ≈ 5.3.
        assert far > 4.0

    def test_monotone_in_k(self, small_model, keypair):
        distances = [source_distance_stats(small_model, keypair, k=k) for k in (2, 6, 16)]
        assert distances[0] < distances[-1]

    @pytest.mark.parametrize("k", [2, 5, 16])
    def test_equivalence_holds_at_every_k(self, small_model, keypair, k):
        """Locality affects privacy, never the aggregate (§4.2 is k-independent)."""
        from repro.federated.update import aggregate_updates

        proxy = MixNNProxy(
            enclave=SGXEnclaveSim(keypair=keypair, constant_time=False),
            k=k,
            rng=rng_from_seed(1),
        )
        updates = make_updates(small_model, 16, seed=1)
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        before = aggregate_updates(updates)
        after = aggregate_updates(emitted)
        for name in before:
            np.testing.assert_allclose(before[name], after[name], atol=1e-5)
