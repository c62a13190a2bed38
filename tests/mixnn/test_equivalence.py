"""Property-based verification of the §4.2 utility-equivalence theorem on the
proxy that ships.

The theorem: if every (participant, layer) piece is forwarded in exactly one
emitted update, the column-mean aggregate of the mixed batch equals the
aggregate of the original batch.  Hypothesis generates random cohort sizes,
model schemas and parameter values; each round is encrypted once and run
through :meth:`MixNNProxy.process_round` at every list capacity ``k`` from 1
(an emission per arrival) to the cohort size (the full-round mix), and the
properties must hold at every ``k`` and every granularity.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.update import ModelUpdate, aggregate_updates
from repro.mixnn.crypto import process_keypair
from repro.mixnn.enclave import SGXEnclaveSim
from repro.mixnn.proxy import Granularity, MixNNProxy, _mixing_units
from repro.mixnn.transport import pack_update
from repro.utils.rng import rng_from_seed


@st.composite
def update_batches(draw):
    """A random federated round: schema + per-participant values."""
    num_clients = draw(st.integers(min_value=1, max_value=8))
    num_layers = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = rng_from_seed(seed)
    shapes = []
    for layer in range(num_layers):
        rows = draw(st.integers(min_value=1, max_value=4))
        cols = draw(st.integers(min_value=1, max_value=4))
        shapes.append((f"layer{layer}.weight", (rows, cols)))
        shapes.append((f"layer{layer}.bias", (rows,)))
    updates = []
    for sender in range(num_clients):
        state = OrderedDict(
            (name, rng.standard_normal(shape).astype(np.float32)) for name, shape in shapes
        )
        updates.append(ModelUpdate(sender_id=sender, round_index=0, state=state))
    return updates, seed


def mixed_at_every_k(updates, seed, granularity="layer"):
    """``(k, emitted)`` for every ``k`` from 1 to the cohort size, each round
    through a fresh proxy over the same ciphertexts."""
    keypair = process_keypair()
    messages = [pack_update(update, keypair.public) for update in updates]
    for k in range(1, len(updates) + 1):
        proxy = MixNNProxy(
            enclave=SGXEnclaveSim(keypair=keypair),
            k=k,
            rng=rng_from_seed(seed),
            granularity=granularity,
        )
        emitted = proxy.process_round(messages)
        assert len(emitted) == len(updates), f"k={k}"
        yield k, emitted


class TestUtilityEquivalence:
    @given(update_batches(), st.sampled_from(Granularity))
    @settings(max_examples=60, deadline=None)
    def test_aggregate_invariant_under_mixing(self, batch, granularity):
        updates, seed = batch
        original = aggregate_updates(updates)
        for k, mixed in mixed_at_every_k(updates, seed + 1, granularity):
            after = aggregate_updates(mixed)
            for name in original:
                np.testing.assert_allclose(original[name], after[name], atol=1e-5, err_msg=f"k={k}")

    @given(update_batches(), st.sampled_from(Granularity))
    @settings(max_examples=40, deadline=None)
    def test_every_piece_forwarded_exactly_once(self, batch, granularity):
        updates, seed = batch
        senders = [u.sender_id for u in updates]
        for k, mixed in mixed_at_every_k(updates, seed + 2, granularity):
            num_units = len(mixed[0].metadata["unit_sources"])
            for unit in range(num_units):
                sources = sorted(m.metadata["unit_sources"][unit] for m in mixed)
                assert sources == senders, f"k={k} unit={unit}"
            assert sorted(m.apparent_id for m in mixed) == senders

    @given(update_batches(), st.sampled_from(Granularity))
    @settings(max_examples=30, deadline=None)
    def test_mixing_is_lossless_as_a_multiset(self, batch, granularity):
        """The multiset of per-unit values is preserved exactly."""
        updates, seed = batch
        units = _mixing_units(updates[0].parameter_names, granularity)

        def pieces(batch, unit):
            return sorted(b"".join(u.state[name].tobytes() for name in unit) for u in batch)

        for k, mixed in mixed_at_every_k(updates, seed + 3, granularity):
            for unit in units:
                assert pieces(mixed, unit) == pieces(updates, unit), f"k={k} {unit}"
