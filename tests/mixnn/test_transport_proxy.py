"""Wire format and the streaming MixNN proxy."""

import numpy as np
import pytest

from repro.experiments.models import paper_cnn
from repro.federated.update import aggregate_updates
from repro.mixnn.proxy import MixNNProxy
from repro.mixnn.transport import pack_update, unpack_update, update_nbytes
from repro.mixnn.crypto import decrypt
from repro.utils.rng import rng_from_seed

from ..conftest import make_updates


class TestTransport:
    def test_pack_unpack_round_trip(self, small_model, enclave):
        update = make_updates(small_model, 1)[0]
        message = pack_update(update, enclave.public_key)
        plaintext = decrypt(enclave.keypair, message.ciphertext)
        restored = unpack_update(plaintext)
        assert restored.sender_id == update.sender_id
        assert restored.round_index == update.round_index
        assert restored.num_samples == update.num_samples
        np.testing.assert_array_equal(restored.flat(), update.flat())

    def test_transport_id_outside_ciphertext(self, small_model, enclave):
        update = make_updates(small_model, 1)[0]
        message = pack_update(update, enclave.public_key)
        assert message.transport_id == update.sender_id
        assert message.nbytes == len(message.ciphertext)

    def test_update_nbytes_counts_float32_payload(self, small_model):
        update = make_updates(small_model, 1)[0]
        expected = sum(v.nbytes for v in update.state.values())
        assert update_nbytes(update) == expected

    def test_staleness_rides_inside_the_ciphertext(self, small_model, enclave):
        update = make_updates(small_model, 1)[0]
        update.metadata["staleness"] = 3
        message = pack_update(update, enclave.public_key)
        restored = unpack_update(decrypt(enclave.keypair, message.ciphertext))
        assert restored.metadata["staleness"] == 3

    def test_fresh_update_wire_bytes_unchanged(self, small_model, enclave):
        """staleness=0 is omitted from the envelope: the synchronous flow's
        plaintext framing is byte-identical to the pre-passthrough format."""
        update = make_updates(small_model, 1)[0]
        fresh = pack_update(update, enclave.public_key)
        update.metadata["staleness"] = 0
        tagged = pack_update(update, enclave.public_key)
        assert len(decrypt(enclave.keypair, fresh.ciphertext)) == len(
            decrypt(enclave.keypair, tagged.ciphertext)
        )
        restored = unpack_update(decrypt(enclave.keypair, tagged.ciphertext))
        assert "staleness" not in restored.metadata


def build_proxy(enclave, k, seed=0):
    return MixNNProxy(enclave=enclave, k=k, rng=rng_from_seed(seed))


def mismatched_update(model, mismatch):
    """An update from a fresh sender whose parameter names or shapes differ
    from ``model``'s; a reshaped parameter keeps every name and the size."""
    if mismatch == "names":
        model = paper_cnn((3, 8, 8), 10, rng_from_seed(1), conv_layers=3)
    update = make_updates(model, 1)[0]
    # a fresh sender, so the replay guard lets the schema check speak
    update.sender_id = 7
    if mismatch == "shapes":
        first = next(iter(update.state))
        update.state[first] = update.state[first].reshape(-1)
    return update


class TestProxyWarmup:
    def test_k_validation(self, enclave):
        with pytest.raises(ValueError):
            MixNNProxy(enclave=enclave, k=0)

    def test_first_k_arrivals_emit_nothing(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        updates = make_updates(small_model, 3)
        for update in updates:
            assert proxy.receive(proxy.encrypt_for_proxy(update)) is None
        assert proxy.pending() == 3

    def test_arrival_after_warmup_emits(self, small_model, enclave):
        proxy = build_proxy(enclave, k=2)
        updates = make_updates(small_model, 3)
        assert proxy.receive(proxy.encrypt_for_proxy(updates[0])) is None
        assert proxy.receive(proxy.encrypt_for_proxy(updates[1])) is None
        emitted = proxy.receive(proxy.encrypt_for_proxy(updates[2]))
        assert emitted is not None
        assert emitted.metadata["mixed"]


class TestProxyRound:
    def test_round_emits_one_update_per_participant(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        updates = make_updates(small_model, 7)
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        assert len(emitted) == 7
        assert sorted(m.apparent_id for m in emitted) == [u.sender_id for u in updates]

    def test_aggregation_equivalence_through_full_pipeline(self, small_model, enclave):
        proxy = build_proxy(enclave, k=4)
        updates = make_updates(small_model, 6)
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        original = aggregate_updates(updates)
        mixed = aggregate_updates(emitted)
        for name in original:
            np.testing.assert_allclose(original[name], mixed[name], atol=1e-5)

    def test_every_layer_piece_forwarded_once(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        updates = make_updates(small_model, 6)
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        num_units = len(emitted[0].metadata["unit_sources"])
        for unit in range(num_units):
            sources = sorted(m.metadata["unit_sources"][unit] for m in emitted)
            assert sources == [u.sender_id for u in updates]

    def test_sender_identity_hidden(self, small_model, enclave):
        proxy = build_proxy(enclave, k=2)
        updates = make_updates(small_model, 4)
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        assert all(m.sender_id == -1 for m in emitted)

    def test_two_rounds_reuse_proxy(self, small_model, enclave):
        proxy = build_proxy(enclave, k=2)
        for round_index in (0, 1):
            updates = make_updates(small_model, 4, seed=round_index, round_index=round_index)
            emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
            assert len(emitted) == 4
            assert proxy.pending() == 0
            assert all(m.round_index == round_index for m in emitted)

    def test_schema_change_rejected(self, small_model, enclave):
        proxy = build_proxy(enclave, k=2)
        updates = make_updates(small_model, 2)
        for update in updates:
            proxy.receive(proxy.encrypt_for_proxy(update))
        alien = mismatched_update(small_model, "names")
        with pytest.raises(KeyError, match="schema"):
            proxy.receive(proxy.encrypt_for_proxy(alien))

    def test_shape_change_rejected(self, small_model, enclave):
        """Same names, one parameter reshaped: rejected on arrival, before
        its pieces can reach a chimera and fail the server's merge."""
        proxy = build_proxy(enclave, k=3)
        for update in make_updates(small_model, 2):
            proxy.receive(proxy.encrypt_for_proxy(update))
        reshaped = mismatched_update(small_model, "shapes")
        with pytest.raises(KeyError, match="schema"):
            proxy.receive(proxy.encrypt_for_proxy(reshaped))
        assert proxy.pending() == 2

    @pytest.mark.parametrize("mismatch", ["names", "shapes"])
    def test_schema_rejection_frees_enclave_memory(self, small_model, enclave, mismatch):
        proxy = build_proxy(enclave, k=3)
        proxy.receive(proxy.encrypt_for_proxy(make_updates(small_model, 1)[0]))
        resident_before = enclave.memory.used_bytes
        with pytest.raises(KeyError, match="schema"):
            proxy.receive(proxy.encrypt_for_proxy(mismatched_update(small_model, mismatch)))
        assert enclave.memory.used_bytes == resident_before

    def test_stats_track_counts_and_bytes(self, small_model, enclave):
        proxy = build_proxy(enclave, k=2)
        updates = make_updates(small_model, 5)
        proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        assert proxy.stats.received == 5
        assert proxy.stats.emitted == 5
        assert proxy.stats.flushes == 1
        assert proxy.stats.bytes_in > proxy.stats.bytes_out > 0

    def test_memory_returns_to_zero_after_flush(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        updates = make_updates(small_model, 5)
        proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        assert enclave.memory.used_bytes == 0

    def test_repr(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        assert "k=3" in repr(proxy)


class TestProxyDecryptionPool:
    def test_batched_round_identical_to_message_by_message(self, small_model, keypair):
        """Decrypting the batch up front must not change what the proxy emits:
        ``process_round`` equals ``receive`` per message followed by ``flush``."""
        from repro.mixnn.enclave import SGXEnclaveSim

        def build():
            return MixNNProxy(enclave=SGXEnclaveSim(keypair=keypair), k=3, rng=rng_from_seed(0))

        batched_proxy, single_proxy = build(), build()
        messages = [batched_proxy.encrypt_for_proxy(u) for u in make_updates(small_model, 6)]
        batched = batched_proxy.process_round(messages)
        single = [single_proxy.receive(m) for m in messages]
        single = [m for m in single if m is not None] + single_proxy.flush()
        assert len(batched) == len(single) == 6
        assert [m.apparent_id for m in batched] == [m.apparent_id for m in single]
        assert [m.metadata["unit_sources"] for m in batched] == [
            m.metadata["unit_sources"] for m in single
        ]
        for a, b in zip(batched, single):
            for name in a.state:
                assert a.state[name].tobytes() == b.state[name].tobytes()

    def test_decrypt_many_matches_single_decrypts(self, small_model, keypair):
        from repro.mixnn.crypto import encrypt
        from repro.mixnn.enclave import SGXEnclaveSim

        enclave = SGXEnclaveSim(keypair=keypair)
        payloads = [bytes([i]) * (1000 + i) for i in range(5)]
        ciphertexts = [encrypt(enclave.public_key, p) for p in payloads]
        assert enclave.decrypt_many(ciphertexts) == payloads

    def test_decrypt_many_propagates_tampering(self, keypair):
        from repro.mixnn.crypto import CryptoError, encrypt
        from repro.mixnn.enclave import SGXEnclaveSim

        enclave = SGXEnclaveSim(keypair=keypair)
        good = encrypt(enclave.public_key, b"fine")
        bad = bytearray(encrypt(enclave.public_key, b"tampered"))
        bad[-1] ^= 0x01
        with pytest.raises(CryptoError):
            enclave.decrypt_many([good, bytes(bad)])


class TestProxyGranularity:
    def test_model_granularity_round(self, small_model, enclave):
        proxy = MixNNProxy(enclave=enclave, k=2, rng=rng_from_seed(0), granularity="model")
        updates = make_updates(small_model, 4)
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        for message in emitted:
            assert len(set(message.metadata["unit_sources"])) == 1

    def test_parameter_granularity_round(self, small_model, enclave):
        proxy = MixNNProxy(enclave=enclave, k=2, rng=rng_from_seed(0), granularity="parameter")
        updates = make_updates(small_model, 4)
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        assert len(emitted[0].metadata["unit_sources"]) == len(updates[0].state)
