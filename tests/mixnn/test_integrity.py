"""Envelope integrity: nonces, provenance digests, and replay rejection.

Marked ``byzantine`` alongside the adversary-plane tests::

    PYTHONPATH=src python -m pytest -m byzantine -q
"""

import hashlib

import pytest

from repro.mixnn.crypto import decrypt, encrypt
from repro.mixnn.proxy import MixNNProxy, ReplayError
from repro.mixnn.transport import (
    EncryptedUpdate,
    IntegrityError,
    _envelope,
    envelope_nonce,
    pack_update,
    unpack_update,
)
from repro.nn.serialization import FrameError
from repro.utils.rng import rng_from_seed

from ..conftest import make_updates

pytestmark = pytest.mark.byzantine


def build_proxy(enclave, k, seed=0):
    return MixNNProxy(enclave=enclave, k=k, rng=rng_from_seed(seed))


class TestEnvelopeNonce:
    def test_deterministic_and_fixed_length(self):
        assert envelope_nonce(3, 7) == envelope_nonce(3, 7)
        assert len(envelope_nonce(3, 7)) == 32
        assert len(envelope_nonce(123456, 9999)) == 32

    def test_scoped_to_sender_and_round(self):
        assert envelope_nonce(3, 7) != envelope_nonce(4, 7)
        assert envelope_nonce(3, 7) != envelope_nonce(3, 8)


class TestEnvelopeIntegrity:
    def test_unpack_carries_nonce_and_digest(self, small_model, enclave):
        update = make_updates(small_model, 1)[0]
        message = pack_update(update, enclave.public_key)
        restored = unpack_update(decrypt(enclave.keypair, message.ciphertext))
        assert restored.metadata["nonce"] == envelope_nonce(
            update.sender_id, update.round_index
        )
        assert len(restored.metadata["digest"]) == 64

    def test_digest_matches_the_body_bytes(self, small_model, enclave):
        update = make_updates(small_model, 1)[0]
        message = pack_update(update, enclave.public_key)
        plaintext = decrypt(enclave.keypair, message.ciphertext)
        restored = unpack_update(plaintext)
        header_len = int.from_bytes(plaintext[:4], "big")
        body = plaintext[4 + header_len :]
        assert restored.metadata["digest"] == hashlib.sha256(body).hexdigest()

    def test_tampered_body_raises_integrity_error(self, small_model, enclave):
        update = make_updates(small_model, 1)[0]
        message = pack_update(update, enclave.public_key)
        plaintext = bytearray(decrypt(enclave.keypair, message.ciphertext))
        # flip one bit deep inside the parameter payload, past the envelope
        plaintext[-10] ^= 0x01
        with pytest.raises(IntegrityError, match="digest mismatch"):
            unpack_update(bytes(plaintext))

    def test_tampered_body_rejection_frees_enclave_memory(self, small_model, enclave):
        proxy = build_proxy(enclave, k=2)
        first, second = make_updates(small_model, 2)
        proxy.receive(proxy.encrypt_for_proxy(first))
        resident_before = enclave.memory.used_bytes
        plaintext = bytearray(decrypt(enclave.keypair, proxy.encrypt_for_proxy(second).ciphertext))
        plaintext[-10] ^= 0x01
        tampered = EncryptedUpdate(
            ciphertext=encrypt(enclave.public_key, bytes(plaintext)), transport_id=1
        )
        with pytest.raises(IntegrityError, match="digest mismatch"):
            proxy.receive(tampered)
        assert enclave.memory.used_bytes == resident_before
        assert proxy.pending() == 1

    def test_integrity_error_is_a_frame_error(self):
        # the fault plane's corruption handling catches FrameError; a digest
        # mismatch must flow through the same retry path
        assert issubclass(IntegrityError, FrameError)

    def test_forged_nonce_rejected_at_the_proxy(self, small_model, enclave):
        update = make_updates(small_model, 1)[0]
        message = pack_update(update, enclave.public_key)
        plaintext = decrypt(enclave.keypair, message.ciphertext)
        # graft the envelope onto a different claimed sender: recompute the
        # body digest (it still matches) but keep the original nonce
        header_len = int.from_bytes(plaintext[:4], "big")
        header = plaintext[4 : 4 + header_len].decode()
        forged_header = header.replace('"sender_id": 0', '"sender_id": 5').encode()
        forged = (
            len(forged_header).to_bytes(4, "big")
            + forged_header
            + plaintext[4 + header_len :]
        )
        proxy = build_proxy(enclave, k=2)
        forged_message = EncryptedUpdate(
            ciphertext=encrypt(enclave.public_key, forged), transport_id=5
        )
        with pytest.raises(IntegrityError, match="nonce"):
            proxy.receive(forged_message)
        assert proxy.pending() == 0


class TestReplayRejection:
    def test_duplicate_ciphertext_raises_and_is_counted(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        updates = make_updates(small_model, 2)
        messages = [proxy.encrypt_for_proxy(u) for u in updates]
        for message in messages:
            proxy.receive(message)
        with pytest.raises(ReplayError, match="replay"):
            proxy.receive(messages[0])
        assert proxy.stats.replays_rejected == 1
        # the duplicate buffered nothing: still the two originals pending
        assert proxy.pending() == 2
        assert proxy.stats.received == 2

    def test_replay_rejection_frees_enclave_memory(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        update = make_updates(small_model, 1)[0]
        message = proxy.encrypt_for_proxy(update)
        proxy.receive(message)
        resident_before = enclave.memory.used_bytes
        with pytest.raises(ReplayError):
            proxy.receive(message)
        assert enclave.memory.used_bytes == resident_before

    def test_stream_skips_replays_and_keeps_going(self, small_model, enclave):
        proxy = build_proxy(enclave, k=2)
        updates = make_updates(small_model, 2)
        messages = [proxy.encrypt_for_proxy(u) for u in updates]
        # a replayed first message sits between two legitimate ones
        emitted = proxy.stream([messages[0], messages[0], messages[1]])
        emitted.extend(proxy.flush())
        assert proxy.stats.replays_rejected == 1
        assert len(emitted) == 2

    def test_same_sender_next_round_is_not_a_replay(self, small_model, enclave):
        proxy = build_proxy(enclave, k=1)
        first = make_updates(small_model, 1)[0]
        proxy.process_round([proxy.encrypt_for_proxy(first)])
        second = make_updates(small_model, 1, round_index=1)[0]
        proxy.process_round([proxy.encrypt_for_proxy(second)])
        assert proxy.stats.replays_rejected == 0
        assert proxy.stats.received == 2

    def test_crash_clears_the_nonce_cache(self, small_model, enclave):
        # failover retransmissions re-send the same (sender, round) envelopes;
        # a restarted proxy must accept them or the failover path starves
        proxy = build_proxy(enclave, k=2)
        update = make_updates(small_model, 1)[0]
        message = proxy.encrypt_for_proxy(update)
        proxy.receive(message)
        proxy.crash()
        proxy.receive(message)
        assert proxy.stats.replays_rejected == 0


class TestStreamRejection:
    """``stream`` skips a message ``receive`` would refuse and keeps going."""

    @staticmethod
    def reshaped(update):
        first = next(iter(update.state))
        update.state[first] = update.state[first].reshape(-1)
        return update

    def test_batch_survives_a_reshaped_update(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        good = make_updates(small_model, 4)
        batch = [good[0], self.reshaped(good[1]), good[2], good[3]]
        messages = [proxy.encrypt_for_proxy(u) for u in batch]
        resident_before = enclave.memory.used_bytes
        emitted = proxy.stream(messages)
        assert proxy.stats.received == 3
        assert proxy.stats.rejected == 1
        assert proxy.pending() == 3
        emitted.extend(proxy.flush())
        assert len(emitted) == 3
        assert enclave.memory.used_bytes == resident_before

    def test_tampered_body_is_skipped_and_counted(self, small_model, enclave):
        proxy = build_proxy(enclave, k=2)
        first, second, third = make_updates(small_model, 3)
        plaintext = bytearray(decrypt(enclave.keypair, proxy.encrypt_for_proxy(second).ciphertext))
        plaintext[-10] ^= 0x01
        tampered = EncryptedUpdate(
            ciphertext=encrypt(enclave.public_key, bytes(plaintext)), transport_id=1
        )
        resident_before = enclave.memory.used_bytes
        emitted = proxy.stream([proxy.encrypt_for_proxy(first), tampered, proxy.encrypt_for_proxy(third)])
        emitted.extend(proxy.flush())
        assert (proxy.stats.received, proxy.stats.rejected, len(emitted)) == (2, 1, 2)
        assert proxy.stats.replays_rejected == 0
        assert enclave.memory.used_bytes == resident_before

    def test_zip_body_under_a_valid_digest_is_rejected(self, small_model, enclave):
        # A body that is not RW01-framed (here a zip archive's magic) passes
        # the envelope digest and must still be a FrameError, so the batch
        # keeps streaming and every plaintext is freed.
        proxy = build_proxy(enclave, k=3)
        updates = make_updates(small_model, 4)
        body = b"PK\x03\x04" + bytes(64)
        forged = EncryptedUpdate(
            ciphertext=encrypt(enclave.public_key, _envelope(updates[1], body) + body),
            transport_id=updates[1].sender_id,
        )
        messages = [proxy.encrypt_for_proxy(u) for u in updates]
        messages[1] = forged
        resident_before = enclave.memory.used_bytes
        emitted = proxy.stream(messages)
        assert (proxy.stats.received, proxy.stats.rejected, proxy.pending()) == (3, 1, 3)
        emitted.extend(proxy.flush())
        assert sorted(m.apparent_id for m in emitted) == [0, 2, 3]
        assert enclave.memory.used_bytes == resident_before

    def test_receive_still_raises(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        good, other = make_updates(small_model, 2)
        proxy.receive(proxy.encrypt_for_proxy(good))
        with pytest.raises(KeyError, match="schema"):
            proxy.receive(proxy.encrypt_for_proxy(self.reshaped(other)))
        assert proxy.stats.rejected == 0
        assert proxy.pending() == 1


class TestChimeraProvenance:
    def test_chimeras_carry_unit_digests(self, small_model, enclave):
        proxy = build_proxy(enclave, k=3)
        updates = make_updates(small_model, 3)
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        digests = {
            u.metadata["digest"]: u.sender_id
            for u in (unpack_update(decrypt(enclave.keypair, proxy.encrypt_for_proxy(v).ciphertext)) for v in updates)
        }
        assert len(emitted) == 3
        for chimera in emitted:
            unit_digests = chimera.metadata["unit_digests"]
            assert len(unit_digests) == len(chimera.metadata["unit_sources"])
            for source, digest in zip(chimera.metadata["unit_sources"], unit_digests):
                # each layer's digest names the envelope of its true source
                assert digests[digest] == source
