"""Adversarial framing: RW01 and the transport envelope under truncation and
bit flips at every offset — every malformed frame dies with a typed
:class:`FrameError`, never a silent mis-parse, a numpy shape explosion, or a
hang.  Plus the mixnn-side fault machinery: per-item decrypt errors, proxy
crash accounting, and cascade failover.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.federated.faults import FaultConfig, FaultInjector, FaultLedger
from repro.federated.update import ModelUpdate
from repro.mixnn.crypto import CryptoError, decrypt
from repro.mixnn.enclave import UpdateDecryptError
from repro.mixnn.mixnet import MixCascade
from repro.mixnn.proxy import MixNNProxy
from repro.mixnn.transport import pack_update, unpack_update
from repro.nn.serialization import (
    FrameError,
    flat_from_bytes,
    state_from_bytes,
    state_to_bytes,
)
from repro.utils.rng import rng_from_seed

from ..conftest import make_updates

pytestmark = pytest.mark.faults


def tiny_state():
    return OrderedDict(
        [
            ("layer.weight", np.arange(6, dtype=np.float32).reshape(2, 3)),
            ("layer.bias", np.asarray([1.0, 2.0], dtype=np.float32)),
        ]
    )


def tiny_update():
    return ModelUpdate(sender_id=3, round_index=1, state=tiny_state(), num_samples=10)


def structure_of(state):
    return [(name, tuple(array.shape)) for name, array in state.items()]


class TestRW01Truncation:
    def test_every_strict_prefix_raises_a_typed_error(self):
        blob = state_to_bytes(tiny_state())
        for cut in range(len(blob)):
            with pytest.raises(FrameError):
                state_from_bytes(blob[:cut])
            with pytest.raises(FrameError):
                flat_from_bytes(blob[:cut])
        # sanity: the untruncated blob still parses
        assert structure_of(state_from_bytes(blob)) == structure_of(tiny_state())

    def test_trailing_garbage_is_rejected(self):
        blob = state_to_bytes(tiny_state())
        with pytest.raises(FrameError, match="payload"):
            state_from_bytes(blob + b"\x00")
        with pytest.raises(FrameError, match="payload"):
            flat_from_bytes(blob + b"\xff" * 7)

    def test_foreign_magic_is_rejected(self):
        with pytest.raises(FrameError, match="encoding"):
            state_from_bytes(b"RW99" + b"\x00" * 64)
        with pytest.raises(FrameError):
            state_from_bytes(b"")

    def test_header_length_overrun_is_rejected(self):
        blob = bytearray(state_to_bytes(tiny_state()))
        blob[4:8] = (2**31).to_bytes(4, "big")
        with pytest.raises(FrameError, match="header length"):
            state_from_bytes(bytes(blob))


class TestRW01BitFlips:
    def test_structural_bytes_never_mis_parse(self):
        """Flip every bit of the magic, length field, and header.

        Each mutation must either raise :class:`FrameError` or (a flip
        inside a JSON string literal that happens to stay valid, e.g. a
        renamed parameter) still parse to the original shapes — the declared
        payload geometry cannot silently change, because the total-size check
        would catch it.
        """
        reference = tiny_state()
        blob = state_to_bytes(reference)
        header_end = 8 + int.from_bytes(blob[4:8], "big")
        shapes = [tuple(a.shape) for a in reference.values()]
        for position in range(header_end):
            for bit in range(8):
                mutated = bytearray(blob)
                mutated[position] ^= 1 << bit
                try:
                    state = state_from_bytes(bytes(mutated))
                except FrameError:
                    continue
                assert [tuple(a.shape) for a in state.values()] == shapes

    def test_payload_flips_change_values_not_structure(self):
        reference = tiny_state()
        blob = bytearray(state_to_bytes(reference))
        header_end = 8 + int.from_bytes(blob[4:8], "big")
        blob[header_end] ^= 0x80
        state = state_from_bytes(bytes(blob))
        assert structure_of(state) == structure_of(reference)
        assert not np.array_equal(state["layer.weight"], reference["layer.weight"])


class TestEnvelopeFraming:
    def test_every_strict_prefix_raises_a_typed_error(self, keypair):
        packed = pack_update(tiny_update(), keypair.public)
        plaintext = decrypt(keypair, packed.ciphertext)
        for cut in range(len(plaintext)):
            with pytest.raises(FrameError):
                unpack_update(plaintext[:cut])
        restored = unpack_update(plaintext)
        assert restored.sender_id == 3
        assert restored.round_index == 1
        assert structure_of(restored.state) == structure_of(tiny_state())

    def test_envelope_bit_flips_never_mis_parse(self, keypair):
        packed = pack_update(tiny_update(), keypair.public)
        plaintext = decrypt(keypair, packed.ciphertext)
        envelope_end = 4 + int.from_bytes(plaintext[:4], "big")
        shapes = structure_of(tiny_state())
        for position in range(envelope_end):
            for bit in range(8):
                mutated = bytearray(plaintext)
                mutated[position] ^= 1 << bit
                try:
                    update = unpack_update(bytes(mutated))
                except FrameError:
                    continue
                assert structure_of(update.state) == shapes

    def test_ciphertext_tamper_is_a_crypto_error_not_a_frame_error(self, keypair):
        packed = pack_update(tiny_update(), keypair.public)
        tampered = bytearray(packed.ciphertext)
        tampered[len(tampered) // 2] ^= 1
        with pytest.raises(CryptoError):
            decrypt(keypair, bytes(tampered))

    def test_injector_corruptions_are_always_typed_errors(self, keypair):
        """The fault plane's own corruption model can never sneak a frame by.

        A bit flip inside a JSON string literal may survive as a renamed
        field (name integrity is the MAC's job, not the framing's), but the
        declared payload geometry can never silently change.
        """
        packed = pack_update(tiny_update(), keypair.public)
        plaintext = decrypt(keypair, packed.ciphertext)
        injector = FaultInjector(0, FaultConfig())
        shapes = [shape for _, shape in structure_of(tiny_state())]
        for entity in range(64):
            mangled = injector.corrupt_frame(plaintext, entity, 0)
            try:
                update = unpack_update(mangled)
            except FrameError:
                continue
            assert [tuple(a.shape) for a in update.state.values()] == shapes


class TestDecryptManyFaultSurface:
    def test_collect_mode_returns_errors_in_slot(self, enclave, keypair, small_model):
        updates = make_updates(small_model, 3)
        messages = [pack_update(u, keypair.public) for u in updates]
        bad = bytearray(messages[1].ciphertext)
        bad[-1] ^= 1
        ciphertexts = [messages[0].ciphertext, bytes(bad), messages[2].ciphertext]
        results = enclave.decrypt_many(
            ciphertexts, ids=[u.sender_id for u in updates], on_error="collect"
        )
        assert isinstance(results[1], UpdateDecryptError)
        assert results[1].item_id == updates[1].sender_id
        assert results[1].index == 1
        for good_slot in (0, 2):
            assert isinstance(results[good_slot], bytes)

    def test_raise_mode_names_the_offending_client(self, enclave, keypair, small_model):
        update = make_updates(small_model, 1)[0]
        bad = bytearray(pack_update(update, keypair.public).ciphertext)
        bad[0] ^= 1
        with pytest.raises(UpdateDecryptError, match=str(update.sender_id)):
            enclave.decrypt_many([bytes(bad)], ids=[update.sender_id])

    def test_receive_names_the_sender_of_a_bad_ciphertext(self, enclave, keypair, small_model):
        from dataclasses import replace

        update = make_updates(small_model, 2)[1]
        message = pack_update(update, keypair.public)
        bad = bytearray(message.ciphertext)
        bad[-1] ^= 1
        with pytest.raises(UpdateDecryptError) as caught:
            MixNNProxy(enclave=enclave, k=2, rng=rng_from_seed(0)).receive(
                replace(message, ciphertext=bytes(bad))
            )
        assert caught.value.item_id == update.sender_id != 0

    def test_invalid_on_error_mode(self, enclave):
        with pytest.raises(ValueError, match="on_error"):
            enclave.decrypt_many([], on_error="ignore")


class TestProxyCrash:
    def test_full_round_crash_leaves_every_sender_intact(self, small_model):
        updates = make_updates(small_model, 5)
        proxy = MixNNProxy(k=len(updates), rng=rng_from_seed(0))
        proxy.stream([proxy.encrypt_for_proxy(u) for u in updates])
        intact, partial = proxy.crash()
        assert intact == sorted(u.sender_id for u in updates)
        assert partial == []
        assert proxy.pending() == 0
        assert proxy.stats.crashes == 1

    def test_streaming_crash_splits_intact_and_partial(self, small_model):
        updates = make_updates(small_model, 6)
        proxy = MixNNProxy(k=2, rng=rng_from_seed(0))
        emitted = proxy.stream([proxy.encrypt_for_proxy(u) for u in updates])
        assert emitted  # k=2 forces emissions mid-stream
        intact, partial = proxy.crash()
        assert set(intact).isdisjoint(partial)
        # fully-emitted senders are neither: nothing of theirs is buffered
        assert len(intact) + len(partial) <= len(updates)

    def test_proxy_is_usable_after_a_crash(self, small_model):
        updates = make_updates(small_model, 4)
        proxy = MixNNProxy(k=4, rng=rng_from_seed(0))
        proxy.stream([proxy.encrypt_for_proxy(u) for u in updates[:2]])
        proxy.crash()
        emitted = proxy.process_round([proxy.encrypt_for_proxy(u) for u in updates])
        assert len(emitted) == len(updates)

    def test_poisoned_ciphertext_is_skipped_not_fatal(self, small_model):
        updates = make_updates(small_model, 3)
        proxy = MixNNProxy(k=3, rng=rng_from_seed(0))
        messages = [proxy.encrypt_for_proxy(u) for u in updates]
        from dataclasses import replace

        bad = bytearray(messages[0].ciphertext)
        bad[-1] ^= 1
        messages[0] = replace(messages[0], ciphertext=bytes(bad))
        emitted = proxy.process_round(messages)
        assert proxy.stats.decrypt_failures == 1
        assert len(emitted) == len(updates) - 1


class ScriptedInjector:
    """Duck-typed fault plane whose crash schedule is written by the test."""

    def __init__(self, crashes):
        self.crashes = set(crashes)  # {(hop, attempt), ...}
        self.ledger = FaultLedger()

    def mix_node_crash(self, hop, round_index, attempt):
        return (hop, attempt) in self.crashes

    def backoff(self, kind, entity, round_index, attempt):
        return 1.0


class TestCascadeFailover:
    def test_crash_free_delivery_matches_send_batch_semantics(self):
        cascade = MixCascade(num_mixes=3, batch_size=2, rng=rng_from_seed(0))
        payloads = [b"alpha", b"bravo", b"charlie"]
        injector = FaultInjector(0, FaultConfig())
        delivered = cascade.send_batch_with_failover(payloads, injector)
        assert sorted(delivered) == sorted(payloads)
        assert injector.ledger.entries == []

    def test_crashed_node_is_routed_around(self):
        cascade = MixCascade(num_mixes=3, batch_size=2, rng=rng_from_seed(0))
        payloads = [b"alpha", b"bravo"]
        faults = ScriptedInjector({(1, 0)})
        delivered = cascade.send_batch_with_failover(payloads, faults, round_index=2)
        assert sorted(delivered) == sorted(payloads)
        ledger = faults.ledger
        assert ledger.failed_over == 1
        assert ledger.entries[0].kind == "mixnode-crash"
        assert ledger.entries[0].round_index == 2
        assert ledger.retransmissions == len(payloads)
        ledger.validate()

    def test_every_node_crashing_is_fatal(self):
        cascade = MixCascade(num_mixes=2, batch_size=2, rng=rng_from_seed(0))
        faults = ScriptedInjector({(0, 0), (0, 1), (1, 0), (1, 1)})
        with pytest.raises(RuntimeError, match="no surviving"):
            cascade.send_batch_with_failover([b"x"], faults)
        # both crashes failed over before the route ran out
        assert faults.ledger.failed_over == 2
