"""SGX enclave simulator: attestation, sealing, memory, cost model."""

import numpy as np
import pytest

from repro.mixnn.crypto import encrypt
from repro.mixnn.enclave import (
    EPC_RESERVED_BYTES,
    EPC_USABLE_BYTES,
    EnclaveCostModel,
    EnclaveError,
    SGXEnclaveSim,
)


class TestAttestation:
    def test_quote_verifies_for_correct_identity(self, enclave):
        quote = enclave.quote(b"nonce-1")
        assert enclave.verify_quote(quote, "mixnn-proxy-v1")

    def test_quote_fails_for_wrong_identity(self, enclave):
        quote = enclave.quote(b"nonce-2")
        assert not enclave.verify_quote(quote, "evil-proxy")

    def test_forged_signature_rejected(self, enclave):
        quote = enclave.quote(b"nonce-3")
        forged = type(quote)(
            measurement=quote.measurement,
            public_key_fingerprint=quote.public_key_fingerprint,
            nonce=quote.nonce,
            signature=b"\x00" * 32,
        )
        assert not enclave.verify_quote(forged, "mixnn-proxy-v1")

    def test_quote_binds_public_key(self, enclave):
        quote = enclave.quote(b"nonce-4")
        assert quote.public_key_fingerprint == enclave.public_key.fingerprint()

    def test_attestation_charges_time(self, enclave):
        before = enclave.clock_seconds
        enclave.quote(b"n")
        assert enclave.clock_seconds > before


class TestSealing:
    def test_round_trip(self, enclave):
        blob = enclave.seal(b"model weights outside EPC")
        assert enclave.unseal(blob) == b"model weights outside EPC"

    def test_sealed_blob_is_not_plaintext(self, enclave):
        blob = enclave.seal(b"supersecret")
        assert b"supersecret" not in blob

    def test_tampered_blob_rejected(self, enclave):
        blob = bytearray(enclave.seal(b"data"))
        blob[-1] ^= 0x01
        with pytest.raises(EnclaveError):
            enclave.unseal(bytes(blob))

    def test_sealing_is_per_platform(self, keypair):
        a = SGXEnclaveSim(keypair=keypair)
        b = SGXEnclaveSim(keypair=keypair)
        with pytest.raises(EnclaveError):
            b.unseal(a.seal(b"bound to platform A"))


class TestMemoryAccounting:
    def test_epc_constants_match_paper(self):
        assert EPC_RESERVED_BYTES == 128 * 2**20
        assert EPC_USABLE_BYTES == 96 * 2**20

    def test_allocate_free_cycle(self, enclave):
        enclave.allocate(1000)
        assert enclave.memory.used_bytes == 1000
        enclave.free(400)
        assert enclave.memory.used_bytes == 600
        assert enclave.memory.peak_bytes == 1000

    def test_free_clamps_at_zero(self, enclave):
        enclave.allocate(10)
        enclave.free(100)
        assert enclave.memory.used_bytes == 0

    def test_overflow_triggers_paging(self, keypair):
        enclave = SGXEnclaveSim(keypair=keypair, epc_budget_bytes=1000)
        before = enclave.clock_seconds
        enclave.allocate(2000)
        assert enclave.memory.page_faults == 1
        assert enclave.memory.sealed_out_bytes == 1000
        assert enclave.clock_seconds > before

    def test_negative_sizes_rejected(self, enclave):
        with pytest.raises(ValueError):
            enclave.allocate(-1)
        with pytest.raises(ValueError):
            enclave.free(-1)

    def test_stats_snapshot(self, enclave):
        enclave.allocate(123)
        stats = enclave.stats()
        assert stats["used_bytes"] == 123
        assert set(stats) == {"clock_seconds", "used_bytes", "peak_bytes", "page_faults", "sealed_out_bytes"}


class TestCostModel:
    def test_paper_calibration_two_conv(self):
        model = EnclaveCostModel()
        nbytes = int(26.9 * 2**20)
        assert model.decrypt_cost(nbytes) == pytest.approx(0.17, abs=0.01)
        assert model.store_cost(nbytes) == pytest.approx(0.02, abs=0.005)

    def test_paper_calibration_three_conv(self):
        model = EnclaveCostModel()
        nbytes = int(51.3 * 2**20)
        total = model.decrypt_cost(nbytes) + model.store_cost(nbytes)
        assert total == pytest.approx(0.22, abs=0.01)

    def test_cost_grows_with_size(self):
        model = EnclaveCostModel()
        assert model.decrypt_cost(10 * 2**20) < model.decrypt_cost(100 * 2**20)

    def test_mixing_cost_constant_per_update(self):
        assert EnclaveCostModel().mix_seconds_per_update == pytest.approx(0.03)


class TestDecryptUpdate:
    def test_decrypts_and_charges(self, enclave):
        blob = encrypt(enclave.public_key, b"payload-bytes")
        before = enclave.clock_seconds
        assert enclave.decrypt_update(blob) == b"payload-bytes"
        assert enclave.clock_seconds > before
        assert enclave.memory.used_bytes == len(b"payload-bytes")

    def test_constant_time_pads_to_worst_case(self, keypair):
        enclave = SGXEnclaveSim(keypair=keypair, constant_time=True)
        big = encrypt(enclave.public_key, b"x" * 50_000)
        small = encrypt(enclave.public_key, b"y" * 10)
        enclave.decrypt_update(big)
        t_after_big = enclave.clock_seconds
        enclave.decrypt_update(small)
        cost_small = enclave.clock_seconds - t_after_big
        assert cost_small == pytest.approx(t_after_big, rel=0.05)

    def test_variable_time_mode_charges_actuals(self, keypair):
        enclave = SGXEnclaveSim(keypair=keypair, constant_time=False)
        big = encrypt(enclave.public_key, b"x" * 500_000)
        small = encrypt(enclave.public_key, b"y" * 10)
        enclave.decrypt_update(big)
        t_big = enclave.clock_seconds
        enclave.decrypt_update(small)
        assert enclave.clock_seconds - t_big < t_big

    def test_failed_decrypt_still_charges(self, enclave):
        from repro.mixnn.crypto import CryptoError

        blob = bytearray(encrypt(enclave.public_key, b"data"))
        blob[-1] ^= 1
        before = enclave.clock_seconds
        with pytest.raises(CryptoError):
            enclave.decrypt_update(bytes(blob))
        assert enclave.clock_seconds > before

    @pytest.mark.parametrize("constant_time", [True, False], ids=["constant-time", "variable-time"])
    def test_one_by_one_and_batch_charge_alike(self, keypair, constant_time):
        """``decrypt_update`` per item and one collecting ``decrypt_many`` run
        the same accounting: equal clock, used and peak bytes."""
        from repro.mixnn.crypto import CryptoError

        sizes = (900, 30_000, 10, 4_000)
        ciphertexts = [encrypt(keypair.public, bytes([i]) * n) for i, n in enumerate(sizes)]
        for index in (1, 2):
            tampered = bytearray(ciphertexts[index])
            tampered[-1] ^= 1
            ciphertexts[index] = bytes(tampered)
        one_by_one = SGXEnclaveSim(keypair=keypair, constant_time=constant_time)
        for ciphertext in ciphertexts:
            try:
                one_by_one.decrypt_update(ciphertext)
            except CryptoError:
                pass
        batch = SGXEnclaveSim(keypair=keypair, constant_time=constant_time)
        results = batch.decrypt_many(ciphertexts, on_error="collect")
        assert [isinstance(r, CryptoError) for r in results] == [False, True, True, False]
        assert one_by_one.stats() == batch.stats()
        assert batch.stats()["used_bytes"] == sizes[0] + sizes[3]
