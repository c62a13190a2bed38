"""Hybrid encryption: round trips, tampering, key handling, fast-path equivalence."""

import dataclasses

import numpy as np
import pytest

from repro.mixnn.crypto import (
    CryptoError,
    KeyPair,
    decrypt,
    encrypt,
    generate_keypair,
    process_keypair,
    selftest,
    stream_xor,
    _is_probable_prime,
    _keystream_bulk,
    _keystream_reference,
    _random_prime,
    _xor_bulk,
    _xor_reference,
    _NONCE_BYTES,
)
from repro.utils import native


@pytest.fixture(scope="module")
def kp():
    return process_keypair()


def _native_must_not_run(*args, **kwargs):
    raise AssertionError("native helper called on the pure-Python path")


def _force_fallback(patch) -> None:
    """Run on the pure-Python paths, as without cffi, a compiler or OpenSSL."""
    patch.setattr(native, "load", lambda: None)
    for name in ("mod_exp", "rsa_public", "rsa_private", "ctr_sha256_xor"):
        patch.setattr(native, name, _native_must_not_run)


@pytest.fixture()
def no_native(monkeypatch):
    _force_fallback(monkeypatch)


needs_native = pytest.mark.skipif(not native.available(), reason="native helper unavailable")


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 5, 7, 97, 65537, 2**127 - 1):
            assert _is_probable_prime(p)

    def test_known_composites(self):
        for c in (1, 4, 100, 65537 * 3, 561, 2**128):
            assert not _is_probable_prime(c)

    def test_random_prime_has_requested_size(self):
        p = _random_prime(128)
        assert p.bit_length() == 128
        assert _is_probable_prime(p)


class TestKeyGeneration:
    def test_modulus_size(self, kp):
        assert kp.public.n.bit_length() >= 1023

    def test_rsa_identity(self, kp):
        message = 123456789
        assert pow(pow(message, kp.public.e, kp.n), kp.d, kp.n) == message

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=128)

    def test_process_keypair_cached(self):
        assert process_keypair() is process_keypair()

    def test_fingerprint_stable_and_short(self, kp):
        assert kp.public.fingerprint() == kp.public.fingerprint()
        assert len(kp.public.fingerprint()) == 16


class TestRoundTrip:
    def test_empty_message(self, kp):
        assert decrypt(kp, encrypt(kp.public, b"")) == b""

    def test_short_message(self, kp):
        assert decrypt(kp, encrypt(kp.public, b"hello enclave")) == b"hello enclave"

    def test_large_binary_message(self, kp):
        payload = np.random.default_rng(0).integers(0, 256, 100_000, dtype=np.uint8).tobytes()
        assert decrypt(kp, encrypt(kp.public, payload)) == payload

    def test_ciphertexts_are_randomized(self, kp):
        assert encrypt(kp.public, b"same") != encrypt(kp.public, b"same")

    def test_ciphertext_larger_than_plaintext(self, kp):
        blob = encrypt(kp.public, b"x" * 100)
        assert len(blob) > 100 + kp.public.modulus_bytes


class TestLargePayloads:
    def test_one_megabyte_roundtrip(self, kp):
        payload = np.random.default_rng(1).integers(0, 256, 1024 * 1024, dtype=np.uint8).tobytes()
        assert decrypt(kp, encrypt(kp.public, payload)) == payload

    def test_unaligned_large_roundtrip(self, kp):
        # Not a multiple of the 32-byte keystream block.
        payload = b"\xab" * (1024 * 1024 + 17)
        assert decrypt(kp, encrypt(kp.public, payload)) == payload


class TestKeystreamEquivalence:
    """The vectorized DEM must produce the reference implementation's bytes."""

    def test_selftest_passes(self):
        assert selftest()

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 64, 1000, 65_537])
    def test_bulk_keystream_matches_reference(self, length):
        key, nonce = b"\x01" * 32, b"\x02" * _NONCE_BYTES
        assert _keystream_bulk(key, nonce, length) == _keystream_reference(key, nonce, length)

    @pytest.mark.parametrize("length", [1, 33, 1000, 65_537])
    def test_stream_xor_matches_reference(self, length):
        key, nonce = b"\x03" * 32, b"\x04" * _NONCE_BYTES
        data = (b"payload!" * (length // 8 + 1))[:length]
        expected = _xor_reference(data, _keystream_reference(key, nonce, length))
        assert stream_xor(key, nonce, data) == expected

    def test_stream_xor_is_an_involution(self):
        key, nonce = b"\x05" * 32, b"\x06" * _NONCE_BYTES
        data = b"round and round" * 1000
        assert stream_xor(key, nonce, stream_xor(key, nonce, data)) == data

    def test_xor_bulk_matches_reference(self):
        data, stream = b"\x00\xff\x55" * 100, b"\xaa" * 300
        assert _xor_bulk(data, stream) == _xor_reference(data, stream)

    @pytest.mark.parametrize("prefix_len", [48, 248, 249, 320])
    def test_stream_xor_matches_reference_at_any_prefix_length(self, prefix_len):
        # key || nonce is the keystream prefix; 48 bytes is the DEM's own.
        key = (bytes(range(256)) * 2)[: prefix_len - _NONCE_BYTES]
        nonce = b"\x09" * _NONCE_BYTES
        data = b"long prefix " * 20
        expected = _xor_reference(data, _keystream_reference(key, nonce, len(data)))
        assert stream_xor(key, nonce, data) == expected

    @needs_native
    def test_native_path_matches_reference(self):
        key, nonce = b"\x07" * 32, b"\x08" * _NONCE_BYTES
        data = b"\x42" * 100_003
        expected = _xor_reference(data, _keystream_reference(key, nonce, len(data)))
        assert native.ctr_sha256_xor(key + nonce, data) == expected


class TestCRTDecryption:
    def test_private_op_matches_plain_pow(self, kp):
        message = 987654321123456789
        c = pow(message, kp.public.e, kp.n)
        assert kp.private_op(c) == pow(c, kp.d, kp.n) == message

    def test_keypair_without_factors_still_decrypts(self, kp):
        stripped = KeyPair(public=kp.public, d=kp.d)
        blob = encrypt(kp.public, b"no CRT hint available")
        assert decrypt(stripped, blob) == b"no CRT hint available"

    def test_generated_keypairs_carry_factors(self, kp):
        assert kp.p is not None and kp.q is not None
        assert kp.p * kp.q == kp.n

    def test_crt_parameters_derived_once_at_construction(self, kp):
        assert kp._crt == (kp.d % (kp.p - 1), kp.d % (kp.q - 1), pow(kp.q, -1, kp.p))
        assert KeyPair(public=kp.public, d=kp.d)._crt is None
        # Derived, so neither shown nor compared, and rebuilt on replace.
        assert "_crt" not in repr(kp)
        assert dataclasses.replace(kp) == kp
        assert dataclasses.replace(kp)._crt == kp._crt

    @needs_native
    def test_kem_runs_on_native_rsa(self, kp, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(native, name)

            def op(value, n, *key):
                calls.append((name, n))
                return real(value, n, *key)

            return op

        for name in ("rsa_public", "rsa_private"):
            monkeypatch.setattr(native, name, counting(name))
        monkeypatch.setattr(native, "mod_exp", _native_must_not_run)
        blob = encrypt(kp.public, b"kem on OpenSSL")
        # One public op under n per encrypt, one CRT private op per decrypt.
        assert calls == [("rsa_public", kp.n)]
        assert decrypt(kp, blob) == b"kem on OpenSSL"
        assert calls == [("rsa_public", kp.n), ("rsa_private", kp.n)]


class TestPurePythonFallback:
    """Without the native helper every path falls back to ``pow`` and hashlib."""

    def test_round_trip(self, kp, no_native):
        payload = np.random.default_rng(2).integers(0, 256, 10_001, dtype=np.uint8).tobytes()
        assert decrypt(kp, encrypt(kp.public, payload)) == payload

    @needs_native
    def test_native_ciphertext_decrypts_on_fallback(self, kp, monkeypatch):
        blob = encrypt(kp.public, b"made with OpenSSL")
        with monkeypatch.context() as patch:
            _force_fallback(patch)
            assert decrypt(kp, blob) == b"made with OpenSSL"

    @needs_native
    def test_fallback_ciphertext_decrypts_on_native(self, kp, monkeypatch):
        with monkeypatch.context() as patch:
            _force_fallback(patch)
            blob = encrypt(kp.public, b"made with pow")
        assert decrypt(kp, blob) == b"made with pow"

    def test_private_op_matches_plain_pow(self, kp, no_native):
        message = 24681357913579
        c = pow(message, kp.public.e, kp.n)
        assert kp.private_op(c) == pow(c, kp.d, kp.n) == message
        assert KeyPair(public=kp.public, d=kp.d).private_op(c) == message

    def test_miller_rabin(self, no_native):
        assert not _is_probable_prime(561)
        assert _is_probable_prime(2**127 - 1)

    def test_keygen(self, no_native):
        fresh = generate_keypair(bits=512)
        assert fresh.p * fresh.q == fresh.n
        assert decrypt(fresh, encrypt(fresh.public, b"pow only")) == b"pow only"


class TestTampering:
    def test_body_flip_detected(self, kp):
        blob = bytearray(encrypt(kp.public, b"secret payload"))
        blob[-1] ^= 0x01
        with pytest.raises(CryptoError, match="MAC"):
            decrypt(kp, bytes(blob))

    def test_nonce_flip_detected(self, kp):
        blob = bytearray(encrypt(kp.public, b"secret payload"))
        nonce_offset = 2 + kp.public.modulus_bytes
        blob[nonce_offset] ^= 0x01
        with pytest.raises(CryptoError, match="MAC"):
            decrypt(kp, bytes(blob))

    def test_mac_flip_detected(self, kp):
        blob = bytearray(encrypt(kp.public, b"secret payload"))
        mac_offset = 2 + kp.public.modulus_bytes + _NONCE_BYTES
        blob[mac_offset] ^= 0x01
        with pytest.raises(CryptoError, match="MAC"):
            decrypt(kp, bytes(blob))

    def test_large_payload_tamper_detected(self, kp):
        blob = bytearray(encrypt(kp.public, b"\x00" * (1024 * 1024)))
        blob[len(blob) // 2] ^= 0x80
        with pytest.raises(CryptoError, match="MAC"):
            decrypt(kp, bytes(blob))

    def test_kem_flip_detected(self, kp):
        blob = bytearray(encrypt(kp.public, b"secret payload"))
        blob[10] ^= 0x01
        with pytest.raises(CryptoError):
            decrypt(kp, bytes(blob))

    def test_truncation_detected(self, kp):
        blob = encrypt(kp.public, b"secret payload")
        with pytest.raises(CryptoError):
            decrypt(kp, blob[: len(blob) // 2])

    def test_garbage_rejected(self, kp):
        with pytest.raises(CryptoError):
            decrypt(kp, b"\x00\x01garbage")

    def test_wrong_key_rejected(self, kp):
        other = generate_keypair(bits=512)
        blob = encrypt(kp.public, b"for the enclave only")
        with pytest.raises(CryptoError):
            decrypt(other, blob)
