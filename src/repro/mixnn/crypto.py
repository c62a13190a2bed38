"""Hybrid encryption for participant→enclave traffic.

Participants encrypt their parameter updates with the enclave's public key so
only the MixNN proxy can read them (§4.1/§4.3).  This module implements the
whole scheme from scratch on the standard library:

* **KEM** — textbook RSA (Miller–Rabin prime generation, ``e = 65537``) with
  random pre-key padding; the RSA-encrypted value is a fresh 256-bit session
  key per message;
* **DEM** — a SHA-256-based counter-mode stream cipher under the session key;
* **Integrity** — HMAC-SHA256 over nonce and ciphertext (encrypt-then-MAC).

The DEM hot path is vectorized: keystream blocks are generated in bulk (a
JIT-compiled fused keystream+XOR over OpenSSL when available, else batched
``hashlib`` midstate forks XORed via ``np.bitwise_xor``), producing bytes
identical to the original per-block reference implementation, which is kept
and cross-checked by :func:`selftest`.  Each side of the KEM is one call into
the same native helper, on a handle that holds the key's Montgomery contexts
and is built once per key: the client's public op is OpenSSL's variable
window over the public exponent, the enclave's private op the whole CRT with
both halves constant-time.  The factor-less key pair and the Miller–Rabin
witnesses go through :func:`_mod_exp` (OpenSSL's constant-time Montgomery
exponentiation).  Without the helper every one of them is Python's ``pow``,
which returns the same integers.

This is a *functional reproduction* of the pipeline (sizes, flow and failure
modes), adequate for the systems evaluation it supports.  It is **not**
audited, constant-time, production cryptography — a real deployment would use
RSA-OAEP/HPKE from a vetted library.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as hmac_mod
import secrets
from dataclasses import dataclass, field

import numpy as np

from ..utils import native

__all__ = [
    "KeyPair",
    "PublicKey",
    "encrypt",
    "decrypt",
    "stream_xor",
    "selftest",
    "CryptoError",
    "generate_keypair",
    "process_keypair",
]

_E = 65537
_SESSION_KEY_BYTES = 32
_NONCE_BYTES = 16


class CryptoError(Exception):
    """Raised on malformed or tampered ciphertexts."""


def _mod_exp(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` for an odd modulus.

    Runs on OpenSSL (releasing the GIL) when the native helper is built and
    falls back to Python's big-int ``pow`` otherwise.
    """
    if native.load() is not None:
        return native.mod_exp(base, exponent, modulus)
    return pow(base, exponent, modulus)


# ----------------------------------------------------------------------
# Prime generation (Miller–Rabin)
# ----------------------------------------------------------------------
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def _is_probable_prime(n: int, rounds: int = 40) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = _mod_exp(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int) -> int:
    while True:
        candidate = secrets.randbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate):
            return candidate


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int = _E

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> str:
        """Short identifier used in attestation reports."""
        digest = hashlib.sha256(self.n.to_bytes(self.modulus_bytes, "big")).hexdigest()
        return digest[:16]


@dataclass(frozen=True)
class KeyPair:
    """RSA key pair held by the enclave (private exponent never leaves it).

    ``p``/``q`` are optional: when the factorization is known the private
    operation uses the CRT, two half-size exponentiations.  With the native
    helper it is one call (:func:`repro.utils.native.rsa_private`) on
    Montgomery contexts of ``p`` and ``q`` cached per key: ~0.14 ms at 1024
    bits on a 2-vCPU Xeon VM, against ~0.165 ms for two ``mod_exp`` calls
    that each rebuild their context and ~1.4 ms on the Python ``pow``
    fallback.  A key pair built from ``(public, d)`` alone still decrypts
    via plain ``c^d mod n`` through :func:`_mod_exp` (~0.35 ms, ~4 ms on
    ``pow``).  The CRT exponents and coefficient are derived once, at
    construction, so they are in place before any decrypt thread can see
    the key pair; the native handle is cached by the key's integers, so the
    key pair stays a plain dataclass that pickles.
    """

    public: PublicKey
    d: int  # private exponent
    p: int | None = None
    q: int | None = None
    #: ``(d mod (p-1), d mod (q-1), q^-1 mod p)``, or ``None`` without factors
    _crt: tuple[int, int, int] | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if p is not None and q is not None:
            object.__setattr__(self, "_crt", (self.d % (p - 1), self.d % (q - 1), pow(q, -1, p)))

    @property
    def n(self) -> int:
        return self.public.n

    def private_op(self, c: int) -> int:
        """Compute ``c^d mod n``, via CRT when the factors are available."""
        if self._crt is None:
            return _mod_exp(c, self.d, self.n)
        p, q = self.p, self.q
        dp, dq, q_inv = self._crt
        if native.load() is not None:
            return native.rsa_private(c, self.n, self.public.e, p, q, dp, dq, q_inv)
        mp = pow(c, dp, p)
        mq = pow(c, dq, q)
        h = (q_inv * (mp - mq)) % p
        return mq + h * q


def process_keypair(bits: int = 1024) -> KeyPair:
    """A process-wide cached key pair for simulation components.

    Generating a 1024-bit key pair costs ~0.01 s of CPU on OpenSSL and
    ~0.1 s on the Python ``pow`` fallback (medians; single draws range over
    about 3x); experiment sweeps and test suites that build many enclaves
    share one key pair through this helper.  Anything
    modelling *distinct* enclaves should call :func:`generate_keypair`.
    """
    return _cached_keypair(bits)


@functools.lru_cache(maxsize=4)
def _cached_keypair(bits: int) -> KeyPair:
    return generate_keypair(bits)


def generate_keypair(bits: int = 1024) -> KeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus."""
    if bits < 512:
        raise ValueError(f"modulus must be at least 512 bits, got {bits}")
    half = bits // 2
    while True:
        p = _random_prime(half)
        q = _random_prime(bits - half)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % _E == 0:
            continue
        d = pow(_E, -1, phi)
        return KeyPair(public=PublicKey(n=n), d=d, p=p, q=q)


# ----------------------------------------------------------------------
# Stream cipher + MAC
# ----------------------------------------------------------------------
def _keystream_reference(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream — one block per ``hashlib`` call.

    The original (pre-vectorization) implementation, kept as the ground
    truth the fast paths are checked against (:func:`selftest`) and as the
    last-resort fallback.
    """
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.sha256(key + nonce + counter.to_bytes(8, "big")).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


def _xor_reference(data: bytes, stream: bytes) -> bytes:
    """Byte-by-byte XOR — the original generator implementation."""
    return bytes(a ^ b for a, b in zip(data, stream))


def _keystream_bulk(key: bytes, nonce: bytes, length: int) -> bytes:
    """Same keystream bytes as :func:`_keystream_reference`, generated in bulk.

    All counters are materialized as one big-endian ``uint64`` buffer up
    front, and each block hash reuses a copy of the midstate of
    ``SHA256(key || nonce)`` instead of re-feeding the 48-byte prefix.
    """
    if length <= 0:
        return b""
    nblocks = -(-length // 32)
    counters = np.arange(nblocks, dtype=">u8").tobytes()
    fork = hashlib.sha256(key + nonce).copy
    pieces = []
    append = pieces.append
    for offset in range(0, nblocks * 8, 8):
        block = fork()
        block.update(counters[offset : offset + 8])
        append(block.digest())
    return b"".join(pieces)[:length]


def _xor_bulk(data: bytes, stream: bytes) -> bytes:
    """Vectorized XOR over ``uint8`` views of both buffers."""
    out = np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(stream, dtype=np.uint8)
    )
    return out.tobytes()


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` with the SHA-256 CTR keystream (involution).

    Produces bytes identical to ``_xor_reference(data, _keystream_reference(...))``
    — the wire format is unchanged — but via the fused native keystream+XOR
    when available, else the bulk hashlib + ``np.bitwise_xor`` path.
    """
    if not data:
        return b""
    if native.load() is not None:
        return native.ctr_sha256_xor(key + nonce, data)
    return _xor_bulk(data, _keystream_bulk(key, nonce, len(data)))


def _selftest_int(label: bytes, bits: int) -> int:
    """A deterministic ``bits``-bit integer drawn from ``label``."""
    return int.from_bytes(hashlib.shake_256(label).digest((bits + 7) // 8), "big") >> (-bits % 8)


#: Mersenne-prime factors of the selftest's RSA keys: ``p < q``, ``p > q``
#: and a ``q`` ten times ``p``'s size, so the CRT recombination sees each
_SELFTEST_FACTORS = (
    (2**521 - 1, 2**607 - 1),
    (2**607 - 1, 2**521 - 1),
    (2**127 - 1, 2**1279 - 1),
)


def selftest() -> bool:
    """Cross-check every native path against its reference implementation.

    The keystream/XOR paths are exercised at module scale (empty, sub-block,
    block-aligned and multi-block lengths); the native ``mod_exp`` against
    ``pow`` from a 1-bit to a 2048-bit modulus, with a base above the
    modulus and exponents from 0 up to the modulus size; and the native RSA
    public and CRT private ops against ``pow`` on three keys, at 0, 1,
    ``n - 1``, ``n + 1``, a random value and a value twice the modulus'
    length.  Raises :class:`CryptoError` on any divergence.
    """
    for length in (0, 1, 31, 32, 33, 64, 100, 1023, 4096):
        key = hashlib.sha256(b"selftest-key%d" % length).digest()
        nonce = hashlib.sha256(b"selftest-nonce%d" % length).digest()[:_NONCE_BYTES]
        data = (hashlib.sha256(b"selftest-data%d" % length).digest() * (length // 32 + 1))[:length]
        expected = _xor_reference(data, _keystream_reference(key, nonce, length))
        if stream_xor(key, nonce, data) != expected:
            raise CryptoError(f"stream_xor diverges from reference at length {length}")
        if _xor_bulk(data, _keystream_bulk(key, nonce, length)) != expected and length > 0:
            raise CryptoError(f"bulk path diverges from reference at length {length}")
        if native.available() and length > 0:
            if native.ctr_sha256_xor(key + nonce, data) != expected:
                raise CryptoError(f"native path diverges from reference at length {length}")
    if native.available():
        for bits in (1, 17, 512, 1024, 2048):
            modulus = _selftest_int(b"selftest-modulus%d" % bits, bits) | 1
            base = _selftest_int(b"selftest-base%d" % bits, bits + 8)
            for exponent in (0, 1, _E, _selftest_int(b"selftest-exponent%d" % bits, bits)):
                if native.mod_exp(base, exponent, modulus) != pow(base, exponent, modulus):
                    raise CryptoError(f"native mod_exp diverges from pow at {bits} bits")
        for p, q in _SELFTEST_FACTORS:
            n = p * q
            d = pow(_E, -1, (p - 1) * (q - 1))
            crt = (d % (p - 1), d % (q - 1), pow(q, -1, p))
            label = b"selftest-rsa%d-%d" % (p.bit_length(), q.bit_length())
            random = _selftest_int(label, n.bit_length() - 1)
            long_field = _selftest_int(label + b"-long", 2 * n.bit_length())
            for value in (0, 1, n - 1, n + 1, random, long_field):
                if native.rsa_public(value, n, _E) != pow(value, _E, n):
                    raise CryptoError(f"native RSA public op diverges from pow at {n.bit_length()} bits")
                if native.rsa_private(value, n, _E, p, q, *crt) != pow(value, d, n):
                    raise CryptoError(f"native RSA private op diverges from pow at {n.bit_length()} bits")
    return True


def _mac(key: bytes, nonce: bytes, body: bytes) -> bytes:
    return hmac_mod.digest(key, nonce + body, "sha256")


# ----------------------------------------------------------------------
# Hybrid encrypt / decrypt
# ----------------------------------------------------------------------
def encrypt(public: PublicKey, plaintext: bytes) -> bytes:
    """Encrypt ``plaintext`` to the enclave's public key.

    Wire format: ``len(kem) || kem || nonce || mac || body``.
    """
    session_key = secrets.token_bytes(_SESSION_KEY_BYTES)
    # Random pre-key padding so identical session keys never repeat as ints.
    padding = secrets.token_bytes(public.modulus_bytes - _SESSION_KEY_BYTES - 3)
    padded = b"\x00\x02" + padding + b"\x00" + session_key
    m = int.from_bytes(padded, "big")
    if m >= public.n:
        raise CryptoError("padded key does not fit the modulus")
    if native.load() is not None:
        c = native.rsa_public(m, public.n, public.e)
    else:
        c = pow(m, public.e, public.n)
    kem = c.to_bytes(public.modulus_bytes, "big")
    nonce = secrets.token_bytes(_NONCE_BYTES)
    enc_key = hashlib.sha256(session_key + b"enc").digest()
    mac_key = hashlib.sha256(session_key + b"mac").digest()
    body = stream_xor(enc_key, nonce, plaintext)
    mac = _mac(mac_key, nonce, body)
    return len(kem).to_bytes(2, "big") + kem + nonce + mac + body


def decrypt(keypair: KeyPair, ciphertext: bytes) -> bytes:
    """Decrypt a message produced by :func:`encrypt`; raises on tampering."""
    try:
        kem_len = int.from_bytes(ciphertext[:2], "big")
        kem = ciphertext[2 : 2 + kem_len]
        offset = 2 + kem_len
        nonce = ciphertext[offset : offset + _NONCE_BYTES]
        mac = ciphertext[offset + _NONCE_BYTES : offset + _NONCE_BYTES + 32]
        body = ciphertext[offset + _NONCE_BYTES + 32 :]
        if len(kem) != kem_len or len(nonce) != _NONCE_BYTES or len(mac) != 32:
            raise CryptoError("truncated ciphertext")
    except (IndexError, OverflowError) as exc:
        raise CryptoError("malformed ciphertext") from exc
    padded = keypair.private_op(int.from_bytes(kem, "big"))
    raw = padded.to_bytes(keypair.public.modulus_bytes, "big")
    if raw[:2] != b"\x00\x02":
        raise CryptoError("KEM padding check failed")
    session_key = raw[-_SESSION_KEY_BYTES:]
    enc_key = hashlib.sha256(session_key + b"enc").digest()
    mac_key = hashlib.sha256(session_key + b"mac").digest()
    expected = _mac(mac_key, nonce, body)
    if not hmac_mod.compare_digest(mac, expected):
        raise CryptoError("MAC verification failed (tampered message)")
    return stream_xor(enc_key, nonce, body)
