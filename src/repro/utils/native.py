"""Optional native acceleration: the MixNN hybrid cipher and seeded generators.

The MixNN DEM (:mod:`repro.mixnn.crypto`) XORs payloads with a keystream of
``SHA256(key || nonce || counter)`` blocks.  Generating that keystream one
``hashlib`` call at a time costs ~35 ms/MB of Python dispatch; the hashing
itself is ~5 ms/MB of native work.  Its RSA-KEM spends ~1.4 ms of Python
big-int ``pow`` on the two 512-bit CRT halves of a 1024-bit private
operation; OpenSSL does the whole CRT in ~0.14 ms on Montgomery contexts
built once per key, and the client's public op in ~0.015 ms.  And every
per-``(seed, client, round)`` draw of :mod:`repro.utils.rng` builds a fresh
``np.random.default_rng(seed)``, ~13 µs of it numpy's ``SeedSequence``
hashing four 32-bit words in Python-level loops.  This module JIT-compiles
(via ``cffi`` against OpenSSL's ``libcrypto``) one small extension with:

* a fused keystream+XOR (:func:`ctr_sha256_xor`);
* a constant-time modular exponentiation (:func:`mod_exp`), for Miller–Rabin
  and the factor-less private op;
* a per-key RSA handle with two entry points: the public op
  (:func:`rsa_public`, a variable window over the public exponent only) and
  the CRT private op (:func:`rsa_private`, both halves constant-time and the
  recombination in C, in one call);
* numpy's ``SeedSequence`` hash of a one-word seed (:func:`seed_words`) and
  the first PCG64 uniform drawn from that hash (:func:`seeded_uniform`).

It caches the built extension on disk keyed by a hash of its source, so
compilation happens once per machine for all of them.  Every call releases
the GIL.

Everything degrades gracefully: if ``cffi``, a C compiler, or ``libcrypto``
is unavailable (or ``REPRO_NO_NATIVE=1`` is set) :func:`load` returns ``None``
and callers fall back to the pure-Python bulk keystream, to ``pow`` and to
``np.random.default_rng``.  Correctness of the crypto paths against the
reference implementations is checked by ``repro.mixnn.crypto.selftest()``;
the seeding functions are held to numpy by the ``oracles`` tests.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile
import threading
import warnings

import numpy as np

__all__ = [
    "load",
    "ctr_sha256_xor",
    "mod_exp",
    "rsa_public",
    "rsa_private",
    "seed_words",
    "seeded_uniform",
    "available",
]

_MODULE_NAME = "_repro_ctr_native"

_CDEF = (
    "void ctr_sha256_xor(const unsigned char *prefix, size_t prefix_len, "
    "unsigned long long start, const unsigned char *data, size_t len, "
    "unsigned char *out);"
    "int mod_exp(const unsigned char *base, size_t base_len, "
    "const unsigned char *exponent, size_t exponent_len, "
    "const unsigned char *modulus, size_t modulus_len, unsigned char *out);"
    "void seed_words(uint32_t seed, uint64_t *out);"
    "double seeded_uniform(uint32_t seed);"
    "typedef struct rsa_key rsa_key;"
    "rsa_key *rsa_key_new(const unsigned char *numbers, int count, size_t width);"
    "void rsa_key_free(rsa_key *key);"
    "int rsa_public(const rsa_key *key, const unsigned char *m, size_t m_len, unsigned char *out);"
    "int rsa_private(const rsa_key *key, const unsigned char *c, size_t c_len, unsigned char *out);"
)

_SOURCE = r"""
#include <openssl/bn.h>
#include <openssl/err.h>
#include <openssl/sha.h>

/* XOR `data` with the keystream SHA256(prefix || be64(start + i)) for
 * consecutive 32-byte blocks i.  The prefix is absorbed once and its hash
 * state copied for every block, so any prefix length works.  Uses the legacy
 * SHA256_* API: unlike the one-shot SHA256()/EVP path it performs no
 * per-call algorithm fetch, which dominates at 56-byte messages. */
void ctr_sha256_xor(const unsigned char *prefix, size_t prefix_len,
                    unsigned long long start, const unsigned char *data,
                    size_t len, unsigned char *out) {
    unsigned char counter[8];
    unsigned char block[SHA256_DIGEST_LENGTH];
    SHA256_CTX midstate, ctx;
    size_t nblocks = (len + 31) / 32;
    SHA256_Init(&midstate);
    SHA256_Update(&midstate, prefix, prefix_len);
    for (size_t i = 0; i < nblocks; i++) {
        unsigned long long c = start + i;
        for (int j = 0; j < 8; j++)
            counter[j] = (unsigned char)(c >> (56 - 8 * j));
        ctx = midstate;
        SHA256_Update(&ctx, counter, 8);
        SHA256_Final(block, &ctx);
        size_t off = 32 * i;
        size_t n = (len - off < 32) ? (len - off) : 32;
        for (size_t j = 0; j < n; j++)
            out[off + j] = data[off + j] ^ block[j];
    }
}

/* out = base^exponent mod modulus over big-endian magnitudes, written as
 * exactly modulus_len bytes.  The caller guarantees an odd modulus and
 * base < modulus.  Returns 1 on success, 0 on failure. */
int mod_exp(const unsigned char *base, size_t base_len,
            const unsigned char *exponent, size_t exponent_len,
            const unsigned char *modulus, size_t modulus_len,
            unsigned char *out) {
    int ok = 0;
    BN_CTX *ctx = BN_CTX_new();
    BIGNUM *b = BN_bin2bn(base, (int)base_len, NULL);
    BIGNUM *e = BN_bin2bn(exponent, (int)exponent_len, NULL);
    BIGNUM *m = BN_bin2bn(modulus, (int)modulus_len, NULL);
    BIGNUM *r = BN_new();
    if (ctx && b && e && m && r
        && BN_mod_exp_mont_consttime(r, b, e, m, ctx, NULL)
        && BN_bn2binpad(r, out, (int)modulus_len) == (int)modulus_len)
        ok = 1;
    else
        ERR_clear_error();
    BN_free(r);
    BN_free(m);
    BN_clear_free(e);
    BN_clear_free(b);
    BN_CTX_free(ctx);
    return ok;
}

/* numpy's SeedSequence(seed).generate_state(4, np.uint64) for one 32-bit
 * entropy word: hash [seed, 0, 0, 0] into the pool, mix every pool word into
 * every other, then draw eight 32-bit output words, low word first. */
static uint32_t hashmix(uint32_t value, uint32_t *hash_const) {
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ (value >> 16);
}

void seed_words(uint32_t seed, uint64_t *out) {
    uint32_t pool[4], half[8], hash_const = 0x43b0d7e5u, out_const = 0x8b51f9ddu;
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i == 0 ? seed : 0, &hash_const);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst) {
                uint32_t mixed = 0xca01f9ddu * pool[dst] - 0x4973f715u * hashmix(pool[src], &hash_const);
                pool[dst] = mixed ^ (mixed >> 16);
            }
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ out_const;
        out_const *= 0x58f38dedu;
        value *= out_const;
        half[i] = value ^ (value >> 16);
    }
    for (int i = 0; i < 4; i++)
        out[i] = (uint64_t)half[2 * i] | (uint64_t)half[2 * i + 1] << 32;
}

/* The first Generator.random() of np.random.default_rng(seed): PCG64 seeded
 * with state = words[0:2] and increment = words[2:4] (high word first), one
 * 128-bit LCG step, the XSL-RR output, and its top 53 bits times 2^-53. */
double seeded_uniform(uint32_t seed) {
    const __uint128_t mult = ((__uint128_t)2549297995355413924ULL << 64) | 4865540595714422341ULL;
    uint64_t words[4];
    seed_words(seed, words);
    __uint128_t inc = (((__uint128_t)words[2] << 64 | words[3]) << 1) | 1u;
    __uint128_t state = (inc + ((__uint128_t)words[0] << 64 | words[1])) * mult + inc;
    state = state * mult + inc;
    uint64_t folded = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    uint64_t next = (folded >> rot) | (folded << ((-rot) & 63));
    return (double)(next >> 11) * (1.0 / 9007199254740992.0);
}

/* An RSA key's numbers and the Montgomery contexts of n, p and q, built once
 * per key and only read afterwards, so calls may share it across threads.
 * A public key leaves the private half NULL. */
typedef struct rsa_key {
    int modulus_len;
    BIGNUM *n, *e;
    BN_MONT_CTX *mont_n;
    BIGNUM *p, *q, *dp, *dq, *q_inv; /* q_inv in p's Montgomery form */
    BN_MONT_CTX *mont_p, *mont_q;
} rsa_key;

void rsa_key_free(rsa_key *key) {
    if (key == NULL)
        return;
    BN_MONT_CTX_free(key->mont_q);
    BN_MONT_CTX_free(key->mont_p);
    BN_clear_free(key->q_inv);
    BN_clear_free(key->dq);
    BN_clear_free(key->dp);
    BN_clear_free(key->q);
    BN_clear_free(key->p);
    BN_MONT_CTX_free(key->mont_n);
    BN_free(key->e);
    BN_free(key->n);
    OPENSSL_free(key);
}

/* The secret numbers are flagged constant-time, as OpenSSL's own RSA does. */
static BIGNUM *secret_bn(const unsigned char *bytes, size_t width) {
    BIGNUM *bn = BN_bin2bn(bytes, (int)width, NULL);
    if (bn != NULL)
        BN_set_flags(bn, BN_FLG_CONSTTIME);
    return bn;
}

/* `numbers` holds `count` big-endian integers of `width` bytes each: n and e,
 * then for a private key p, q, d mod (p-1), d mod (q-1) and q^-1 mod p.
 * Returns NULL if a modulus is not odd (or on allocation failure). */
rsa_key *rsa_key_new(const unsigned char *numbers, int count, size_t width) {
    rsa_key *key = OPENSSL_zalloc(sizeof(*key));
    BN_CTX *ctx = BN_CTX_new();
    int ok = key != NULL && ctx != NULL
        && (key->n = BN_bin2bn(numbers, (int)width, NULL)) != NULL
        && (key->e = BN_bin2bn(numbers + width, (int)width, NULL)) != NULL
        && (key->mont_n = BN_MONT_CTX_new()) != NULL
        && BN_is_odd(key->n) && BN_MONT_CTX_set(key->mont_n, key->n, ctx);
    if (ok && count == 7)
        ok = (key->p = secret_bn(numbers + 2 * width, width)) != NULL
            && (key->q = secret_bn(numbers + 3 * width, width)) != NULL
            && (key->dp = secret_bn(numbers + 4 * width, width)) != NULL
            && (key->dq = secret_bn(numbers + 5 * width, width)) != NULL
            && (key->q_inv = secret_bn(numbers + 6 * width, width)) != NULL
            && (key->mont_p = BN_MONT_CTX_new()) != NULL
            && (key->mont_q = BN_MONT_CTX_new()) != NULL
            && BN_is_odd(key->p) && BN_is_odd(key->q)
            && BN_MONT_CTX_set(key->mont_p, key->p, ctx)
            && BN_MONT_CTX_set(key->mont_q, key->q, ctx)
            && BN_to_montgomery(key->q_inv, key->q_inv, key->mont_p, ctx);
    BN_CTX_free(ctx);
    if (!ok) {
        ERR_clear_error();
        rsa_key_free(key);
        return NULL;
    }
    key->modulus_len = BN_num_bytes(key->n);
    return key;
}

/* out = m^e mod n as exactly modulus_len bytes.  The exponent is public, so
 * this is BN_mod_exp_mont's variable window, which reduces m >= n first.
 * Returns 1 on success, 0 on failure. */
int rsa_public(const rsa_key *key, const unsigned char *m, size_t m_len, unsigned char *out) {
    int ok = 0;
    BN_CTX *ctx = BN_CTX_new();
    BIGNUM *a = BN_bin2bn(m, (int)m_len, NULL);
    BIGNUM *r = BN_new();
    if (ctx && a && r
        && BN_mod_exp_mont(r, a, key->e, key->n, ctx, key->mont_n)
        && BN_bn2binpad(r, out, key->modulus_len) == key->modulus_len)
        ok = 1;
    else
        ERR_clear_error();
    BN_free(r);
    BN_free(a);
    BN_CTX_free(ctx);
    return ok;
}

/* out = c^d mod n by the CRT, as exactly modulus_len bytes: both halves by
 * BN_mod_exp_mont_consttime on the contexts of p and q, recombined as
 * mq + q * (q^-1 (mp - mq) mod p).  Returns 0 for a key without factors. */
int rsa_private(const rsa_key *key, const unsigned char *c, size_t c_len, unsigned char *out) {
    int ok = 0;
    BN_CTX *ctx;
    BIGNUM *a, *mp, *mq, *r;
    if (key->p == NULL)
        return 0;
    ctx = BN_CTX_new();
    a = BN_bin2bn(c, (int)c_len, NULL);
    mp = BN_new();
    mq = BN_new();
    r = BN_new();
    if (ctx && a && mp && mq && r
        && BN_nnmod(r, a, key->p, ctx)
        && BN_mod_exp_mont_consttime(mp, r, key->dp, key->p, ctx, key->mont_p)
        && BN_nnmod(r, a, key->q, ctx)
        && BN_mod_exp_mont_consttime(mq, r, key->dq, key->q, ctx, key->mont_q)
        && BN_mod_sub(r, mp, mq, key->p, ctx)
        && BN_mod_mul_montgomery(r, r, key->q_inv, key->mont_p, ctx)
        && BN_mul(r, r, key->q, ctx)
        && BN_add(r, r, mq)
        && BN_bn2binpad(r, out, key->modulus_len) == key->modulus_len)
        ok = 1;
    else
        ERR_clear_error();
    BN_clear_free(r);
    BN_clear_free(mq);
    BN_clear_free(mp);
    BN_free(a);
    BN_CTX_free(ctx);
    return ok;
}
"""

_lib = None
_ffi = None
_load_attempted = False
#: serializes the first load: a thread arriving mid-build waits for it
_load_lock = threading.Lock()


def _cache_dir() -> str:
    digest = hashlib.sha256((_CDEF + _SOURCE).encode()).hexdigest()[:16]
    name = f"repro-native-{digest}-py{sys.version_info[0]}{sys.version_info[1]}"
    base = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    try:
        os.makedirs(base, exist_ok=True)
    except OSError:
        # No writable home (containers, restricted accounts): fall back to a
        # per-user tempdir; _dir_is_trusted still gates what gets imported.
        base = os.path.join(tempfile.gettempdir(), f"repro-{os.getuid()}")
        os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _dir_is_trusted(directory: str) -> bool:
    """Only import cached extensions from a directory this user owns.

    Loading a ``.so`` executes it; a cache under a shared location that
    another user could pre-create would be an arbitrary-code-execution
    hand-off.  Require our uid as owner and no group/other write bits.
    """
    try:
        st = os.stat(directory)
    except OSError:
        return False
    return st.st_uid == os.getuid() and not (st.st_mode & 0o022)


def _import_from(directory: str):
    if not _dir_is_trusted(directory):
        return None
    for entry in os.listdir(directory):
        if entry.startswith(_MODULE_NAME) and entry.endswith(".so"):
            spec = importlib.util.spec_from_file_location(_MODULE_NAME, os.path.join(directory, entry))
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return None


def _build() -> "tuple | None":
    # A warm cache is imported directly (~1 ms): importing cffi and parsing
    # the cdef would add ~0.04 s of CPU to every process for nothing.
    cache = _cache_dir()
    module = None
    if os.path.isdir(cache):
        try:
            module = _import_from(cache)
        except Exception:
            module = None
    if module is None:
        from cffi import FFI

        ffi = FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(
            _MODULE_NAME,
            _SOURCE,
            libraries=["crypto"],
            extra_compile_args=["-O2", "-Wno-deprecated-declarations"],
        )
        build_dir = tempfile.mkdtemp(prefix="repro-native-build-")
        try:
            ffi.compile(tmpdir=build_dir)
        except BaseException:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise
        try:
            os.rename(build_dir, cache)
            target = cache
        except OSError:
            # Another process won the race (or the rename failed); use the
            # freshly built copy in place.
            target = build_dir if os.path.isdir(build_dir) else cache
        module = _import_from(target)
    if module is None:
        return None
    return module.lib, module.ffi


def load():
    """Return the compiled native library handle, or ``None`` if unavailable.

    Thread-safe: the first call builds (or imports) the helper under a lock,
    and every caller sees either nothing yet or the finished pair — ``_ffi``
    is published before ``_lib``, and the attempt is marked done last.  A
    build that raises emits one ``RuntimeWarning`` naming the error before
    the pure-Python fallback takes over; ``REPRO_NO_NATIVE=1`` falls back
    silently.
    """
    global _lib, _ffi, _load_attempted
    if _load_attempted:
        return _lib
    with _load_lock:
        if not _load_attempted:
            built = None
            if not os.environ.get("REPRO_NO_NATIVE"):
                try:
                    built = _build()
                except Exception as exc:
                    warnings.warn(
                        f"the native helper failed to build ({type(exc).__name__}: {exc}); "
                        "falling back to the pure-Python paths",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            if built is not None:
                _ffi = built[1]
                _lib = built[0]
            _load_attempted = True
    return _lib


def available() -> bool:
    """Whether the native CTR, ``mod_exp``, RSA and seeding paths can be used on this machine."""
    return load() is not None


def ctr_sha256_xor(prefix: bytes, data: bytes, start: int = 0) -> bytes:
    """XOR ``data`` against the SHA256-CTR keystream for ``prefix``.

    Requires the native library; callers should check :func:`available` (or
    :func:`load`) first and fall back to the pure-Python path otherwise.
    """
    lib = load()
    if lib is None:
        raise RuntimeError("native CTR helper is not available on this machine")
    out = bytearray(len(data))
    lib.ctr_sha256_xor(
        _ffi.from_buffer(prefix),
        len(prefix),
        start,
        _ffi.from_buffer(data),
        len(data),
        _ffi.from_buffer(out),
    )
    return bytes(out)


def mod_exp(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` via OpenSSL's ``BN_mod_exp_mont_consttime``.

    Montgomery multiplication needs an odd modulus, so an even or
    non-positive ``modulus`` raises :class:`ValueError`, as does a negative
    ``exponent``.  Any ``base`` is accepted and reduced into ``[0, modulus)``
    first, so every operand handed to C fits the ``modulus``-sized output.
    Requires the native library, like :func:`ctr_sha256_xor`.
    """
    if modulus < 1 or not modulus & 1:
        raise ValueError(f"modulus must be odd and positive, got {modulus}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    lib = load()
    if lib is None:
        raise RuntimeError("native mod_exp helper is not available on this machine")
    base %= modulus
    size = (modulus.bit_length() + 7) // 8
    exponent_bytes = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
    out = bytearray(size)
    if not lib.mod_exp(
        _ffi.from_buffer(base.to_bytes(size, "big")),
        size,
        _ffi.from_buffer(exponent_bytes),
        len(exponent_bytes),
        _ffi.from_buffer(modulus.to_bytes(size, "big")),
        size,
        _ffi.from_buffer(out),
    ):
        raise RuntimeError("OpenSSL BN_mod_exp_mont_consttime failed")
    return int.from_bytes(out, "big")


@functools.lru_cache(maxsize=16)
def _rsa_key(*numbers: int):
    """The C handle of the RSA key ``numbers``, built once per key.

    ``numbers`` is ``(n, e)`` or ``(n, e, p, q, dp, dq, q_inv)``; the handle
    holds them with the Montgomery contexts of ``n``, ``p`` and ``q``, and
    is freed when it leaves the cache and its last caller drops it.
    """
    lib = load()
    if lib is None:
        raise RuntimeError("native RSA helper is not available on this machine")
    n = numbers[0]
    if n < 3 or not n & 1 or any(not 0 < x < n for x in numbers[1:]):
        raise ValueError("not an RSA key: n must be odd and every other number in (0, n)")
    width = (n.bit_length() + 7) // 8
    packed = b"".join(x.to_bytes(width, "big") for x in numbers)
    handle = lib.rsa_key_new(_ffi.from_buffer(packed), len(numbers), width)
    if handle == _ffi.NULL:
        raise ValueError("not an RSA key: a modulus or factor is even")
    return _ffi.gc(handle, lib.rsa_key_free)


def _rsa_call(entry, handle, value: int, modulus: int) -> int:
    """Run ``entry`` (``rsa_public`` or ``rsa_private``) on ``value`` mod ``modulus``."""
    if value < 0:
        value %= modulus
    size = (modulus.bit_length() + 7) // 8
    out = bytearray(size)
    data = value.to_bytes((value.bit_length() + 7) // 8, "big")
    if not entry(handle, _ffi.from_buffer(data), len(data), _ffi.from_buffer(out)):
        raise RuntimeError("OpenSSL RSA exponentiation failed")
    return int.from_bytes(out, "big")


def rsa_public(m: int, n: int, e: int) -> int:
    """``pow(m, e, n)``: the RSA public op on the handle cached for ``(n, e)``.

    Runs ``BN_mod_exp_mont``, a variable window over ``e``, as OpenSSL's own
    RSA public op does: the exponent is public, and no secret exponent ever
    takes this path.  Any ``m`` is accepted and reduced mod ``n``.  Requires the native library; an ``n`` that is not odd and at
    least 3, or an ``e`` outside ``(0, n)``, raises :class:`ValueError`.
    """
    handle = _rsa_key(n, e)
    return _rsa_call(load().rsa_public, handle, m, n)


def rsa_private(c: int, n: int, e: int, p: int, q: int, dp: int, dq: int, q_inv: int) -> int:
    """``pow(c, d, n)`` by the CRT in one native call, on the handle cached for the key.

    ``dp``, ``dq`` and ``q_inv`` are ``d mod (p-1)``, ``d mod (q-1)`` and
    ``q^-1 mod p``.  Both halves run ``BN_mod_exp_mont_consttime`` on the
    Montgomery contexts of ``p`` and ``q``; the recombination is in C too.
    Any ``c`` is accepted, including one above ``n``.  Requires the native
    library, like :func:`rsa_public`.
    """
    handle = _rsa_key(n, e, p, q, dp, dq, q_inv)
    return _rsa_call(load().rsa_private, handle, c, n)


def _seeding_lib(seed: int):
    """The loaded library, once ``seed`` is checked to fit numpy's one-word entropy."""
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    lib = load()
    if lib is None:
        raise RuntimeError("native seeding helper is not available on this machine")
    return lib


def seed_words(seed: int) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for ``0 <= seed < 2**32``.

    The four words numpy's ``PCG64`` seeds itself from, without the ~13 µs
    of Python-level hashing.  A seed outside the range raises
    :class:`ValueError`.  Requires the native library, like :func:`mod_exp`.
    """
    lib = _seeding_lib(seed)
    out = np.empty(4, np.uint64)
    lib.seed_words(seed, _ffi.from_buffer("uint64_t[]", out))
    return out


def seeded_uniform(seed: int) -> float:
    """``np.random.default_rng(seed).random()`` for ``0 <= seed < 2**32``.

    The first uniform of ``seed``'s stream computed in C, building neither a
    ``SeedSequence`` nor a generator.  Same range and availability contract
    as :func:`seed_words`.
    """
    return _seeding_lib(seed).seeded_uniform(seed)
