"""Optional native acceleration for the MixNN hybrid cipher.

The MixNN DEM (:mod:`repro.mixnn.crypto`) XORs payloads with a keystream of
``SHA256(key || nonce || counter)`` blocks.  Generating that keystream one
``hashlib`` call at a time costs ~35 ms/MB of Python dispatch; the hashing
itself is ~5 ms/MB of native work.  Its RSA-KEM spends ~1.4 ms of Python
big-int ``pow`` on the two 512-bit CRT halves of a 1024-bit private
operation; OpenSSL's Montgomery exponentiation does both in ~0.12 ms.  This
module JIT-compiles (via ``cffi`` against OpenSSL's ``libcrypto``) one small
extension with two C functions, a fused keystream+XOR and a modular
exponentiation, and caches the built extension on disk keyed by a hash of its
source, so compilation happens once per machine.  Both calls release the GIL.

Everything degrades gracefully: if ``cffi``, a C compiler, or ``libcrypto``
is unavailable (or ``REPRO_NO_NATIVE=1`` is set) :func:`load` returns ``None``
and callers fall back to the pure-Python bulk keystream and to ``pow``.
Correctness of the native paths against the reference implementations is
checked by ``repro.mixnn.crypto.selftest()``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile
import threading

__all__ = ["load", "ctr_sha256_xor", "mod_exp", "available"]

_MODULE_NAME = "_repro_ctr_native"

_CDEF = (
    "void ctr_sha256_xor(const unsigned char *prefix, size_t prefix_len, "
    "unsigned long long start, const unsigned char *data, size_t len, "
    "unsigned char *out);"
    "int mod_exp(const unsigned char *base, size_t base_len, "
    "const unsigned char *exponent, size_t exponent_len, "
    "const unsigned char *modulus, size_t modulus_len, unsigned char *out);"
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
        ffi.compile(tmpdir=build_dir)
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
    is published before ``_lib``, and the attempt is marked done last.
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
                except Exception:
                    built = None
            if built is not None:
                _ffi = built[1]
                _lib = built[0]
            _load_attempted = True
    return _lib


def available() -> bool:
    """Whether the native CTR and ``mod_exp`` paths can be used on this machine."""
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
