"""The native helper: OpenSSL ``mod_exp`` against ``pow``, the warm-cache load and the first load under concurrency."""

import os
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils import native

needs_native = pytest.mark.skipif(not native.available(), reason="native helper unavailable")

#: odd moduli of every size from 1 bit (the modulus 1) to 2048 bits
odd_moduli = (
    st.integers(1, 2048)
    .flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
    .map(lambda modulus: modulus | 1)
)


class TestModExp:
    @needs_native
    @given(
        base=st.integers(-(1 << 2100), 1 << 2100),
        exponent=st.integers(0, 1 << 1100),
        modulus=odd_moduli,
    )
    @example(base=0, exponent=65537, modulus=(1 << 1024) - 105)
    @example(base=12345, exponent=0, modulus=(1 << 1024) - 105)
    @example(base=0, exponent=0, modulus=7)
    @example(base=3, exponent=5, modulus=1)
    @example(base=(1 << 1030) + 17, exponent=(1 << 1023) + 1, modulus=(1 << 1024) - 105)
    @example(base=7, exponent=3, modulus=7)
    @settings(max_examples=100, deadline=None)
    def test_matches_pow(self, base, exponent, modulus):
        assert native.mod_exp(base, exponent, modulus) == pow(base, exponent, modulus)

    @pytest.mark.parametrize("modulus", [0, -1, -7, 2, 4, 1 << 64, (1 << 1024) - 106])
    def test_even_or_non_positive_modulus_rejected(self, modulus):
        with pytest.raises(ValueError, match="odd and positive"):
            native.mod_exp(3, 5, modulus)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            native.mod_exp(3, -1, 7)


class TestLoad:
    @needs_native
    def test_warm_cache_is_imported_without_cffi(self, monkeypatch):
        """cffi only builds the helper; a cached build loads without it."""
        assert os.path.isdir(native._cache_dir())
        monkeypatch.setitem(sys.modules, "cffi", None)  # `import cffi` now raises
        lib, ffi = native._build()
        out = bytearray(3)
        lib.ctr_sha256_xor(ffi.from_buffer(b"k"), 1, 0, ffi.from_buffer(b"abc"), 3, ffi.from_buffer(out))
        assert bytes(out) == native.ctr_sha256_xor(b"k", b"abc")

    def test_first_load_is_shared_by_concurrent_callers(self, monkeypatch):
        """A thread arriving while the first build runs waits for it instead
        of taking the fallback, and the helper is built once."""
        sentinel = (object(), object())
        calls = []

        def slow_build():
            calls.append(1)
            time.sleep(0.2)
            return sentinel

        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        monkeypatch.setattr(native, "_build", slow_build)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_ffi", None)
        monkeypatch.setattr(native, "_load_attempted", False)
        results = [None] * 8

        def call(i):
            results[i] = native.load()

        threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is sentinel[0] for result in results)
        assert native._ffi is sentinel[1]
        assert len(calls) == 1
