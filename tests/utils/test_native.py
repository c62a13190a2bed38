"""The native helper: OpenSSL ``mod_exp`` and the per-key RSA ops against
``pow``, the seeding kernel against numpy's ``SeedSequence`` and
``default_rng``, the warm-cache load, the first load under concurrency, and
a failed build's warning and cleanup."""

import functools
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mixnn.crypto import decrypt, encrypt, generate_keypair
from repro.utils import native
from repro.utils.rng import rng_from_seed, seeded_uniform

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


@functools.lru_cache(maxsize=None)
def rsa_keypair(bits: int):
    """One generated key pair per modulus size, shared by the RSA tests."""
    return generate_keypair(bits)


def native_public(kp, m: int) -> int:
    return native.rsa_public(m, kp.n, kp.public.e)


def native_private(kp, c: int) -> int:
    return native.rsa_private(c, kp.n, kp.public.e, kp.p, kp.q, *kp._crt)


@pytest.mark.oracles
@needs_native
class TestRsa:
    """The per-key RSA handle held to ``pow``: the public op under ``e`` and
    the CRT private op under ``d``."""

    @pytest.mark.parametrize("bits", [512, 1024, 2048])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_values_match_pow(self, bits, data):
        kp = rsa_keypair(bits)
        value = data.draw(st.integers(0, kp.n - 1), label="value")
        assert native_public(kp, value) == pow(value, kp.public.e, kp.n)
        assert native_private(kp, value) == pow(value, kp.d, kp.n)

    @pytest.mark.parametrize("bits", [512, 1024, 2048])
    def test_edge_values_match_pow(self, bits):
        kp = rsa_keypair(bits)
        size = kp.public.modulus_bytes
        # A KEM field three bytes longer than the modulus, as a tampered
        # envelope's length prefix can declare.
        long_field = int.from_bytes(hashlib.shake_256(b"long kem field").digest(size + 3), "big")
        for value in (0, 1, kp.n - 1, kp.n, kp.n + 1, 3 * kp.n + 7, long_field):
            assert native_public(kp, value) == pow(value, kp.public.e, kp.n)
            assert native_private(kp, value) == pow(value, kp.d, kp.n)

    def test_two_keys_alive_at_once(self):
        first, second = generate_keypair(512), generate_keypair(512)
        for value in (2, 3, 12345, first.n - 2):
            for kp in (first, second, first):
                assert native_public(kp, value) == pow(value, kp.public.e, kp.n)
                assert native_private(kp, value) == pow(value, kp.d, kp.n)

    def test_keypair_round_trips_through_pickle_and_decrypts(self):
        kp = rsa_keypair(1024)
        restored = pickle.loads(pickle.dumps(kp))
        assert restored == kp and restored._crt == kp._crt
        assert decrypt(restored, encrypt(kp.public, b"after a checkpoint")) == b"after a checkpoint"
        assert decrypt(kp, encrypt(restored.public, b"and back")) == b"and back"

    def test_not_a_key_rejected(self):
        kp = rsa_keypair(512)
        with pytest.raises(ValueError, match="not an RSA key"):
            native.rsa_public(5, kp.n + 1, kp.public.e)
        with pytest.raises(ValueError, match="not an RSA key"):
            native.rsa_public(5, kp.n, kp.n + 1)
        with pytest.raises(ValueError, match="not an RSA key"):
            native.rsa_private(5, kp.n, kp.public.e, kp.p + 1, kp.q, *kp._crt)


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

    def test_failed_build_warns_and_cleans_up(self, monkeypatch, tmp_path):
        """A helper that does not compile says so once, falls back, and
        leaves no build directory in the temp dir."""
        pytest.importorskip("cffi")
        temp = tmp_path / "tmp"
        temp.mkdir()
        monkeypatch.setenv("TMPDIR", str(temp))
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        monkeypatch.setattr(native, "_SOURCE", native._SOURCE + "\nthis is not C;\n")
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_ffi", None)
        monkeypatch.setattr(native, "_load_attempted", False)
        with pytest.warns(RuntimeWarning) as caught:
            assert native.load() is None
        failures = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(failures) == 1
        assert "native helper failed to build" in str(failures[0].message)
        assert list(temp.iterdir()) == []


#: one-word seeds: the whole range numpy hashes as a single entropy word
word_seeds = st.integers(0, 2**32 - 1)
edge_seeds = (0, 1, 2**31 - 1, 2**32 - 1)

#: every distribution the repository draws from a seeded generator
DRAWS = {
    "random": lambda g: g.random(5),
    "standard_normal": lambda g: g.standard_normal((2, 3)),
    "normal": lambda g: g.normal(1.5, 0.3, 4),
    "integers": lambda g: g.integers(0, 1000, 6),
    "choice": lambda g: g.choice(50, size=5, replace=False),
    "permutation": lambda g: g.permutation(20),
    "dirichlet": lambda g: g.dirichlet([0.5, 1.0, 2.0], 3),
}


def with_edge_seeds(test):
    for seed in edge_seeds:
        test = example(seed=seed)(test)
    return test


@pytest.mark.oracles
@needs_native
class TestSeedingKernel:
    """``seed_words`` and ``seeded_uniform`` held bit for bit to numpy."""

    @given(seed=word_seeds)
    @with_edge_seeds
    @settings(max_examples=300, deadline=None)
    def test_seed_words_match_seed_sequence(self, seed):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        words = native.seed_words(seed)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, expected)

    @given(seed=word_seeds)
    @with_edge_seeds
    @settings(max_examples=300, deadline=None)
    def test_seeded_uniform_matches_first_random(self, seed):
        expected = np.random.default_rng(seed).random()
        assert native.seeded_uniform(seed) == expected
        assert seeded_uniform(seed) == expected

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_kernel_rejects_seeds_beyond_one_word(self, seed):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            native.seed_words(seed)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            native.seeded_uniform(seed)

    def test_rng_from_seed_takes_the_native_path(self):
        seed_seq = rng_from_seed(5).bit_generator.seed_seq
        assert not isinstance(seed_seq, np.random.SeedSequence)


@pytest.mark.oracles
class TestRngFromSeed:
    """``rng_from_seed(s)`` is ``np.random.default_rng(s)``, draw for draw."""

    @pytest.mark.parametrize("kind", sorted(DRAWS))
    @given(seed=word_seeds)
    @with_edge_seeds
    @settings(max_examples=40, deadline=None)
    def test_streams_equal_default_rng(self, kind, seed):
        ours, theirs = rng_from_seed(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(DRAWS[kind](ours), DRAWS[kind](theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()

    @given(seed=word_seeds, before=st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_pickle_mid_stream_continues_identically(self, seed, before):
        ours, theirs = rng_from_seed(seed), np.random.default_rng(seed)
        ours.standard_normal(before)
        theirs.standard_normal(before)
        restored = pickle.loads(pickle.dumps(ours))
        expected = theirs.integers(0, 2**31, 8)
        np.testing.assert_array_equal(restored.integers(0, 2**31, 8), expected)
        np.testing.assert_array_equal(ours.integers(0, 2**31, 8), expected)

    @pytest.mark.parametrize("seed", [2**32, 2**40 + 3, np.int64(9), np.uint32(2**32 - 1)])
    def test_other_seeds_take_numpy(self, seed):
        ours = rng_from_seed(seed)
        assert isinstance(ours.bit_generator.seed_seq, np.random.SeedSequence)
        theirs = np.random.default_rng(seed)
        np.testing.assert_array_equal(ours.random(4), theirs.random(4))
        assert seeded_uniform(seed) == np.random.default_rng(seed).random()

    def test_none_takes_numpy_entropy(self):
        seed_seq = rng_from_seed(None).bit_generator.seed_seq
        assert isinstance(seed_seq, np.random.SeedSequence)
        assert 0.0 <= seeded_uniform(None) < 1.0

    def test_negative_seed_raises_numpy_error(self):
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(-1)
        for draw in (rng_from_seed, seeded_uniform):
            with pytest.raises(ValueError) as raised:
                draw(-1)
            assert str(raised.value) == str(expected.value)


def buffered_async_run() -> tuple[str, str]:
    """Weights digest and ``RoundRecord`` reprs of three buffered-async rounds
    with churn, stragglers, crashes, frame faults with retries, sign-flip
    attackers and multi-Krum: every seeded draw of the round engine."""
    from repro.data import SyntheticPopulation
    from repro.experiments.extensions import make_scenario
    from repro.experiments.models import model_fn_for
    from repro.federated import FederatedSimulation, LocalTrainingConfig, SimulationConfig
    from repro.federated.adversary import AdversaryConfig
    from repro.federated.faults import FaultConfig

    dataset = SyntheticPopulation(population_size=200, seed=0)
    scenario = replace(
        make_scenario("buffered-async", 0.1, 64),
        faults=FaultConfig(
            frame_corruption_rate=0.1, client_crash_rate=0.05, quorum_fraction=0.8, hop_timeout=2.0
        ),
        adversary=AdversaryConfig(fraction=0.2, kind="sign-flip"),
    )
    config = SimulationConfig(
        rounds=3,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8),
        clients_per_round=64,
        seed=3,
        cohort_batching=True,
        scenario=scenario,
        aggregation="multi-krum",
    )
    result = FederatedSimulation(dataset, model_fn_for(dataset), config).run()
    digest = hashlib.sha256(b"".join(v.tobytes() for v in result.final_state.values()))
    return digest.hexdigest(), repr(result.rounds)


@pytest.mark.oracles
@needs_native
def test_round_engine_identical_without_native():
    """The same weights and records with the helper and in a ``REPRO_NO_NATIVE=1`` process."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, REPRO_NO_NATIVE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    script = (
        "import json; from repro.utils import native; "
        "from tests.utils.test_native import buffered_async_run; "
        "print(json.dumps([native.available(), *buffered_async_run()]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    fallback_native, fallback_digest, fallback_records = json.loads(proc.stdout.strip().splitlines()[-1])
    assert fallback_native is False
    digest, records = buffered_async_run()
    assert fallback_digest == digest
    assert fallback_records == records
