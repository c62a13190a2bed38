"""Intel SGX enclave simulator.

The MixNN proxy runs inside an SGX enclave (§2.5, §4.3).  No SGX hardware is
available here, so this module simulates the enclave properties the paper's
systems evaluation (§6.5) depends on:

* **EPC memory budget** — 96 MB usable out of the 128 MB reservation; loads
  beyond the budget trigger paging, charged with a sealing/unsealing cost
  (the paper notes paging "incurs significant overheads");
* **attestation** — a quote binding a measurement of the proxy code identity
  and the enclave's public key, verifiable by participants before they send
  updates;
* **sealing** — persisting secrets outside the enclave under a key derived
  from a simulated CPU secret;
* **cost model** — per-byte decryption and store charges plus a per-item mix
  charge, calibrated against the paper's reported numbers (0.17 s decrypt /
  0.02 s store per 26.9 MB update, 0.03 s mixing), and a *constant-time mode*
  that pads every update's processing cost to the worst case, the paper's
  side-channel countermeasure.

Simulated time is tracked on an internal clock, so latency experiments are
deterministic and hardware-independent; wall-clock measurement of the real
Python implementation lives in the benchmark harness instead.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass, field

from .crypto import CryptoError, KeyPair, decrypt, generate_keypair, stream_xor

__all__ = [
    "EnclaveCostModel",
    "AttestationQuote",
    "EnclaveError",
    "UpdateDecryptError",
    "SGXEnclaveSim",
    "EPC_USABLE_BYTES",
    "EPC_RESERVED_BYTES",
]

#: SGX v1 EPC figures quoted in §2.5.
EPC_RESERVED_BYTES = 128 * 1024 * 1024
EPC_USABLE_BYTES = 96 * 1024 * 1024


class EnclaveError(Exception):
    """Raised on attestation failures and protocol misuse."""


class UpdateDecryptError(CryptoError):
    """One item of a decrypt batch failed, identified by its client.

    Subclasses :class:`~repro.mixnn.crypto.CryptoError` so callers catching
    the crypto failure keep working, while batch consumers can read which
    client's ciphertext was poisoned (``item_id``, ``index``) and skip just
    that item instead of losing the whole round.
    """

    def __init__(self, item_id, index: int, cause: Exception) -> None:
        super().__init__(f"ciphertext from client {item_id} (batch index {index}) failed: {cause}")
        self.item_id = item_id
        self.index = index
        self.cause = cause


@dataclass(frozen=True)
class EnclaveCostModel:
    """Per-operation simulated costs (affine: fixed cost + per-MB slope).

    Calibrated against both §6.5 data points — (26.9 MB, 0.19 s) and
    (51.3 MB, 0.22 s) — which imply a large fixed component (KEM + enclave
    transition) and a small per-byte slope: decrypting a 26.9 MB update costs
    ≈0.17 s and storing it ≈0.02 s; a mixing pass costs ≈0.03 s.
    """

    decrypt_seconds_fixed: float = 0.150
    decrypt_seconds_per_mb: float = 0.00074
    store_seconds_fixed: float = 0.007
    store_seconds_per_mb: float = 0.00049
    mix_seconds_per_update: float = 0.03
    paging_seconds_per_mb: float = 0.05  # seal + unseal round trip
    attestation_seconds: float = 0.005

    def decrypt_cost(self, num_bytes: int) -> float:
        return self.decrypt_seconds_fixed + self.decrypt_seconds_per_mb * num_bytes / 2**20

    def store_cost(self, num_bytes: int) -> float:
        return self.store_seconds_fixed + self.store_seconds_per_mb * num_bytes / 2**20

    def paging_cost(self, num_bytes: int) -> float:
        return self.paging_seconds_per_mb * num_bytes / 2**20


@dataclass(frozen=True)
class AttestationQuote:
    """Simulated SGX quote: code measurement + key binding + signature."""

    measurement: str
    public_key_fingerprint: str
    nonce: bytes
    signature: bytes


@dataclass
class _MemoryAccount:
    """EPC usage bookkeeping."""

    used_bytes: int = 0
    peak_bytes: int = 0
    page_faults: int = 0
    sealed_out_bytes: int = 0


class SGXEnclaveSim:
    """A simulated enclave hosting the MixNN proxy logic."""

    def __init__(
        self,
        code_identity: str = "mixnn-proxy-v1",
        cost_model: EnclaveCostModel | None = None,
        epc_budget_bytes: int = EPC_USABLE_BYTES,
        constant_time: bool = True,
        keypair: KeyPair | None = None,
    ) -> None:
        self.code_identity = code_identity
        self.cost_model = cost_model or EnclaveCostModel()
        self.epc_budget_bytes = epc_budget_bytes
        self.constant_time = constant_time
        self.keypair = keypair or generate_keypair()
        self.memory = _MemoryAccount()
        self.clock_seconds = 0.0
        self._worst_case_seconds = 0.0
        # Simulated per-CPU secret used for sealing and quote signing.
        self._platform_secret = secrets.token_bytes(32)
        self._measurement = hashlib.sha256(code_identity.encode()).hexdigest()

    # ------------------------------------------------------------------
    # Attestation
    # ------------------------------------------------------------------
    @property
    def public_key(self):
        return self.keypair.public

    def quote(self, nonce: bytes) -> AttestationQuote:
        """Produce an attestation quote for a verifier-chosen nonce."""
        self.clock_seconds += self.cost_model.attestation_seconds
        payload = self._measurement.encode() + self.public_key.fingerprint().encode() + nonce
        signature = hmac.new(self._platform_secret, payload, hashlib.sha256).digest()
        return AttestationQuote(
            measurement=self._measurement,
            public_key_fingerprint=self.public_key.fingerprint(),
            nonce=nonce,
            signature=signature,
        )

    def verify_quote(self, quote: AttestationQuote, expected_identity: str) -> bool:
        """Simulated IAS verification: measurement + signature check.

        In real SGX the Intel Attestation Service validates the signature
        chain; the simulator plays both roles with the platform secret.
        """
        expected_measurement = hashlib.sha256(expected_identity.encode()).hexdigest()
        if quote.measurement != expected_measurement:
            return False
        payload = quote.measurement.encode() + quote.public_key_fingerprint.encode() + quote.nonce
        expected = hmac.new(self._platform_secret, payload, hashlib.sha256).digest()
        return hmac.compare_digest(quote.signature, expected)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def allocate(self, num_bytes: int) -> None:
        """Charge an allocation; spill to sealed storage past the EPC budget."""
        if num_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        self.memory.used_bytes += num_bytes
        self.memory.peak_bytes = max(self.memory.peak_bytes, self.memory.used_bytes)
        overflow = self.memory.used_bytes - self.epc_budget_bytes
        if overflow > 0:
            self.memory.page_faults += 1
            self.memory.sealed_out_bytes += overflow
            self.clock_seconds += self.cost_model.paging_cost(overflow)

    def free(self, num_bytes: int) -> None:
        if num_bytes < 0:
            raise ValueError("free size must be non-negative")
        self.memory.used_bytes = max(0, self.memory.used_bytes - num_bytes)

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def seal(self, data: bytes) -> bytes:
        """Seal ``data`` for storage outside the enclave (key never leaves)."""
        nonce = secrets.token_bytes(16)
        key = hashlib.sha256(self._platform_secret + b"seal").digest()
        body = stream_xor(key, nonce, data)
        tag = hmac.new(key, nonce + body, hashlib.sha256).digest()
        return nonce + tag + body

    def unseal(self, blob: bytes) -> bytes:
        nonce, tag, body = blob[:16], blob[16:48], blob[48:]
        key = hashlib.sha256(self._platform_secret + b"seal").digest()
        expected = hmac.new(key, nonce + body, hashlib.sha256).digest()
        if not hmac.compare_digest(tag, expected):
            raise EnclaveError("sealed blob failed integrity check")
        return stream_xor(key, nonce, body)

    # ------------------------------------------------------------------
    # Update processing (cost-modelled)
    # ------------------------------------------------------------------
    def decrypt_update(self, ciphertext: bytes) -> bytes:
        """Decrypt one incoming update inside the enclave, charging cost.

        The one-item case of :meth:`decrypt_many`; a bad ciphertext raises
        :class:`UpdateDecryptError` (a ``CryptoError``) after its charge.
        """
        return self.decrypt_many([ciphertext])[0]

    def decrypt_many(
        self,
        ciphertexts: list[bytes],
        ids: list | None = None,
        on_error: str = "raise",
    ) -> list:
        """Decrypt a batch of updates in message order, charging each one.

        Each ciphertext is decrypted, charged and allocated before the next,
        so the simulated clock and EPC counters equal those of decrypting the
        batch one item at a time.  In constant-time mode every charge is
        padded to the largest update processed so far, the §4.3 side-channel
        countermeasure ("the execution time to process an update is
        constantly the same").

        ``ids`` labels each item (e.g. transport-level client ids) for error
        reporting; it defaults to the batch index.  Failures surface
        *per item* as :class:`UpdateDecryptError` naming the offending
        client: ``on_error="raise"`` raises at the first bad item,
        ``on_error="collect"`` returns the error object in that item's slot
        so one poisoned ciphertext cannot kill the whole batch.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(f'on_error must be "raise" or "collect", got {on_error!r}')
        if ids is None:
            ids = list(range(len(ciphertexts)))
        elif len(ids) != len(ciphertexts):
            raise ValueError(f"{len(ids)} ids for {len(ciphertexts)} ciphertexts")
        out: list = []
        for index, (ciphertext, item_id) in enumerate(zip(ciphertexts, ids)):
            try:
                plaintext = decrypt(self.keypair, ciphertext)
            except CryptoError as error:
                # A failed decrypt costs the same as a successful one.
                self._charge(self.cost_model.decrypt_cost(len(ciphertext)))
                wrapped = UpdateDecryptError(item_id, index, error)
                if on_error == "raise":
                    raise wrapped from error
                out.append(wrapped)
                continue
            cost = self.cost_model.decrypt_cost(len(ciphertext)) + self.cost_model.store_cost(len(plaintext))
            self._charge(cost)
            self.allocate(len(plaintext))
            out.append(plaintext)
        return out

    def charge_mixing(self, num_updates: int) -> None:
        self.clock_seconds += self.cost_model.mix_seconds_per_update * max(1, num_updates)

    def _charge(self, cost: float) -> None:
        if self.constant_time:
            self._worst_case_seconds = max(self._worst_case_seconds, cost)
            self.clock_seconds += self._worst_case_seconds
        else:
            self.clock_seconds += cost

    def stats(self) -> dict:
        """Snapshot of the simulated clock and memory counters."""
        return {
            "clock_seconds": self.clock_seconds,
            "used_bytes": self.memory.used_bytes,
            "peak_bytes": self.memory.peak_bytes,
            "page_faults": self.memory.page_faults,
            "sealed_out_bytes": self.memory.sealed_out_bytes,
        }
