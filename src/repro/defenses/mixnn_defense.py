"""MixNN as a pluggable defense.

Wires the full participant-side pipeline into the
:class:`~repro.defenses.base.Defense` interface: attestation of the proxy
enclave, per-update hybrid encryption, streaming through the proxy's
``k``-lists, and emission of mixed updates to the aggregation server.
"""

from __future__ import annotations

import secrets

import numpy as np

from ..federated.update import ModelUpdate
from ..mixnn.enclave import EnclaveError, SGXEnclaveSim
from ..mixnn.proxy import MixNNProxy
from .base import Defense

__all__ = ["MixNNDefense"]


class MixNNDefense(Defense):
    """Route each round's updates through a MixNN proxy.

    ``k`` is the proxy's list capacity (§4.3).  The default ``k=None`` sizes
    the lists to the round's full cohort — the §4.2 setting ``L = C`` under
    which the utility-equivalence proof holds and which the paper's privacy
    evaluation assumes.  A small explicit ``k`` enables the streaming mode;
    note that a small window *leaks arrival locality* (mixed layers come from
    temporally nearby participants), which the k-sweep ablation benchmark
    quantifies.  Participants attest the proxy enclave before their first
    upload and again after every proxy failover.
    """

    name = "mixnn"

    def __init__(
        self,
        proxy: MixNNProxy | None = None,
        k: int | None = None,
        granularity: str = "layer",
        rng: np.random.Generator | None = None,
        enclave: SGXEnclaveSim | None = None,
    ) -> None:
        super().__init__()
        self.proxy = proxy
        self._k = k
        # Only a proxy this defense builds itself (full-round mode) may track
        # the cohort size; a caller-supplied proxy keeps its configured k.
        self._adaptive_k = proxy is None and k is None
        self._granularity = granularity
        self._rng = rng or np.random.default_rng()
        self._enclave = enclave
        self._attested = False

    def attach_planes(self, faults, adversary) -> None:
        super().attach_planes(faults, adversary)
        if self.proxy is not None:
            self.proxy.faults = faults

    def _ensure_proxy(self, round_size: int) -> MixNNProxy:
        if self.proxy is None:
            self.proxy = MixNNProxy(
                enclave=self._enclave,
                k=self._k if self._k is not None else round_size,
                rng=self._rng,
                granularity=self._granularity,
                faults=self._faults,
            )
        elif self._adaptive_k and round_size >= 1 and self.proxy.k != round_size:
            # Full-round buffering must track the cohort that actually shows
            # up: under churn/stragglers/async the arriving subset varies per
            # round, and the proxy mixes whatever arrives (lists are drained
            # between rounds, so the resize is always legal here).
            self.proxy.resize(round_size)
        return self.proxy

    def _attest(self, round_index: int = 0) -> None:
        """Participant-side check before the first upload (§2.5).

        Injected attestation failures retry (each failed handshake still
        costs an enclave quote) until the draw clears or the attempt cap is
        hit; a real verification mismatch still raises :class:`EnclaveError`.
        """
        faults = self._faults
        failures = faults.retry(
            "attestation", 0, round_index,
            lambda attempt: faults.attestation_fault(round_index, attempt),
        )
        # One quote per failed handshake, added one at a time: a single
        # product would round the simulated clock differently.
        for _ in range(failures):
            self.proxy.enclave.clock_seconds += self.proxy.enclave.cost_model.attestation_seconds
        nonce = secrets.token_bytes(16)
        quote = self.proxy.enclave.quote(nonce)
        if not self.proxy.enclave.verify_quote(quote, self.proxy.enclave.code_identity):
            raise EnclaveError("proxy enclave failed attestation; refusing to upload")
        self._attested = True

    def process_round(
        self,
        updates: list[ModelUpdate],
        rng: np.random.Generator,
        broadcast_state: dict | None = None,
    ) -> list[ModelUpdate]:
        proxy = self._ensure_proxy(len(updates))
        # The freshest update carries the true round: under quorum closure the
        # batch leads with stale carry-forwards, so updates[0] would key the
        # fault draws to the previous round.
        round_index = max((u.round_index for u in updates), default=0)
        if not self._attested:
            self._attest(round_index)
        # Network arrival order at the proxy is arbitrary.
        order = rng.permutation(len(updates))
        ordered = [updates[i] for i in order]
        messages = [proxy.encrypt_for_proxy(u) for u in ordered]
        # A replaying attacker re-sends its own ciphertext verbatim; the
        # proxy's nonce guard rejects the duplicate and counts it, so the
        # ledger records the rejection at injection time (by construction).
        adversary = self._adversary
        replays = []
        for update, message in zip(ordered, messages):
            if adversary.should_replay(update.sender_id, round_index):
                replays.append(message)
                adversary.ledger.record("replay", update.sender_id, round_index, "rejected")
        messages = messages + replays
        if self._faults.proxy_crash(round_index):
            return self._process_round_with_crash(ordered, messages, round_index)
        return proxy.process_round(messages, round_hint=round_index)

    def _process_round_with_crash(
        self,
        ordered: list[ModelUpdate],
        messages: list,
        round_index: int,
    ) -> list[ModelUpdate]:
        """Crash the proxy mid-stream and fail over to a fresh one.

        The crash point is a deterministic draw over the message sequence.
        Messages streamed before the crash may already have emitted chimera
        updates — those are delivered.  Buffered-but-intact senders re-encrypt
        to the failover proxy (fresh enclave, fresh keys, re-attestation);
        partially-emitted senders' remaining pieces are unrecoverable and are
        discarded (the server's quorum policy absorbs the loss).  In the
        default full-round mode nothing emits before the flush, so every
        buffered sender is intact and the round's aggregate is preserved.
        """
        proxy, faults, ledger = self.proxy, self._faults, self._faults.ledger
        crash_at = faults.crash_point(round_index, len(messages))
        emitted = proxy.stream(messages[:crash_at], round_hint=round_index)
        intact, partial = proxy.crash()
        delay = (
            faults.backoff("proxy-crash", 0, round_index, 0)
            + proxy.enclave.cost_model.attestation_seconds
        )
        ledger.record("proxy-crash", 0, round_index, 0, "failed-over", delay_seconds=delay)
        for sender in partial:
            ledger.record("proxy-crash", sender, round_index, 0, "discarded")
        intact_set = set(intact)
        survivors = [u for u in ordered[:crash_at] if u.sender_id in intact_set]
        survivors += ordered[crash_at:]
        failover = MixNNProxy(
            enclave=SGXEnclaveSim(
                cost_model=proxy.enclave.cost_model,
                epc_budget_bytes=proxy.enclave.epc_budget_bytes,
                constant_time=proxy.enclave.constant_time,
            ),
            k=len(survivors) if self._adaptive_k and survivors else proxy.k,
            rng=self._rng,
            granularity=proxy.granularity,
            faults=faults,
        )
        self.proxy = failover
        # New enclave => new keys: participants must re-attest and re-encrypt.
        self._attested = False
        self._attest(round_index)
        ledger.note_retransmissions(len(survivors))
        emitted.extend(
            failover.process_round(
                [failover.encrypt_for_proxy(u) for u in survivors], round_hint=round_index
            )
        )
        return emitted

    def __repr__(self) -> str:
        if self.proxy is None:
            return f"MixNNDefense(k={self._k}, granularity={self._granularity!r})"
        return f"MixNNDefense(k={self.proxy.k}, granularity={self.proxy.granularity!r})"
