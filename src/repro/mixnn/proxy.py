"""The MixNN proxy (§4.1, §4.3).

The proxy sits between participants and the aggregation server, inside an
(simulated) SGX enclave.  Operation, following §4.3:

1. each incoming encrypted update is decrypted inside the enclave and split
   by layer into per-layer lists of capacity ``k``;
2. the first ``k`` updates only fill the lists;
3. once the lists are full, every further arrival triggers an emission: the
   proxy draws one element *uniformly at random* from each layer list,
   composes them into an outgoing update for the server, and stores the
   incoming update's layers in the freed slots;
4. at the end of a round :meth:`MixNNProxy.flush` drains the lists so every
   (participant, layer) piece is forwarded exactly once — the condition the
   §4.2 utility-equivalence proof needs.

The server-side identity of an emitted update (``apparent_id``) is the oldest
participant whose update entered the proxy and has not yet been attributed —
i.e. what a server correlating arrival order would assume.  Inference
accuracy under MixNN is scored against these apparent identities.

Layer lists use :class:`~repro.mixnn.oram.ObliviousList` so the slot access
pattern does not leak which participant's layer was selected, and all
decryption/storage/mixing work is charged to the enclave's cost model.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from ..federated.faults import FaultInjector
from ..federated.update import ModelUpdate, layer_groups
from ..nn.serialization import FrameError, schema_of
from .enclave import SGXEnclaveSim, UpdateDecryptError
from .oram import ObliviousList
from .transport import EncryptedUpdate, IntegrityError, envelope_nonce, pack_update, unpack_update

__all__ = ["MixNNProxy", "ProxyStats", "ReplayError", "Granularity"]

#: Supported mixing granularities: whole models (no protection beyond the
#: batch's unlinkability), whole layers (the paper's scheme), or single
#: parameter tensors.
Granularity = ("model", "layer", "parameter")


def _mixing_units(names: tuple[str, ...], granularity: str) -> list[tuple[str, ...]]:
    """Parameter-name groups moved together under the chosen granularity."""
    if granularity == "model":
        return [tuple(names)]
    if granularity == "layer":
        return [tuple(group) for group in layer_groups(names).values()]
    return [(name,) for name in names]


class ReplayError(Exception):
    """A ciphertext for an already-seen ``(sender, round)`` nonce arrived.

    Without this guard a replayed upload would double-buffer its layer
    pieces, letting one participant occupy two slots of every ``k``-list —
    a cheap amplification primitive for a Byzantine sender.
    """


@dataclass
class ProxyStats:
    """Operational counters for the systems evaluation (§6.5)."""

    received: int = 0
    emitted: int = 0
    flushes: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: abrupt restarts simulated via :meth:`MixNNProxy.crash`
    crashes: int = 0
    #: poisoned ciphertexts skipped (genuine per-item decrypt failures)
    decrypt_failures: int = 0
    #: duplicate ``(sender, round)`` uploads refused by the replay guard
    replays_rejected: int = 0
    #: decrypted messages :meth:`MixNNProxy.stream` skipped as malformed,
    #: tampered or shaped for another model (replays are counted above)
    rejected: int = 0


class MixNNProxy:
    """Streaming layer-mixing proxy hosted in a (simulated) SGX enclave."""

    def __init__(
        self,
        enclave: SGXEnclaveSim | None = None,
        k: int = 4,
        rng: np.random.Generator | None = None,
        granularity: str = "layer",
        faults: FaultInjector | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"list capacity k must be >= 1, got {k}")
        if granularity not in Granularity:
            raise ValueError(f"unknown granularity {granularity!r}; choose from {Granularity}")
        self.enclave = enclave or SGXEnclaveSim()
        self.k = k
        self.rng = rng or np.random.default_rng()
        self.granularity = granularity
        self.stats = ProxyStats()
        # Lazily keyed off the first update's schema.
        self._units: list[tuple[str, ...]] | None = None
        self._schema: tuple[str, ...] | None = None
        # Flat-plane contract of the configured model; set with the schema.
        self._state_schema = None
        # Raw float32 footprint of one update (constant per schema).
        self._update_nbytes = 0
        # For each schema name, (unit index, index within the unit) — lets
        # _compose assemble an emitted state in schema order in one pass.
        self._compose_index: list[tuple[int, int]] = []
        self._lists: "OrderedDict[int, ObliviousList]" = OrderedDict()
        self._pending_ids: deque[int] = deque()
        self._round_index = 0
        # sender_id -> buffered (not yet emitted) layer pieces; drives the
        # intact/partial split when the proxy crashes with state in flight.
        self._piece_counts: dict[int, int] = {}
        # Envelope nonces already ingested (replay guard).  In-memory only:
        # a crash/restart loses it, which is why failover retransmissions to
        # a restarted proxy are accepted rather than mistaken for replays.
        self._seen_nonces: set = set()
        #: the fault plane (the defense hands over the simulation's; zero-rate
        #: unless given): injected enclave faults draw here
        self.faults = faults or FaultInjector()

    # ------------------------------------------------------------------
    # Participant-facing helpers
    # ------------------------------------------------------------------
    @property
    def public_key(self):
        return self.enclave.public_key

    def encrypt_for_proxy(self, update: ModelUpdate) -> EncryptedUpdate:
        """What a participant's device does before upload."""
        return pack_update(update, self.public_key)

    # ------------------------------------------------------------------
    # Internal schema handling
    # ------------------------------------------------------------------
    def _ensure_schema(self, update: ModelUpdate) -> None:
        """Configure the lists from the first update; reject any other names,
        order or shapes (interned schemas compare by identity first)."""
        state_schema = schema_of(update.state)
        if self._schema is None:
            self._schema = state_schema.names
            self._state_schema = state_schema
            self._update_nbytes = 4 * state_schema.total_size
            self._units = _mixing_units(self._schema, self.granularity)
            position = {
                name: (unit_index, member_index)
                for unit_index, unit in enumerate(self._units)
                for member_index, name in enumerate(unit)
            }
            self._compose_index = [position[name] for name in self._schema]
            self._lists = OrderedDict((i, ObliviousList(self.k)) for i in range(len(self._units)))
        elif state_schema != self._state_schema:
            raise KeyError("update schema differs from the proxy's configured model")

    def _store(self, update: ModelUpdate) -> None:
        state = update.state
        # Each buffered piece carries its source update's staleness so a
        # chimera emission can be down-weighted *per layer* at aggregation
        # (the MixNN staleness passthrough: without it, per-update staleness
        # dies here and mixed async updates aggregate at full weight).
        staleness = int(update.metadata.get("staleness", 0))
        # The envelope's provenance digest rides with every piece so chimera
        # emissions can name the digest of each layer's source update.
        digest = update.metadata.get("digest")
        for unit_index, unit in enumerate(self._units):
            piece = tuple(state[name] for name in unit)
            self._lists[unit_index].insert((piece, update.sender_id, staleness, digest))
        self._pending_ids.append(update.sender_id)
        self._piece_counts[update.sender_id] = (
            self._piece_counts.get(update.sender_id, 0) + len(self._units)
        )

    def _compose(self) -> ModelUpdate:
        """Draw one random element per layer list and emit a mixed update."""
        pieces: list[tuple] = []
        sources: list[int] = []
        unit_staleness: list[int] = []
        unit_digests: list = []
        for unit_index in range(len(self._units)):
            layer_list = self._lists[unit_index]
            choice = int(self.rng.integers(len(layer_list)))
            piece, source, staleness, digest = layer_list.take(choice)
            sources.append(source)
            unit_staleness.append(staleness)
            unit_digests.append(digest)
            pieces.append(piece)
            remaining = self._piece_counts.get(source, 0) - 1
            if remaining > 0:
                self._piece_counts[source] = remaining
            else:
                self._piece_counts.pop(source, None)
        state: "OrderedDict[str, np.ndarray]" = OrderedDict(
            (name, pieces[unit_index][member_index])
            for name, (unit_index, member_index) in zip(self._schema, self._compose_index)
        )
        apparent = self._pending_ids.popleft()
        metadata = {"mixed": True, "granularity": self.granularity, "unit_sources": sources}
        if any(d is not None for d in unit_digests):
            # Per-unit provenance: the digest of each layer's source update,
            # aligned with ``unit_sources`` — a post-hoc audit can tie every
            # chimera layer back to the envelope that carried it.
            metadata["unit_digests"] = unit_digests
        if any(unit_staleness):
            # Per-parameter staleness vector: every layer of the chimera is
            # discounted by its *own* source's lateness, not a blanket value.
            metadata["param_staleness"] = {
                name: unit_staleness[unit_index]
                for unit_index, unit in enumerate(self._units)
                for name in unit
            }
            metadata["staleness"] = max(unit_staleness)
        emitted = ModelUpdate(
            sender_id=-1,
            apparent_id=apparent,
            round_index=self._round_index,
            state=state,
            metadata=metadata,
        )
        self.stats.emitted += 1
        self.stats.bytes_out += self._update_nbytes
        self.enclave.free(self._update_nbytes)
        return emitted

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def receive(self, message: EncryptedUpdate) -> ModelUpdate | None:
        """Process one encrypted arrival; emit a mixed update once warm.

        Returns ``None`` during the initial fill of the ``k``-lists (§4.3:
        "the proxy needs to initialize first each list with k updates before
        to send updates").
        """
        [plaintext] = self.enclave.decrypt_many(
            [message.ciphertext], ids=[message.transport_id]
        )
        return self._ingest(plaintext, len(message.ciphertext))

    def _ingest(self, plaintext: bytes, ciphertext_len: int) -> ModelUpdate | None:
        """Parse one decrypted message and run the §4.3 store/emit step.

        The blob is freed whether :meth:`_admit` accepts the message or not,
        so a rejected message leaves the mixing state and the enclave's
        memory untouched; an admitted one is charged as its parsed arrays.
        """
        try:
            update = self._admit(plaintext)
        finally:
            self.enclave.free(len(plaintext))
        self.enclave.allocate(self._update_nbytes)
        self._round_index = update.round_index
        self.stats.received += 1
        self.stats.bytes_in += ciphertext_len

        if not self._lists[0].full:
            self._store(update)
            return None
        # Lists full: emit first (frees one slot per list), then store.
        self.enclave.charge_mixing(1)
        emitted = self._compose()
        self._store(update)
        return emitted

    def _admit(self, plaintext: bytes) -> ModelUpdate:
        """Parse a decrypted message and check that it may join the round.

        Raises ``FrameError``/``IntegrityError`` for a malformed or modified
        body or a nonce not bound to its ``(sender, round)``, ``ReplayError``
        (counted in ``stats.replays_rejected``) for a nonce already ingested,
        and ``KeyError`` for names or shapes other than the configured
        model's.  Only an admitted message's nonce is recorded.
        """
        update = unpack_update(plaintext)
        nonce = update.metadata.get("nonce")
        if nonce is not None and nonce != envelope_nonce(update.sender_id, update.round_index):
            raise IntegrityError(
                f"envelope nonce does not bind to (sender {update.sender_id}, "
                f"round {update.round_index}) — forged or mis-bound envelope"
            )
        replay_key = nonce if nonce is not None else (update.sender_id, update.round_index)
        if replay_key in self._seen_nonces:
            self.stats.replays_rejected += 1
            raise ReplayError(
                f"duplicate upload for sender {update.sender_id} round "
                f"{update.round_index}: replay rejected"
            )
        self._ensure_schema(update)
        self._seen_nonces.add(replay_key)
        return update

    def resize(self, k: int) -> None:
        """Re-size the layer lists between rounds (churn adaptation).

        Under client churn the surviving cohort varies per round; a proxy
        configured for full-round buffering must follow it so the §4.2 case
        ``L = C`` keeps holding for whatever subset actually arrives.  Only
        legal while the lists are drained (i.e. after :meth:`flush`) — a
        resize must never drop or duplicate a buffered layer piece.
        """
        if k < 1:
            raise ValueError(f"list capacity k must be >= 1, got {k}")
        if self.pending() > 0:
            raise RuntimeError(
                f"cannot resize with {self.pending()} updates still buffered; flush first"
            )
        self.k = k
        if self._units is not None:
            self._lists = OrderedDict((i, ObliviousList(k)) for i in range(len(self._units)))

    def flush(self) -> list[ModelUpdate]:
        """Drain the layer lists at the end of a round.

        Guarantees every stored (participant, layer) piece is forwarded
        exactly once, preserving the aggregate (§4.2).
        """
        out: list[ModelUpdate] = []
        while self._lists and len(self._lists[0]) > 0:
            self.enclave.charge_mixing(1)
            out.append(self._compose())
        self.stats.flushes += 1
        return out

    def stream(
        self, messages: list[EncryptedUpdate], round_hint: int | None = None
    ) -> list[ModelUpdate]:
        """Ingest a batch of messages, no flush.

        The enclave decrypts the whole batch first, in message order on one
        thread (:meth:`SGXEnclaveSim.decrypt_many`), so the EPC accounting
        honestly reflects the batch buffering: all decrypted plaintexts are
        resident at once before ingestion begins.  The §4.3 mixing state
        machine then runs in message order, so the emission sequence and RNG
        draws are identical to calling :meth:`receive` one message at a time.

        A poisoned ciphertext is skipped (``stats.decrypt_failures``) instead
        of killing the batch, and so is a message :meth:`receive` would refuse
        (``stats.rejected``, or ``stats.replays_rejected`` for a replay), so the
        later messages are still ingested and their plaintexts freed.
        Injected enclave faults from :attr:`faults` retry with backoff
        (:meth:`~repro.federated.faults.FaultInjector.retry`), each retry
        charging another decrypt; at a zero enclave failure rate no message
        draws.  ``round_hint`` keys those fault draws.
        """
        results = self.enclave.decrypt_many(
            [message.ciphertext for message in messages],
            ids=[message.transport_id for message in messages],
            on_error="collect",
        )
        faults = self.faults
        emitted: list[ModelUpdate] = []
        for message, result in zip(messages, results):
            if isinstance(result, UpdateDecryptError):
                self.stats.decrypt_failures += 1
                continue
            if faults.config.enclave_failure_rate > 0:
                round_index = round_hint if round_hint is not None else self._round_index
                sender = message.transport_id
                failures = faults.retry(
                    "enclave", sender, round_index,
                    lambda attempt: faults.enclave_fault(sender, round_index, attempt),
                )
                # Each retry re-runs the in-enclave decrypt.
                for _ in range(failures):
                    self._charge_retry(len(message.ciphertext))
            try:
                maybe = self._ingest(result, len(message.ciphertext))
            except ReplayError:
                # Already counted in stats.replays_rejected; the duplicate is
                # dropped and the batch keeps streaming.
                continue
            except (FrameError, KeyError):
                # _ingest freed the plaintext; IntegrityError is a FrameError.
                self.stats.rejected += 1
                continue
            if maybe is not None:
                emitted.append(maybe)
        return emitted

    def _charge_retry(self, ciphertext_len: int) -> None:
        self.enclave._charge(self.enclave.cost_model.decrypt_cost(ciphertext_len))

    def crash(self) -> tuple[list[int], list[int]]:
        """Simulate an abrupt proxy restart: buffered layer pieces are lost.

        Returns ``(intact, partial)`` sender ids: *intact* senders still had
        every layer piece buffered (nothing of theirs was emitted, so they
        can safely retransmit their whole update to a failover proxy);
        *partial* senders had some pieces already mixed into emissions —
        their remaining pieces are unrecoverable without double-forwarding
        already-delivered layers, so a failover coordinator drops them (the
        quorum policy absorbs the loss).  In full-round mode (``k`` = cohort)
        nothing emits before the flush, so every buffered sender is intact
        and the §4.2 aggregate is exactly preserved across the failover.
        """
        num_units = len(self._units) if self._units else 0
        intact = sorted(s for s, c in self._piece_counts.items() if num_units and c == num_units)
        partial = sorted(s for s, c in self._piece_counts.items() if 0 < c < num_units)
        total_pieces = sum(self._piece_counts.values())
        if num_units and total_pieces:
            self.enclave.free(int(round(self._update_nbytes * total_pieces / num_units)))
        if self._units is not None:
            self._lists = OrderedDict((i, ObliviousList(self.k)) for i in range(len(self._units)))
        self._pending_ids.clear()
        self._piece_counts = {}
        # A restarted proxy has lost its in-memory nonce cache: failover
        # retransmissions of the same (sender, round) must be accepted.
        self._seen_nonces.clear()
        self.stats.crashes += 1
        return intact, partial

    def process_round(
        self, messages: list[EncryptedUpdate], round_hint: int | None = None
    ) -> list[ModelUpdate]:
        """Stream a whole round's messages, then flush.

        With ``C`` arrivals this emits exactly ``C`` mixed updates
        (``C − k`` during streaming, ``k`` at flush), i.e. the §4.2 case
        ``L = C``.
        """
        emitted = self.stream(messages, round_hint=round_hint)
        emitted.extend(self.flush())
        return emitted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of updates currently buffered."""
        return len(self._lists[0]) if self._lists else 0

    def __repr__(self) -> str:
        return f"MixNNProxy(k={self.k}, granularity={self.granularity!r}, pending={self.pending()})"
