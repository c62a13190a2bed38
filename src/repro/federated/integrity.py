"""End-to-end update integrity: provenance digests and the round transcript.

Three layers of the pipeline cooperate on update integrity:

* **transport** (:mod:`repro.mixnn.transport`) carries a provenance digest
  and a round-scoped nonce inside every encrypted envelope, verified at
  unpack — a frame whose body was tampered in transit dies with a typed
  error, never a silent value change;
* **proxy** (:mod:`repro.mixnn.proxy`) rejects replayed nonces and threads
  per-layer source digests through chimera emissions (``unit_digests``);
* **server** appends every merge to the hash-chained :class:`RoundTranscript`
  here, so a post-hoc audit can replay a round — recompute each update's
  digest and the aggregate's digest from retained updates — and verify the
  chain end to end.

Digests are SHA-256 over the update's flat float32 parameter buffer (the
same bytes every consumer shares on the flat plane), so the digest a client
computes at pack time, the proxy forwards, and the auditor recomputes from
``received_updates`` all agree.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "state_digest",
    "update_digest",
    "TranscriptError",
    "TranscriptEntry",
    "RoundTranscript",
]


def state_digest(state) -> str:
    """SHA-256 hex digest of a parameter state (dict or flat vector)."""
    if isinstance(state, np.ndarray):
        data = np.ascontiguousarray(state, dtype=np.float32).tobytes()
    else:
        data = b"".join(
            np.ascontiguousarray(np.asarray(value, dtype=np.float32)).tobytes()
            for value in state.values()
        )
    return hashlib.sha256(data).hexdigest()


def update_digest(update) -> str:
    """SHA-256 hex digest of one update's flat parameter buffer.

    Flat-backed updates hash their backing vector directly; dict-backed
    updates hash the same bytes via per-parameter concatenation — identical
    by the flat-plane packing invariant (schema order, float32).
    """
    if getattr(update, "flat_vector", None) is not None:
        return hashlib.sha256(
            np.ascontiguousarray(update.flat_vector, dtype=np.float32).tobytes()
        ).hexdigest()
    return state_digest(update.state)


class TranscriptError(ValueError):
    """A round transcript failed verification (chain break or tampering)."""


#: chain anchor: every transcript starts from the same well-known head
_GENESIS = hashlib.sha256(b"round-transcript-v1").hexdigest()


@dataclass
class TranscriptEntry:
    """One merged round, hash-chained to its predecessor."""

    round_index: int
    #: aggregation rule that produced this round's model
    rule: str
    #: ``(apparent_id, digest)`` of every update the server received, in
    #: consumption order
    updates: tuple[tuple[int, str], ...]
    #: indices (into ``updates``) the policy actually merged
    kept: tuple[int, ...]
    #: digest of the post-merge global state
    aggregate_digest: str
    prev_hash: str
    entry_hash: str

    def payload(self) -> dict:
        """The hashed content (everything except the hashes themselves)."""
        return {
            "round_index": self.round_index,
            "rule": self.rule,
            "updates": [[int(i), d] for i, d in self.updates],
            "kept": [int(i) for i in self.kept],
            "aggregate_digest": self.aggregate_digest,
        }


def _entry_hash(prev_hash: str, payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(prev_hash.encode() + canonical.encode()).hexdigest()


def _walk_chain(genesis: str, entries, head: str, name: str) -> None:
    """Re-walk one hash chain from ``genesis`` to ``head``.

    Every entry must name its predecessor's hash and hash to its own
    recorded ``entry_hash``; raises :class:`TranscriptError`, naming the
    chain, at the first breach.
    """
    running = genesis
    for position, entry in enumerate(entries):
        if entry.prev_hash != running:
            raise TranscriptError(
                f"{name} chain broken at entry {position} (round "
                f"{entry.round_index}): prev_hash does not match the "
                f"preceding entry"
            )
        if entry.entry_hash != _entry_hash(running, entry.payload()):
            raise TranscriptError(
                f"{name} entry {position} (round {entry.round_index}) "
                f"was tampered with: recorded hash does not match its content"
            )
        running = entry.entry_hash
    if head != running:
        raise TranscriptError(f"{name} head does not match its last entry")


@dataclass
class RoundTranscript:
    """Append-only hash chain of every server merge.

    Each entry binds the round's inputs (per-update provenance digests and
    apparent ids), the aggregation rule, which inputs were kept, and the
    resulting aggregate digest to the previous entry's hash.  Rewriting any
    field of any past round breaks every subsequent hash, which
    :meth:`verify` detects; :meth:`audit_round` additionally recomputes one
    round's digests from retained updates — the post-hoc replay check.
    """

    entries: list[TranscriptEntry] = field(default_factory=list)
    head: str = _GENESIS

    def __len__(self) -> int:
        return len(self.entries)

    def append(
        self,
        round_index: int,
        rule: str,
        updates: list[tuple[int, str]],
        kept: list[int],
        aggregate_digest: str,
    ) -> TranscriptEntry:
        entry = TranscriptEntry(
            round_index=int(round_index),
            rule=str(rule),
            updates=tuple((int(i), str(d)) for i, d in updates),
            kept=tuple(int(i) for i in kept),
            aggregate_digest=str(aggregate_digest),
            prev_hash=self.head,
            entry_hash="",
        )
        entry.entry_hash = _entry_hash(self.head, entry.payload())
        self.entries.append(entry)
        self.head = entry.entry_hash
        return entry

    def verify(self) -> None:
        """Re-walk the chain; raises :class:`TranscriptError` on any breach."""
        _walk_chain(_GENESIS, self.entries, self.head, "transcript")

    def audit_round(self, position: int, received_updates: list) -> None:
        """Replay one round's inputs against the transcript.

        Recomputes every received update's digest and compares it (and the
        recorded apparent ids, in order) to what the server committed to the
        chain — the check an external auditor with the retained updates runs.
        Raises :class:`TranscriptError` on mismatch.
        """
        self.verify()
        entry = self.entries[position]
        observed = tuple(
            (int(u.apparent_id), update_digest(u)) for u in received_updates
        )
        if observed != entry.updates:
            raise TranscriptError(
                f"round {entry.round_index} audit failed: retained updates do "
                f"not match the transcribed (apparent_id, digest) sequence"
            )
