"""Chaum mix cascade (the §2.4 background substrate).

MixNN borrows its core idea from mix networks: batch messages, shuffle them,
forward them, so arrival order cannot be linked to departure order.  This
module implements an actual message-level mix cascade on top of the project's
hybrid crypto — useful both as an executable rendering of the background
section and as the transport a deployment could tunnel proxy traffic through.

* Senders onion-encrypt a payload: one encryption layer per mix on the route,
  innermost layer first (``E_1(E_2(...E_n(payload)))`` for route ``1→…→n``).
* Each :class:`MixNode` strips one layer, buffers until its batch threshold,
  then flushes its buffer in a random order.
* The cascade delivers plaintexts whose order is independent of submission
  order — the unlinkability property is tested, not assumed.
"""

from __future__ import annotations

import numpy as np

from .crypto import CryptoError, KeyPair, encrypt, decrypt, generate_keypair

__all__ = ["MixNode", "MixCascade", "onion_encrypt"]


def onion_encrypt(payload: bytes, route_keys: list) -> bytes:
    """Layered encryption for a route of mix public keys (first hop outermost)."""
    blob = payload
    for public_key in reversed(route_keys):
        blob = encrypt(public_key, blob)
    return blob


def _relay(nodes: list["MixNode"], messages: list[bytes]) -> list[bytes]:
    """Pass messages through ``nodes`` in route order, flushing each node
    after its batch (a timed flush in a real system), so no message is
    withheld across calls."""
    current = list(messages)
    for node in nodes:
        emitted: list[bytes] = []
        for blob in current:
            emitted.extend(node.receive(blob))
        emitted.extend(node.flush())
        current = emitted
    return current


class MixNode:
    """One mix: strips an onion layer, batches, shuffles, forwards."""

    def __init__(
        self,
        keypair: KeyPair | None = None,
        batch_size: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.keypair = keypair or generate_keypair(bits=512)
        self.batch_size = batch_size
        self.rng = rng or np.random.default_rng()
        self._buffer: list[bytes] = []
        self.dropped = 0

    @property
    def public_key(self):
        return self.keypair.public

    def receive(self, blob: bytes) -> list[bytes]:
        """Accept one message; return a shuffled batch when the pool fills."""
        try:
            inner = decrypt(self.keypair, blob)
        except CryptoError:
            self.dropped += 1
            return []
        self._buffer.append(inner)
        if len(self._buffer) < self.batch_size:
            return []
        return self.flush()

    def flush(self) -> list[bytes]:
        """Emit everything buffered, in random order."""
        order = self.rng.permutation(len(self._buffer))
        batch = [self._buffer[i] for i in order]
        self._buffer = []
        return batch

    @property
    def pending(self) -> int:
        return len(self._buffer)


class MixCascade:
    """A fixed route of mixes applied in sequence."""

    def __init__(
        self,
        num_mixes: int = 3,
        batch_size: int = 4,
        rng: np.random.Generator | None = None,
        keypairs: list[KeyPair] | None = None,
    ) -> None:
        if num_mixes < 1:
            raise ValueError(f"need at least one mix, got {num_mixes}")
        rng = rng or np.random.default_rng()
        if keypairs is not None and len(keypairs) != num_mixes:
            raise ValueError(f"{len(keypairs)} keypairs for {num_mixes} mixes")
        self.nodes = [
            MixNode(
                keypair=keypairs[i] if keypairs else None,
                batch_size=batch_size,
                rng=np.random.default_rng(rng.integers(0, 2**31)),
            )
            for i in range(num_mixes)
        ]

    @property
    def route_keys(self) -> list:
        return [node.public_key for node in self.nodes]

    def wrap(self, payload: bytes) -> bytes:
        """Onion-encrypt ``payload`` for this cascade's route."""
        return onion_encrypt(payload, self.route_keys)

    def send_batch(self, messages: list[bytes]) -> list[bytes]:
        """Push onion-encrypted messages through the cascade; deliver plaintexts."""
        return _relay(self.nodes, messages)

    def send_batch_with_failover(
        self, payloads: list[bytes], faults, round_index: int = 0
    ) -> list[bytes]:
        """Push raw payloads through the cascade, re-routing around crashes.

        Unlike :meth:`send_batch`, this takes *plaintext* payloads and wraps
        them itself, because a node crash changes the route: the surviving
        cascade has different keys, so every message must be re-onioned from
        scratch.  Per attempt, each hop draws a deterministic crash from the
        fault plane ``faults`` (a
        :class:`~repro.federated.faults.FaultInjector`, keyed ``(node index,
        round, attempt)``); a crashed node is removed from the route (its
        buffered batch is lost with it), the crash is recorded failed-over in
        ``faults.ledger`` with its retransmissions, and the whole batch
        retransmits over the shrunken cascade.  Raises
        :class:`RuntimeError` if every node has crashed.
        """
        surviving = list(self.nodes)
        attempt = 0
        while True:
            if not surviving:
                raise RuntimeError(
                    f"mix cascade has no surviving nodes in round {round_index}; "
                    "cannot deliver the batch"
                )
            route_keys = [node.public_key for node in surviving]
            crashed = None
            for hop, node in enumerate(surviving):
                if faults.mix_node_crash(hop, round_index, attempt):
                    crashed = hop
                    break
            if crashed is not None:
                delay = faults.backoff("mixnode-crash", crashed, round_index, attempt)
                faults.ledger.record(
                    "mixnode-crash", crashed, round_index, attempt, "failed-over",
                    delay_seconds=delay,
                )
                faults.ledger.note_retransmissions(len(payloads))
                surviving.pop(crashed)
                attempt += 1
                continue
            return _relay(surviving, [onion_encrypt(payload, route_keys) for payload in payloads])

    @property
    def dropped(self) -> int:
        return sum(node.dropped for node in self.nodes)
