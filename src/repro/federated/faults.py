"""Deterministic fault plane: injection, backoff, and the fault ledger.

The scenario engine models *benign* variation — churn, stragglers,
staleness.  This module models *failures*: a client crashing mid-training, a
wire frame corrupted in transit, an enclave decrypt or attestation failing, a
MixNN proxy crashing with buffered layer pieces, a server merge that must be
retried.  Every hop of the round pipeline gains an injection point here and a
recovery policy next to it (retry with exponential backoff, failover, or
quorum-based degradation), so the "heavy traffic, production-scale" regimes
in ROADMAP can be exercised under the failure modes a real deployment sees.

Design rules, identical to the churn/latency models:

* every fault decision is a pure function of
  ``stable_seed(seed, "fault", kind, entity, round, attempt)`` — never a
  shared sequential RNG — so fault schedules are bit-identical across runs,
  execution orders, and ``parallelism`` settings;
* a rate of ``0.0`` skips the hash draw entirely: every run arms one plane,
  and its default all-zero :class:`FaultConfig` draws nothing and records
  nothing, so it is the plane's one "off";
* every *injected* fault instance lands in the :class:`FaultLedger` with a
  resolution — ``retried``, ``failed-over``, or ``discarded`` — so the
  accounting invariant ``injected == retried + failed_over + discarded``
  holds by construction and is checkable per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

from ..utils.rng import rng_from_seed, seeded_uniform, stable_seed

__all__ = [
    "FAULT_KINDS",
    "RESOLUTIONS",
    "POST_FLUSH_KINDS",
    "FaultConfig",
    "FaultInjector",
    "FaultRecord",
    "Ledger",
    "FaultLedger",
]

#: Every fault kind the injector can draw.  ``frame`` and ``timeout`` are
#: transport-level (handled inside the virtual-time replay); the rest are
#: handled after the round's flush and their recovery delay is appended to
#: the round's simulated duration.
FAULT_KINDS = (
    "client-crash",
    "frame",
    "timeout",
    "enclave",
    "attestation",
    "proxy-crash",
    "mixnode-crash",
    "merge",
    "shard-crash",
)

#: How a fault instance was resolved (every ledger entry carries exactly one).
RESOLUTIONS = ("retried", "failed-over", "discarded")

#: Kinds whose recovery delay happens *after* the round's flush fired (the
#: transport kinds' delays are already embodied in shifted arrival times).
#: Shard crashes belong here too: a leaf aggregator dies while reducing its
#: cohort slice, so its retry/failover delay lands on the round's recovery
#: budget, never on individual arrival times.
POST_FLUSH_KINDS = ("enclave", "attestation", "proxy-crash", "mixnode-crash", "merge", "shard-crash")


@dataclass(frozen=True)
class FaultConfig:
    """Fault rates and recovery-policy knobs for one simulation.

    All rates are independent per-draw probabilities in ``[0, 1)``; the
    default of ``0.0`` everywhere is the zero-rate plane every run arms
    unless told otherwise, which draws no hash and records no fault.
    """

    #: P(a surviving client dies mid-training) per (client, round)
    client_crash_rate: float = 0.0
    #: P(a wire frame is corrupted in transit) per (client, round, attempt)
    frame_corruption_rate: float = 0.0
    #: P(an enclave decrypt transiently fails) per (sender, round, attempt)
    enclave_failure_rate: float = 0.0
    #: P(an attestation round-trip fails) per (round, attempt)
    attestation_failure_rate: float = 0.0
    #: P(the MixNN proxy crashes mid-round) per round; also the per-hop
    #: mix-node crash rate of the cascade failover path
    proxy_crash_rate: float = 0.0
    #: P(a server merge attempt fails) per (round, attempt)
    merge_failure_rate: float = 0.0
    #: P(a leaf shard aggregator crashes) per (shard, round, attempt) — only
    #: consulted when the simulation runs the sharded data plane
    shard_crash_rate: float = 0.0
    #: a sync round may close once this fraction of the surviving cohort has
    #: merged (1.0 = wait for everyone, the fault-free semantics)
    quorum_fraction: float = 1.0
    #: total attempts per operation before the payload is discarded
    max_attempts: int = 4
    #: seconds before the first retry; attempt ``a`` waits
    #: ``min(backoff_max, backoff_base * backoff_factor ** a)`` ± jitter
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    #: deterministic jitter as a ± fraction of the computed backoff
    backoff_jitter: float = 0.1
    #: per-hop ack timeout (simulated seconds): a transmission attempt slower
    #: than this is abandoned and retried; ``None`` disables the timeout
    hop_timeout: float | None = None

    def __post_init__(self) -> None:
        for name in (
            "client_crash_rate",
            "frame_corruption_rate",
            "enclave_failure_rate",
            "attestation_failure_rate",
            "proxy_crash_rate",
            "merge_failure_rate",
            "shard_crash_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1) (1.0 would mean the operation can "
                    f"never succeed), got {rate}"
                )
        if not 0.0 < self.quorum_fraction <= 1.0:
            raise ValueError(
                f"quorum_fraction must be in (0, 1] — the server must merge at "
                f"least one update per round — got {self.quorum_fraction}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base <= 0:
            raise ValueError(f"backoff_base must be > 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_max <= 0:
            raise ValueError(f"backoff_max must be > 0, got {self.backoff_max}")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(f"backoff_jitter must be in [0, 1), got {self.backoff_jitter}")
        if self.hop_timeout is not None and self.hop_timeout <= 0:
            raise ValueError(f"hop_timeout must be > 0 (or None), got {self.hop_timeout}")

    def quorum_count(self, cohort: int) -> int:
        """Merged updates needed to close a round over ``cohort`` survivors."""
        return max(1, math.ceil(self.quorum_fraction * cohort))


class FaultInjector:
    """One run's fault plane: deterministic fault draws and their ledger.

    Every decision hashes ``(seed, "fault", kind, entity, round, attempt)``
    into its own one-shot RNG; a zero rate returns without drawing, so the
    all-zero config leaves the RNG universe untouched.  :attr:`ledger` is
    the run's :class:`FaultLedger`: every component handed this plane
    records its injected faults there.
    """

    def __init__(self, seed: int = 0, config: FaultConfig = FaultConfig()) -> None:
        self.seed = int(seed)
        self.config = config
        self.ledger = FaultLedger()

    def _draw(self, rate: float, *key) -> bool:
        if rate <= 0.0:
            return False
        return seeded_uniform(stable_seed(self.seed, "fault", *key)) < rate

    # ------------------------------------------------------------------
    # Injection draws (one per pipeline hop)
    # ------------------------------------------------------------------
    def client_crash(self, client_id: int, round_index: int) -> bool:
        """Does this client die mid-training this round?"""
        return self._draw(self.config.client_crash_rate, "client-crash", client_id, round_index)

    def crashed_clients(self, client_ids, round_index: int) -> list[int]:
        """The subset of a cohort that dies mid-training this round, order
        preserved.  One hash draw per cohort member — unselected clients cost
        nothing, the population-scale engine's contract."""
        if self.config.client_crash_rate <= 0.0:
            return []
        return [
            client_id
            for client_id in client_ids
            if self.client_crash(client_id, round_index)
        ]

    def frame_fault(self, client_id: int, round_index: int, attempt: int) -> bool:
        """Is this transmission attempt's wire frame corrupted in transit?"""
        return self._draw(
            self.config.frame_corruption_rate, "frame", client_id, round_index, attempt
        )

    def enclave_fault(self, entity: int, round_index: int, attempt: int) -> bool:
        """Does this enclave decrypt attempt transiently fail?"""
        return self._draw(self.config.enclave_failure_rate, "enclave", entity, round_index, attempt)

    def attestation_fault(self, round_index: int, attempt: int) -> bool:
        """Does this attestation round-trip fail?"""
        return self._draw(self.config.attestation_failure_rate, "attestation", round_index, attempt)

    def proxy_crash(self, round_index: int) -> bool:
        """Does the MixNN proxy crash during this round's batch?"""
        return self._draw(self.config.proxy_crash_rate, "proxy-crash", round_index)

    def crash_point(self, round_index: int, num_messages: int) -> int:
        """Index of the message the proxy was about to process when it died.

        Uniform over ``[0, num_messages)``: messages before the point were
        ingested (and possibly partially emitted), the rest never reached the
        proxy and simply retransmit to the failover instance.
        """
        if num_messages <= 0:
            return 0
        rng = rng_from_seed(stable_seed(self.seed, "fault", "crash-point", round_index))
        return int(rng.integers(num_messages))

    def mix_node_crash(self, node_index: int, round_index: int, attempt: int) -> bool:
        """Does cascade node ``node_index`` crash during this delivery attempt?"""
        return self._draw(
            self.config.proxy_crash_rate, "mixnode-crash", node_index, round_index, attempt
        )

    def merge_fault(self, round_index: int, attempt: int) -> bool:
        """Does this server merge attempt fail?"""
        return self._draw(self.config.merge_failure_rate, "merge", round_index, attempt)

    def shard_crash(self, shard_index: int, round_index: int, attempt: int) -> bool:
        """Does leaf shard aggregator ``shard_index`` crash on this attempt?"""
        return self._draw(
            self.config.shard_crash_rate, "shard-crash", shard_index, round_index, attempt
        )

    # ------------------------------------------------------------------
    # Recovery-policy draws
    # ------------------------------------------------------------------
    def backoff(self, kind: str, entity: int, round_index: int, attempt: int) -> float:
        """Exponential backoff with deterministic ± jitter for a retry.

        ``attempt`` is the 0-based index of the attempt that just failed; the
        returned delay precedes attempt ``attempt + 1``.
        """
        config = self.config
        base = min(config.backoff_max, config.backoff_base * config.backoff_factor**attempt)
        if config.backoff_jitter == 0.0:
            return float(base)
        draw = seeded_uniform(stable_seed(self.seed, "fault", "backoff", kind, entity, round_index, attempt))
        return float(base * (1.0 + config.backoff_jitter * (2.0 * draw - 1.0)))

    def retry(
        self,
        kind: str,
        entity: int,
        round_index: int,
        failed: Callable[[int], bool],
        exhausted: str = "retried",
    ) -> int:
        """Retry an in-line operation with backoff; return how often it failed.

        Draws ``failed(attempt)`` for attempts ``0, 1, …`` until one succeeds
        or all ``max_attempts`` draws fail.  Each failure lands in
        :attr:`ledger` with its :meth:`backoff` delay, resolved
        ``"retried"``, except the last failure of a spent budget, resolved
        ``exhausted``.  The caller applies its own per-failure side effects
        (a charge, a clock tick, a failover) for the returned count.
        """
        max_attempts = self.config.max_attempts
        for attempt in range(max_attempts):
            if not failed(attempt):
                return attempt
            delay = self.backoff(kind, entity, round_index, attempt)
            resolution = exhausted if attempt + 1 == max_attempts else "retried"
            self.ledger.record(kind, entity, round_index, attempt, resolution, delay_seconds=delay)
        return max_attempts

    def retry_latency(self, base_latency: float, client_id: int, round_index: int, attempt: int) -> float:
        """Transit latency of a retransmission (attempt ``>= 1``).

        A fresh deterministic draw scales the round's base latency by a
        uniform factor in ``[0.5, 1.5)`` — network conditions vary between
        attempts, which is what gives a timed-out hop a chance to recover.
        """
        if base_latency <= 0.0:
            return 0.0
        draw = seeded_uniform(
            stable_seed(self.seed, "fault", "retry-latency", client_id, round_index, attempt)
        )
        return float(base_latency * (0.5 + draw))

    def corrupt_frame(self, blob: bytes, entity: int, round_index: int, attempt: int = 0) -> bytes:
        """Deterministically corrupt a wire frame (for adversarial tests).

        Draws a truncation point or a bit flip from the same keyed hash
        space as the injection decisions, so a corrupted blob is reproducible
        from the tuple alone.
        """
        if not blob:
            return blob
        rng = rng_from_seed(
            stable_seed(self.seed, "fault", "corrupt", entity, round_index, attempt)
        )
        if float(rng.random()) < 0.5:
            return blob[: int(rng.integers(len(blob)))]
        mutated = bytearray(blob)
        position = int(rng.integers(len(blob)))
        mutated[position] ^= 1 << int(rng.integers(8))
        return bytes(mutated)


@dataclass
class FaultRecord:
    """One injected fault instance and how the pipeline resolved it."""

    kind: str
    #: client id, proxy/node index, or -1 for server-side faults
    entity: int
    #: the round during which the fault was *handled* (a retried payload from
    #: an earlier round is accounted to the round doing the retrying)
    round_index: int
    attempt: int = 0
    resolution: str = ""
    #: simulated seconds the recovery cost (backoff delay, failover setup)
    delay_seconds: float = 0.0


def _resolved_count(resolution: str) -> property:
    """A ledger view: the number of entries resolved as ``resolution``."""
    return property(lambda ledger: ledger.resolved(resolution))


@dataclass
class Ledger:
    """Append-only account of injected instances, one resolution each.

    A subclass names its ``KINDS`` and ``RESOLUTIONS`` and writes through
    :meth:`_append`, the only entry writer, which refuses any other kind or
    resolution; so the invariant ``injected == the sum of the per-resolution
    counts`` holds by construction, and :meth:`validate` checks it.
    """

    KINDS: ClassVar[tuple[str, ...]]
    RESOLUTIONS: ClassVar[tuple[str, ...]]
    #: the ledger's name and what one entry is, in error texts
    NAME: ClassVar[str]
    INSTANCE: ClassVar[str]

    entries: list = field(default_factory=list)

    def _append(self, entry):
        if entry.kind not in self.KINDS:
            raise ValueError(
                f"unknown {self.NAME} kind {entry.kind!r}; choose from {self.KINDS}"
            )
        if entry.resolution not in self.RESOLUTIONS:
            raise ValueError(
                f"every {self.INSTANCE} needs a resolution from {self.RESOLUTIONS}, "
                f"got {entry.resolution!r}"
            )
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Accounting views
    # ------------------------------------------------------------------
    @property
    def injected(self) -> int:
        return len(self.entries)

    def resolved(self, resolution: str) -> int:
        """The number of entries resolved as ``resolution``."""
        return sum(1 for e in self.entries if e.resolution == resolution)

    def round_slice(self, round_index: int) -> list:
        """Entries accounted to one round (each record's ``round_index``)."""
        return [e for e in self.entries if e.round_index == round_index]

    def counts(self) -> dict:
        """Per-kind and per-resolution tallies."""
        by_kind: dict[str, int] = {}
        by_resolution: dict[str, int] = {}
        for entry in self.entries:
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
            by_resolution[entry.resolution] = by_resolution.get(entry.resolution, 0) + 1
        return {"by_kind": by_kind, "by_resolution": by_resolution}

    def validate(self) -> None:
        """Check the accounting invariant; raises ``ValueError`` on breach."""
        counts = [self.resolved(resolution) for resolution in self.RESOLUTIONS]
        if self.injected != sum(counts):
            terms = " + ".join(
                f"{count} {resolution.replace('-', ' ')}"
                for count, resolution in zip(counts, self.RESOLUTIONS)
            )
            raise ValueError(
                f"{self.NAME} ledger out of balance: {self.injected} injected != {terms}"
            )

    def summary(self) -> dict:
        """A serializable account for reports and benchmarks."""
        self.validate()
        return {
            "injected": self.injected,
            **{r.replace("-", "_"): self.resolved(r) for r in self.RESOLUTIONS},
            **self.counts(),
        }


@dataclass
class FaultLedger(Ledger):
    """Append-only account of every injected fault and its resolution.

    The invariant ``injected == retried + failed_over + discarded`` holds by
    construction (:class:`Ledger`).  ``retransmissions`` counts payload
    re-sends triggered by a failover (they are recovery work, not separately
    injected faults).
    """

    KINDS: ClassVar[tuple[str, ...]] = FAULT_KINDS
    RESOLUTIONS: ClassVar[tuple[str, ...]] = RESOLUTIONS
    NAME: ClassVar[str] = "fault"
    INSTANCE: ClassVar[str] = "fault"

    retransmissions: int = 0

    retried = _resolved_count("retried")
    failed_over = _resolved_count("failed-over")
    discarded = _resolved_count("discarded")

    def record(
        self,
        kind: str,
        entity: int,
        round_index: int,
        attempt: int = 0,
        resolution: str = "",
        delay_seconds: float = 0.0,
    ) -> FaultRecord:
        return self._append(
            FaultRecord(
                kind=kind,
                entity=int(entity),
                round_index=int(round_index),
                attempt=int(attempt),
                resolution=resolution,
                delay_seconds=float(delay_seconds),
            )
        )

    def note_retransmissions(self, count: int) -> None:
        """Account payload re-sends performed during a failover."""
        if count < 0:
            raise ValueError(f"retransmission count must be >= 0, got {count}")
        self.retransmissions += count

    def summary(self) -> dict:
        return {
            **super().summary(),
            "retransmissions": self.retransmissions,
            "recovery_seconds": round(sum(e.delay_seconds for e in self.entries), 6),
        }
