"""Virtual-time discrete-event scheduler for the wall-clock round engine.

The scenario engine of :mod:`repro.federated.scenario` models *who* shows up
and *how slow* they are; this module models *when*.  A federation run is a
stream of timestamped events on one virtual clock:

* :class:`ClientUpdateArrival` — a dispatched client's training finishes and
  its update reaches the server at ``dispatch_time + latency``;
* :class:`RoundDeadline` — the server's timer for the current round fires;
* :class:`BufferFlush` — the round's flush condition (all expected arrivals,
  or the K-th arrival of a FedBuff-style buffer) has been met.

The server consumes arrivals **in time order** — not in client-index order —
and the three round-closure schemes become three *flush policies* over the
same event stream:

==================  =====================================================
``sync``            flush when every dispatched client has arrived, or
                    once the fault plane's quorum has (the quorum policy)
``sync`` + deadline flush at ``T`` if anyone is still outstanding
``buffered-async``  flush on the K-th buffered arrival (deadline optional)
==================  =====================================================

Determinism contract
--------------------
Event times are pure functions of ``(seed, client_id, round)`` (the scenario
models' contract), and ties are broken by ``(time, priority, seq)`` where
``seq`` is the deterministic insertion index.  Event order therefore never
depends on wall-clock execution, thread scheduling, or ``parallelism`` — the
same seed always yields the same event trace.  At equal timestamps a
:class:`BufferFlush` sorts first (the round closes before same-instant
arrivals from other rounds leak in), an arrival sorts before a
:class:`RoundDeadline` (an update landing exactly at ``T`` is on time), and
equal-time arrivals pop in insertion order (client order) — so a round
without a latency model merges its cohort in selection order.

Event queue
-----------
:class:`VirtualClockScheduler` is the clock and its one queue: a binary
heap (``heapq``) of ``(time, priority, seq, event)`` entries, ``O(log n)``
per ``schedule``/``pop``.  The traffic it sees is small: a benchmark round
schedules 17 (``paper-mixnn``), 257 (``fleet-mixnn``) or about 920
(``fleet-async``) events over backlogs of at most 16, 256 and, by round 60,
about 11.8k.  Replaying the recorded 60-round ``fleet-async`` stream
(55,115 schedules, 44,096 pops) takes 2-3 ms per round on the heap on a
2-core Intel Xeon under CPython 3.11, under 1% of the round and no more
than a bucketed calendar queue takes on the same stream, so a structure
with better asymptotics buys nothing at this size.

Incremental counters make
:meth:`~VirtualClockScheduler.pending_arrival_count` (in total and per
origin round) and :meth:`~VirtualClockScheduler.in_flight_count` ``O(1)`` —
the round loop never scans the queue to count the backlog or one round's
stragglers.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

__all__ = [
    "Event",
    "ClientUpdateArrival",
    "TransmissionFailure",
    "RoundDeadline",
    "BufferFlush",
    "VirtualClockScheduler",
    "FlushPolicy",
    "QuorumFlushPolicy",
    "BufferedFlushPolicy",
]


# Tie-break ranks at equal timestamps (see module docstring).
_PRIORITY_FLUSH = 0
_PRIORITY_ARRIVAL = 1
_PRIORITY_DEADLINE = 2


@dataclass(frozen=True)
class Event:
    """Base timestamped event; subclasses define their tie-break priority."""

    time: float
    priority: int = field(init=False, default=_PRIORITY_ARRIVAL, repr=False)


@dataclass(frozen=True)
class ClientUpdateArrival(Event):
    """A client's trained update reaches the server.

    ``time = dispatch_time + latency``; the :class:`~repro.federated.update.
    ModelUpdate` payload is attached by the round engine after training (the
    event's identity and ordering never depend on the payload).
    """

    client_id: int = -1
    origin_round: int = -1
    dispatch_time: float = 0.0
    latency: float = 0.0
    update: object = field(default=None, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "priority", _PRIORITY_ARRIVAL)


@dataclass(frozen=True)
class TransmissionFailure(Event):
    """A transmission attempt failed in transit; the sender learns at ``time``.

    ``kind`` is ``"frame"`` (the receiver detected a corrupt frame at what
    would have been the arrival instant) or ``"timeout"`` (the per-hop ack
    timer expired before the frame landed).  The round engine answers with a
    backoff-delayed retry or, once the attempt budget is exhausted, discards
    the payload.  Arrival priority: a failure detected at the same instant as
    a round close never reopens the round.
    """

    client_id: int = -1
    origin_round: int = -1
    dispatch_time: float = 0.0
    #: transit latency of the failed attempt (the retry redraws its own)
    latency: float = 0.0
    #: 0-based index of the attempt that failed
    attempt: int = 0
    kind: str = "frame"
    update: object = field(default=None, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "priority", _PRIORITY_ARRIVAL)


@dataclass(frozen=True)
class RoundDeadline(Event):
    """The server's round timer fires at ``round_start + deadline``."""

    round_index: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "priority", _PRIORITY_DEADLINE)


@dataclass(frozen=True)
class BufferFlush(Event):
    """The round's flush condition was met at ``time`` (close immediately)."""

    round_index: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "priority", _PRIORITY_FLUSH)


class VirtualClockScheduler:
    """The virtual clock and its event queue: a binary heap of ``(time,
    priority, seq, event)`` entries with incremental in-flight counters.

    ``pop`` advances :attr:`now` to the popped event's timestamp; the clock
    never runs backwards (events scheduled in the past pop "immediately", at
    the current time).  Ties are broken by ``(priority, seq)`` — ``seq`` is
    the global insertion index, so equal-time, equal-priority events pop in
    the order they were scheduled.  Because ``seq`` is unique, entry tuples
    form a total order and comparisons never reach the event object itself.
    All state is plain containers, so checkpointing pickles a mid-round
    queue wholesale.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        # Incremental backlog counters: arrivals, and payloads still in
        # transit (arrivals + failures awaiting their retry).  Maintained on
        # schedule/pop so counting the backlog never scans the queue.
        self._num_arrivals = 0
        self._num_payloads = 0
        # Queued arrivals per origin round; a key leaves when its count hits 0.
        self._arrivals_by_round: Counter[int] = Counter()

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(now={self.now:.3f}, pending={len(self._heap)})"

    def schedule(self, event: Event) -> None:
        """Queue an event; insertion order is the final tie-breaker."""
        heapq.heappush(self._heap, (event.time, event.priority, self._seq, event))
        self._seq += 1
        if isinstance(event, ClientUpdateArrival):
            self._num_arrivals += 1
            self._num_payloads += 1
            self._arrivals_by_round[event.origin_round] += 1
        elif isinstance(event, TransmissionFailure):
            self._num_payloads += 1

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise IndexError("pop from an empty event scheduler")
        time, _, _, event = heapq.heappop(self._heap)
        if time > self.now:
            self.now = time
        if isinstance(event, ClientUpdateArrival):
            self._num_arrivals -= 1
            self._num_payloads -= 1
            by_round = self._arrivals_by_round
            by_round[event.origin_round] -= 1
            if not by_round[event.origin_round]:
                del by_round[event.origin_round]
        elif isinstance(event, TransmissionFailure):
            self._num_payloads -= 1
        return event

    def advance(self, seconds: float) -> None:
        """Advance the clock by a recovery delay spent outside the queue
        (post-flush failover/retry work); the clock never runs backwards."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock backwards, got {seconds}")
        self.now += seconds

    # -- backlog accounting ----------------------------------------------
    def pending_arrival_count(self, origin_round: int | None = None) -> int:
        """Arrival events still queued; with ``origin_round``, only the
        arrivals dispatched in that round — O(1) either way, no scan."""
        if origin_round is None:
            return self._num_arrivals
        return self._arrivals_by_round[origin_round]

    def in_flight_count(self) -> int:
        """Payload events still in transit (arrivals + pending retries) —
        O(1), no scan."""
        return self._num_payloads


# ----------------------------------------------------------------------
# Flush policies: when does the current round close?
# ----------------------------------------------------------------------
class FlushPolicy:
    """Decides, per buffered arrival, whether the round's flush fires now.

    A policy sees only counts — how many updates are buffered and how many
    dispatched clients could still arrive — so the decision is independent of
    payload contents and execution order.
    """

    def should_flush(self, buffered: int, outstanding: int) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class QuorumFlushPolicy(FlushPolicy):
    """Every sync round's flush: all reachable arrivals, or a quorum.

    Flushes when every dispatched client has arrived (``outstanding == 0``)
    or once ``quorum_count`` updates have been merged, whichever comes
    first; past the quorum the server stops waiting for a faulty tail and
    carries whatever is still in transit forward as stale.
    ``expected_absent`` counts dispatched clients that will *never* arrive
    this round (sync-mode stragglers beyond the deadline): while any exist
    the all-arrived condition is unreachable.  At the default
    ``quorum_fraction=1.0`` the quorum is the whole surviving cohort, so a
    round with nothing carried into it closes only when everyone reachable
    has arrived, or at its :class:`RoundDeadline`.
    """

    quorum_count: int
    expected_absent: int = 0

    def should_flush(self, buffered: int, outstanding: int) -> bool:
        if outstanding <= 0 and self.expected_absent == 0:
            return True
        return buffered >= self.quorum_count


@dataclass(frozen=True)
class BufferedFlushPolicy(FlushPolicy):
    """FedBuff-style: flush on the K-th buffered arrival."""

    buffer_size: int

    def should_flush(self, buffered: int, outstanding: int) -> bool:
        return buffered >= self.buffer_size
