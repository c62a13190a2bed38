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
``sync``            flush when every dispatched client has arrived
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

Scheduler backends
------------------
Two implementations share the contract above (and a property-tested,
bit-identical event trace):

* :class:`CalendarQueue` — the calendar/ladder queue every simulation runs
  on.  Pending events are bucketed by virtual-time epoch (``bucket_width``
  simulated seconds per bucket); the earliest bucket is promoted to a
  sorted *run* that pops by pointer increment, events landing before the
  promotion boundary go to a small overflow heap, and far-future events
  spill onto a coarse *ladder* rung that is exploded into fine buckets only
  when the clock approaches it.  ``schedule`` is ``O(1)`` (an integer
  division and a list append) and ``pop`` is ``O(1)`` amortized — the
  per-bucket sort touches each event once, at C speed, regardless of how
  many other events are pending.
* :class:`EventScheduler` — the binary-heap reference, ``O(log n)`` per
  ``schedule``/``pop``.  No simulation builds it: it is the oracle the
  tests compare :class:`CalendarQueue` against, event for event.

Both backends keep incremental in-flight counters, so
:meth:`VirtualClockScheduler.pending_arrival_count` and
:meth:`VirtualClockScheduler.in_flight_count` are ``O(1)`` — the round loop
never scans the queue just to count the backlog.  The list-returning scans
(:meth:`~VirtualClockScheduler.pending_arrivals`,
:meth:`~VirtualClockScheduler.in_flight_payloads`) sort by the full
``(time, priority, seq)`` key, so their output order is deterministic even
at equal timestamps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = [
    "Event",
    "ClientUpdateArrival",
    "TransmissionFailure",
    "RoundDeadline",
    "BufferFlush",
    "VirtualClockScheduler",
    "EventScheduler",
    "CalendarQueue",
    "FlushPolicy",
    "SyncFlushPolicy",
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
    """Shared contract of the event-queue backends: one monotonic virtual
    clock, ``(time, priority, seq)`` total order, incremental in-flight
    counters.

    ``pop`` advances :attr:`now` to the popped event's timestamp; the clock
    never runs backwards (events scheduled in the past pop "immediately", at
    the current time).  Ties are broken by ``(priority, seq)`` — ``seq`` is
    the global insertion index, so equal-time, equal-priority events pop in
    the order they were scheduled.  Because ``seq`` is unique, entry tuples
    form a total order and comparisons never reach the event object itself.

    Subclasses implement the storage: :meth:`_insert`, :meth:`_pop_entry`,
    :meth:`_peek_entry`, and :meth:`_entries` over ``(time, priority, seq,
    event)`` tuples.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._seq = 0
        self._size = 0
        # Incremental backlog counters: arrivals, and payloads still in
        # transit (arrivals + failures awaiting their retry).  Maintained on
        # schedule/pop so counting the backlog never scans the queue.
        self._num_arrivals = 0
        self._num_payloads = 0

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"{type(self).__name__}(now={self.now:.3f}, pending={self._size})"

    # -- storage primitives implemented by each backend ------------------
    def _insert(self, entry: tuple[float, int, int, Event]) -> None:
        raise NotImplementedError

    def _pop_entry(self) -> tuple[float, int, int, Event]:
        raise NotImplementedError

    def _peek_entry(self) -> tuple[float, int, int, Event] | None:
        raise NotImplementedError

    def _entries(self) -> list[tuple[float, int, int, Event]]:
        raise NotImplementedError

    # -- shared behavior -------------------------------------------------
    def schedule(self, event: Event) -> None:
        """Queue an event; insertion order is the final tie-breaker."""
        self._insert((event.time, event.priority, self._seq, event))
        self._seq += 1
        self._size += 1
        if isinstance(event, ClientUpdateArrival):
            self._num_arrivals += 1
            self._num_payloads += 1
        elif isinstance(event, TransmissionFailure):
            self._num_payloads += 1

    def peek(self) -> Event | None:
        """The next event without popping it, or ``None`` when drained."""
        entry = self._peek_entry()
        return entry[3] if entry is not None else None

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        time, _, _, event = self._pop_entry()
        if time > self.now:
            self.now = time
        self._size -= 1
        if isinstance(event, ClientUpdateArrival):
            self._num_arrivals -= 1
            self._num_payloads -= 1
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
    def pending_arrival_count(self) -> int:
        """Arrival events still queued — O(1), no scan."""
        return self._num_arrivals

    def in_flight_count(self) -> int:
        """Payload events still in transit (arrivals + pending retries) —
        O(1), no scan."""
        return self._num_payloads

    def pending_arrivals(self) -> list[ClientUpdateArrival]:
        """Arrival events still queued (in-transit updates), in pop order.

        A full snapshot sorted by the ``(time, priority, seq)`` key, so the
        output order is deterministic even at equal timestamps.  O(n log n);
        use :meth:`pending_arrival_count` when only the count matters.
        """
        return [
            entry[3]
            for entry in sorted(
                e for e in self._entries() if isinstance(e[3], ClientUpdateArrival)
            )
        ]

    def in_flight_payloads(self) -> list[Event]:
        """Every queued event that carries a payload still in transit —
        arrivals plus transmission failures awaiting their retry — in pop
        order (full ``(time, priority, seq)`` key).  This is the backlog a
        fault-aware round must still expect; use :meth:`in_flight_count`
        when only the count matters."""
        return [
            entry[3]
            for entry in sorted(
                e
                for e in self._entries()
                if isinstance(e[3], (ClientUpdateArrival, TransmissionFailure))
            )
        ]


class EventScheduler(VirtualClockScheduler):
    """Deterministic min-heap of events — the O(log n) reference backend.

    Kept as the property-test oracle for :class:`CalendarQueue`: both must
    pop bit-identical event traces for any schedule/pop/advance stream.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        super().__init__(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []

    def _insert(self, entry: tuple[float, int, int, Event]) -> None:
        heapq.heappush(self._heap, entry)

    def _pop_entry(self) -> tuple[float, int, int, Event]:
        if not self._heap:
            raise IndexError("pop from an empty event scheduler")
        return heapq.heappop(self._heap)

    def _peek_entry(self) -> tuple[float, int, int, Event] | None:
        return self._heap[0] if self._heap else None

    def _entries(self) -> list[tuple[float, int, int, Event]]:
        return self._heap


class CalendarQueue(VirtualClockScheduler):
    """Calendar/ladder queue: O(1) schedule, O(1) amortized pop.

    Pending events are bucketed by virtual-time epoch (``time //
    bucket_width``).  When the consumption frontier needs events, the
    earliest fine bucket is *promoted*: sorted once (C-speed Timsort over a
    bucket whose size tracks event density, not total backlog) into the
    current *run*, which then pops by pointer increment.  Promotion advances
    the frontier epoch; events scheduled behind it — flushes at the current
    instant, retries landing inside the promoted window — go to a small
    overflow heap (``_active``) that is merged with the run head at pop
    time.  Events beyond ``horizon`` fine epochs spill to a coarse
    ladder rung of ``spill_factor`` fine epochs each, exploded into fine
    buckets only when the clock approaches — so a far-future deadline costs
    one list append, not a heap percolation through the whole backlog.

    Ordering is exact, not approximate: every pop compares full ``(time,
    priority, seq)`` entry tuples between the run head and the overflow
    head, and bucket promotion consumes epochs in increasing order, so the
    pop sequence is bit-identical to :class:`EventScheduler` by
    construction (and property-tested).  All state is plain containers, so
    checkpointing pickles a mid-round queue wholesale.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        bucket_width: float = 0.5,
        spill_factor: int = 1024,
        horizon: int = 8192,
    ) -> None:
        super().__init__(start_time)
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be > 0 simulated seconds, got {bucket_width}")
        if spill_factor < 2:
            raise ValueError(f"spill_factor must be >= 2, got {spill_factor}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1 fine epoch, got {horizon}")
        self._width = float(bucket_width)
        self._spill = int(spill_factor)
        self._horizon = int(horizon)
        # Promotion frontier: entries whose epoch precedes it land in the
        # overflow heap, everything else in a (fine or coarse) bucket.  The
        # frontier is an *epoch*, not a raw time, so the routing function is
        # identical for equal timestamps — a boundary-time event can never
        # slip into an already-promoted bucket behind the run (float division
        # makes time-based boundary checks unreliable: with width 0.1,
        # ``int(2.5 // 0.1) == 24``).
        self._limit_epoch = self._epoch(self.now)
        self._active: list[tuple[float, int, int, Event]] = []  # overflow heap
        self._run: list[tuple[float, int, int, Event]] = []  # promoted bucket
        self._run_pos = 0
        self._fine: dict[int, list[tuple[float, int, int, Event]]] = {}
        self._fine_epochs: list[int] = []  # min-heap of occupied fine epochs
        self._coarse: dict[int, list[tuple[float, int, int, Event]]] = {}
        self._coarse_epochs: list[int] = []  # min-heap of occupied rungs

    def _epoch(self, time: float) -> int:
        return int(time // self._width)

    @staticmethod
    def _bucket_add(buckets, epochs, epoch, entry) -> None:
        bucket = buckets.get(epoch)
        if bucket is None:
            buckets[epoch] = [entry]
            heapq.heappush(epochs, epoch)
        else:
            bucket.append(entry)

    def _insert(self, entry: tuple[float, int, int, Event]) -> None:
        # Hot path (every schedule): the fine-bucket case is inlined rather
        # than routed through _epoch/_bucket_add — at 10⁴+ ops per simulated
        # round the two extra Python calls are the dominant cost.
        epoch = int(entry[0] // self._width)
        limit = self._limit_epoch
        if epoch >= limit:
            if epoch < limit + self._horizon:
                bucket = self._fine.get(epoch)
                if bucket is None:
                    self._fine[epoch] = [entry]
                    heapq.heappush(self._fine_epochs, epoch)
                else:
                    bucket.append(entry)
            else:
                self._bucket_add(
                    self._coarse, self._coarse_epochs, epoch // self._spill, entry
                )
        else:
            heapq.heappush(self._active, entry)

    def _promote(self) -> None:
        """Sort the earliest pending bucket into the run, exploding any
        coarse rung that may overlap it first (rung ``c`` covers fine epochs
        ``[c*spill, (c+1)*spill)``, so at ``c*spill <= earliest_fine`` its
        entries can precede the fine bucket's and must be re-bucketed before
        promotion)."""
        while self._fine_epochs or self._coarse_epochs:
            fine_head = self._fine_epochs[0] if self._fine_epochs else None
            coarse_head = self._coarse_epochs[0] if self._coarse_epochs else None
            if coarse_head is not None and (
                fine_head is None or coarse_head * self._spill <= fine_head
            ):
                heapq.heappop(self._coarse_epochs)
                for entry in self._coarse.pop(coarse_head):
                    epoch = self._epoch(entry[0])
                    if epoch < self._limit_epoch:  # unreachable; guards edits
                        heapq.heappush(self._active, entry)
                    else:
                        self._bucket_add(self._fine, self._fine_epochs, epoch, entry)
                continue
            heapq.heappop(self._fine_epochs)
            bucket = self._fine.pop(fine_head)
            bucket.sort()
            self._run = bucket
            self._run_pos = 0
            self._limit_epoch = fine_head + 1
            return

    def _head(self):
        """``(source, entry)`` of the earliest pending entry; source is the
        overflow heap or the run.  Bucketed entries all live at epochs at or
        past the promotion frontier while run/overflow entries precede it,
        so buckets only need consulting when both are exhausted."""
        if self._run_pos >= len(self._run) and not self._active:
            self._run = []
            self._run_pos = 0
            self._promote()
        run_head = self._run[self._run_pos] if self._run_pos < len(self._run) else None
        active_head = self._active[0] if self._active else None
        if active_head is not None and (run_head is None or active_head < run_head):
            return self._active, active_head
        if run_head is not None:
            return self._run, run_head
        return None, None

    def _peek_entry(self) -> tuple[float, int, int, Event] | None:
        return self._head()[1]

    def _pop_entry(self) -> tuple[float, int, int, Event]:
        # Hot path (every pop): run populated, overflow heap empty — a
        # pointer increment, no _head() call.
        run = self._run
        pos = self._run_pos
        if pos < len(run) and not self._active:
            entry = run[pos]
            pos += 1
            if pos == len(run):
                self._run = []
                self._run_pos = 0
            else:
                self._run_pos = pos
            return entry
        source, head = self._head()
        if head is None:
            raise IndexError("pop from an empty event scheduler")
        if source is self._active:
            return heapq.heappop(self._active)
        self._run_pos += 1
        if self._run_pos >= len(self._run):
            self._run = []
            self._run_pos = 0
        return head

    def _entries(self) -> list[tuple[float, int, int, Event]]:
        entries = list(self._active)
        entries.extend(self._run[self._run_pos :])
        for bucket in self._fine.values():
            entries.extend(bucket)
        for bucket in self._coarse.values():
            entries.extend(bucket)
        return entries


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
class SyncFlushPolicy(FlushPolicy):
    """Flush when every dispatched client has arrived (``outstanding == 0``).

    ``expected_absent`` counts dispatched clients that will *never* arrive
    this round (sync-mode stragglers beyond the deadline): while any exist
    the all-arrived condition is unreachable and the round can only close at
    its :class:`RoundDeadline`.
    """

    expected_absent: int = 0

    def should_flush(self, buffered: int, outstanding: int) -> bool:
        return outstanding <= 0 and self.expected_absent == 0


@dataclass(frozen=True)
class QuorumFlushPolicy(FlushPolicy):
    """Sync with graceful degradation: close once a quorum has merged.

    Identical to :class:`SyncFlushPolicy` (flush when every reachable
    dispatch arrived), *plus* an early exit once ``quorum_count`` updates
    have been merged — the server stops waiting for a faulty tail and carries
    whatever is still in transit forward as stale.  With ``quorum_count``
    equal to the full surviving cohort the early exit can only fire at the
    same instant the all-arrived condition does, which keeps the zero-fault
    path bit-identical.
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
