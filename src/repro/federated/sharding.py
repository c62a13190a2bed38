"""Sharded training plane over a multiprocess shared-memory data plane.

The flat parameter plane makes a round one contiguous ``(N, D)`` float32
matrix.  This module splits the *training* of that matrix hierarchically,
mirroring the paper's mix-cascade topology: a :class:`ShardPlan`
deterministically partitions the selected cohort into contiguous
row-slices, one per **leaf**; a :class:`ShardWorker` process pool trains
each slice out-of-GIL, writing rows in place over
``multiprocessing.shared_memory``, and reduces the slice's partial witness;
and the **root** assembles the plane, cross-checks every leaf's witness, and
chains the shard transcript.  Shards train, witness, and chain — they never
merge.  The server merges the round once, through its
:class:`~repro.federated.aggregation.AggregationPolicy`, exactly as it
merges a serially trained round.

Merge-order contract
--------------------
* **Leaf witness** — each leaf accumulates its rows *sequentially in slot
  order* into a float64 partial, computed in the worker that wrote them.
  The root checks that the shard-ordered sum of these partials matches the
  assembled plane's column sum (a torn or corrupted leaf write fails loudly
  with :class:`ShardIntegrityError`).  The witnesses are never the
  aggregate's value source.
* **Root merge** — updates leave the engine in cohort (slot) order, each row
  byte-equal to in-process training's, and the server applies its one rule
  to them.  Every shard plan partitions the slots into contiguous
  ascending slices, so the merge input — and hence every aggregate, for all
  six rules — is bit-identical for every ``num_shards`` by construction,
  which the end-to-end tests regression-lock.

Trust boundary: the shard chains of :class:`ShardedTranscript` attest the
*data plane* — which leaf trained which clients and the exact bytes each row
carried before any defense ran — while the server's
:class:`~repro.federated.integrity.RoundTranscript` continues to attest the
post-defense merge.  Every rule executes in the root's trust domain; the
leaves only ever see their own rows.

Fault model: a leaf aggregator is just another crashable entity.
``FaultConfig.shard_crash_rate`` drives deterministic crash draws per
``(shard, round, attempt)``; recovery retries with exponential backoff and,
once the attempt budget is exhausted, degrades the quorum by re-assigning
the orphaned cohort slice to the root (executor ``"failover-root"``).  Every
instance resolves through the same :class:`~repro.federated.faults.FaultLedger`
invariant, and because the re-assigned slice still computes the identical
pure-function training rows, results stay bit-identical under any crash
schedule.
"""

from __future__ import annotations

import hashlib
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory

import numpy as np

from ..nn.serialization import StateSchema, _intern_schema, schema_of
from ..utils.rng import stable_seed  # noqa: F401  (re-exported draw key space)
from .client import ClientPopulation, train_rows_into
from .cohort import CohortTrainer
from .integrity import TranscriptError, _entry_hash, update_digest
from .update import ModelUpdate

__all__ = [
    "SHARD_BACKENDS",
    "ShardingError",
    "ShardPlanError",
    "ShardIntegrityError",
    "ShardPlan",
    "ShardWorker",
    "ShardedRoundEngine",
    "ShardChainEntry",
    "ShardRootEntry",
    "ShardedTranscript",
    "shard_partial_sum",
]

#: execution backends for the sharded plane — ``inline`` runs every leaf in
#: the parent process (the deterministic reference for the sharded algebra,
#: no IPC), ``process`` runs leaves in a spawn pool over shared memory
SHARD_BACKENDS = ("inline", "process")


class ShardingError(ValueError):
    """Base error of the sharded aggregation plane."""


class ShardPlanError(ShardingError):
    """A shard plan cannot be built (e.g. more shards than cohort members)."""


class ShardIntegrityError(ShardingError):
    """A leaf's partial reduction disagrees with the root's canonical sum."""


# ----------------------------------------------------------------------
# Shard plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Deterministic contiguous partition of a cohort into leaf shards.

    Slot ``i`` of the round's ``(N, D)`` matrix belongs to exactly one shard;
    shard ``s`` owns the contiguous slice ``bounds[s] = (start, end)``.  The
    first ``N mod num_shards`` shards carry one extra row, so the plan is a
    pure function of ``(cohort_size, num_shards)`` — identical on every
    replay, which the transcript binds and the checkpoint round-trips.
    """

    cohort_size: int
    bounds: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, cohort_size: int, num_shards: int) -> "ShardPlan":
        if cohort_size < 1:
            raise ShardPlanError(f"cannot plan over an empty cohort (size {cohort_size})")
        if num_shards < 1:
            raise ShardPlanError(f"num_shards must be >= 1, got {num_shards}")
        if num_shards > cohort_size:
            raise ShardPlanError(
                f"num_shards={num_shards} exceeds the cohort size {cohort_size} — "
                f"a leaf aggregator with no rows cannot reduce anything; lower "
                f"num_shards or select more clients per round"
            )
        base, extra = divmod(cohort_size, num_shards)
        bounds: list[tuple[int, int]] = []
        start = 0
        for shard in range(num_shards):
            size = base + (1 if shard < extra else 0)
            bounds.append((start, start + size))
            start += size
        return cls(cohort_size=cohort_size, bounds=tuple(bounds))

    @property
    def num_shards(self) -> int:
        return len(self.bounds)

    def slots(self, shard: int) -> range:
        start, end = self.bounds[shard]
        return range(start, end)

    def shard_of(self, slot: int) -> int:
        """The shard owning a global row slot."""
        if not 0 <= slot < self.cohort_size:
            raise IndexError(f"slot {slot} outside cohort of {self.cohort_size}")
        for shard, (start, end) in enumerate(self.bounds):
            if slot < end:
                return shard
        raise IndexError(f"slot {slot} not covered by any shard")  # pragma: no cover


# ----------------------------------------------------------------------
# Leaf witnesses
# ----------------------------------------------------------------------
def shard_partial_sum(rows: np.ndarray) -> np.ndarray:
    """One leaf's partial reduction: sequential slot-order float64 row sum.

    This is the integrity witness of the merge-order contract — never the
    aggregate's value source (see the module docstring).
    """
    partial = np.zeros(rows.shape[1] if rows.ndim == 2 else rows.shape[0], dtype=np.float64)
    for row in rows:
        partial += row
    return partial


def _check_partials(
    matrix: np.ndarray, plan: ShardPlan, partials: list[np.ndarray]
) -> None:
    """Cross-check leaf witnesses against the plane's canonical column sum."""
    if len(partials) != plan.num_shards:
        raise ShardIntegrityError(
            f"{len(partials)} shard partials for {plan.num_shards} shards"
        )
    witness = np.zeros(matrix.shape[1], dtype=np.float64)
    for partial in partials:  # shard order — the documented witness order
        witness += partial
    canonical = matrix.sum(axis=0, dtype=np.float64)
    if not np.allclose(witness, canonical, rtol=1e-9, atol=1e-8):
        worst = float(np.max(np.abs(witness - canonical)))
        raise ShardIntegrityError(
            f"shard partial sums disagree with the canonical column sum "
            f"(max abs deviation {worst:.3e}) — a leaf wrote a torn or "
            f"corrupted row slice"
        )


# ----------------------------------------------------------------------
# Hierarchical transcript: one chain per shard + a root chain over heads
# ----------------------------------------------------------------------
#: root-chain anchor of every sharded transcript
_SHARD_GENESIS = hashlib.sha256(b"shard-transcript-v1").hexdigest()


def _chain_genesis(shard_index: int) -> str:
    """Per-shard chain anchor (each leaf chain starts from its own head)."""
    return hashlib.sha256(f"shard-chain-v1:{int(shard_index)}".encode()).hexdigest()


def _row_digest(row: np.ndarray) -> str:
    """SHA-256 of one row's float32 bytes (same bytes ``update_digest`` hashes)."""
    return hashlib.sha256(
        np.ascontiguousarray(row, dtype=np.float32).tobytes()
    ).hexdigest()


@dataclass
class ShardChainEntry:
    """One leaf aggregator's round, hash-chained along its shard."""

    round_index: int
    shard_index: int
    #: who actually reduced the slice — ``"worker"`` (the leaf itself, inline
    #: or in its process) or ``"failover-root"`` (quorum degradation after
    #: the leaf exhausted its crash-retry budget)
    executor: str
    #: clients whose rows this shard holds, in slot order
    client_ids: tuple[int, ...]
    #: SHA-256 of each row's bytes as assembled at the root, in slot order
    row_digests: tuple[str, ...]
    #: SHA-256 of the leaf's float64 partial-sum witness
    partial_digest: str
    prev_hash: str
    entry_hash: str

    def payload(self) -> dict:
        return {
            "round_index": self.round_index,
            "shard_index": self.shard_index,
            "executor": self.executor,
            "client_ids": [int(c) for c in self.client_ids],
            "row_digests": list(self.row_digests),
            "partial_digest": self.partial_digest,
        }


@dataclass
class ShardRootEntry:
    """One round of the root chain, binding every shard head of that round."""

    round_index: int
    bounds: tuple[tuple[int, int], ...]
    shard_heads: tuple[str, ...]
    prev_hash: str
    entry_hash: str

    def payload(self) -> dict:
        return {
            "round_index": self.round_index,
            "bounds": [[int(a), int(b)] for a, b in self.bounds],
            "shard_heads": list(self.shard_heads),
        }


@dataclass
class _ShardRoundRecord:
    """Internal: what one shard did this round, before it enters the chain."""

    shard_index: int
    executor: str
    client_ids: tuple[int, ...]
    row_digests: tuple[str, ...]
    partial_digest: str


@dataclass
class ShardedTranscript:
    """Hierarchical hash-chained transcript of the sharded data plane.

    One append-only chain per leaf shard (each entry binds the shard's
    clients, its rows' bytes, and its partial-sum witness to the previous
    entry) plus a root chain whose entries bind every shard's head for that
    round together with the plan bounds.  :meth:`verify` re-walks the whole
    tree; :meth:`audit_round` additionally replays one round's trained
    updates against the recorded row digests.
    """

    chains: dict[int, list[ShardChainEntry]] = field(default_factory=dict)
    chain_heads: dict[int, str] = field(default_factory=dict)
    root: list[ShardRootEntry] = field(default_factory=list)
    root_head: str = _SHARD_GENESIS

    def __len__(self) -> int:
        return len(self.root)

    def append_round(
        self, round_index: int, plan: ShardPlan, records: list[_ShardRoundRecord]
    ) -> ShardRootEntry:
        heads: list[str] = []
        for record in records:  # shard order
            prev = self.chain_heads.get(
                record.shard_index, _chain_genesis(record.shard_index)
            )
            entry = ShardChainEntry(
                round_index=int(round_index),
                shard_index=int(record.shard_index),
                executor=str(record.executor),
                client_ids=tuple(int(c) for c in record.client_ids),
                row_digests=tuple(record.row_digests),
                partial_digest=str(record.partial_digest),
                prev_hash=prev,
                entry_hash="",
            )
            entry.entry_hash = _entry_hash(prev, entry.payload())
            self.chains.setdefault(record.shard_index, []).append(entry)
            self.chain_heads[record.shard_index] = entry.entry_hash
            heads.append(entry.entry_hash)
        root_entry = ShardRootEntry(
            round_index=int(round_index),
            bounds=plan.bounds,
            shard_heads=tuple(heads),
            prev_hash=self.root_head,
            entry_hash="",
        )
        root_entry.entry_hash = _entry_hash(self.root_head, root_entry.payload())
        self.root.append(root_entry)
        self.root_head = root_entry.entry_hash
        return root_entry

    def verify(self) -> None:
        """Walk every shard chain and the root chain; raise on any breach."""
        for shard_index, chain in sorted(self.chains.items()):
            running = _chain_genesis(shard_index)
            for position, entry in enumerate(chain):
                if entry.prev_hash != running:
                    raise TranscriptError(
                        f"shard {shard_index} chain broken at entry {position} "
                        f"(round {entry.round_index}): prev_hash mismatch"
                    )
                expected = _entry_hash(running, entry.payload())
                if entry.entry_hash != expected:
                    raise TranscriptError(
                        f"shard {shard_index} entry {position} (round "
                        f"{entry.round_index}) was tampered with"
                    )
                running = entry.entry_hash
            if self.chain_heads.get(shard_index) != running:
                raise TranscriptError(
                    f"shard {shard_index} head does not match its last entry"
                )
        running = _SHARD_GENESIS
        for position, entry in enumerate(self.root):
            if entry.prev_hash != running:
                raise TranscriptError(
                    f"root chain broken at entry {position} (round "
                    f"{entry.round_index}): prev_hash mismatch"
                )
            expected = _entry_hash(running, entry.payload())
            if entry.entry_hash != expected:
                raise TranscriptError(
                    f"root entry {position} (round {entry.round_index}) was "
                    f"tampered with"
                )
            for shard_index in range(len(entry.shard_heads)):
                chain = self.chains.get(shard_index, [])
                if position >= len(chain) or (
                    chain[position].entry_hash != entry.shard_heads[shard_index]
                ):
                    raise TranscriptError(
                        f"root entry {position} (round {entry.round_index}) does "
                        f"not bind shard {shard_index}'s chain entry"
                    )
            running = entry.entry_hash
        if self.root_head != running:
            raise TranscriptError("root head does not match the last root entry")

    def audit_round(self, position: int, trained_updates: list) -> None:
        """Replay one round's trained updates against the shard chains.

        ``trained_updates`` must be the round's *pre-defense* updates in slot
        order (the data plane's view — the server transcript audits the
        post-defense merge).  Recomputes each row digest and the slot → shard
        assignment; raises :class:`TranscriptError` on any mismatch.
        """
        self.verify()
        entry = self.root[position]
        if len(trained_updates) != entry.bounds[-1][1]:
            raise TranscriptError(
                f"round {entry.round_index} audit failed: {len(trained_updates)} "
                f"updates for a plan over {entry.bounds[-1][1]} slots"
            )
        for shard_index, (start, end) in enumerate(entry.bounds):
            chain_entry = self.chains[shard_index][position]
            observed_ids = tuple(
                int(u.sender_id) for u in trained_updates[start:end]
            )
            observed_digests = tuple(
                update_digest(u) for u in trained_updates[start:end]
            )
            if observed_ids != chain_entry.client_ids:
                raise TranscriptError(
                    f"round {entry.round_index} audit failed: shard {shard_index} "
                    f"client ids do not match the chained assignment"
                )
            if observed_digests != chain_entry.row_digests:
                raise TranscriptError(
                    f"round {entry.round_index} audit failed: shard {shard_index} "
                    f"row bytes do not match the chained digests"
                )


# ----------------------------------------------------------------------
# Worker side (runs in the spawn pool; also reused verbatim inline)
# ----------------------------------------------------------------------
class ShardWorker:
    """One leaf aggregator's runtime: a population replica plus plane views.

    In the ``process`` backend each pool worker holds one instance (rebuilt
    from pickled constructor inputs at spawn); the ``inline`` backend drives
    the same :meth:`run` against parent-process arrays, so both backends
    execute identical float operations.
    """

    def __init__(
        self,
        population: ClientPopulation,
        schema: StateSchema,
        rows: np.ndarray,
        broadcast: np.ndarray | None,
        release_after_round: bool = False,
        cohort_batching: bool = False,
    ) -> None:
        self.population = population
        self.schema = schema
        #: the shared ``(capacity, D)`` row plane this worker writes in place
        self.rows = rows
        #: the shared broadcast vector (``None`` inline: state passed directly)
        self.broadcast = broadcast
        self._release = release_after_round
        #: cohort-batched trainer: the shard's slice trains as one stacked
        #: pass instead of client-by-client (same row/meta contract)
        self._trainer = CohortTrainer(population, schema) if cohort_batching else None

    def run(
        self,
        shard_index: int,
        slot_client_pairs: list[tuple[int, int]],
        round_index: int,
        broadcast_state: dict | None = None,
    ):
        """Train one shard's slice and reduce its partial witness.

        Returns ``(shard_index, metas, partial, train_seconds, reduce_seconds)``
        where ``metas`` is ``[(client_id, num_samples, final_loss), ...]`` in
        slot order and ``partial`` is the float64 slot-order witness sum.
        """
        if broadcast_state is None:
            broadcast_state = self.schema.views(self.broadcast)
        start = time.perf_counter()
        if self._trainer is not None:
            metas = self._trainer.train_rows(
                slot_client_pairs, broadcast_state, round_index, self.rows
            )
        else:
            metas = train_rows_into(
                self.population,
                slot_client_pairs,
                broadcast_state,
                round_index,
                self.schema,
                self.rows,
            )
        trained = time.perf_counter()
        slots = [slot for slot, _ in slot_client_pairs]
        partial = shard_partial_sum(self.rows[slots[0] : slots[-1] + 1])
        reduced = time.perf_counter()
        if self._release:
            self.population.release([client_id for _, client_id in slot_client_pairs])
        return shard_index, metas, partial, trained - start, reduced - trained


#: per-process worker singleton of the spawn pool
_WORKER: ShardWorker | None = None


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting ownership of its name.

    The parent owns (and unlinks) every segment.  Python >= 3.13 exposes
    ``track=False``; on older versions the attach re-registers the name with
    the *shared* resource tracker — harmless, because the tracker's cache is
    a set (the parent registered the same name at create) and the parent's
    single ``unlink`` unregisters it exactly once.  Workers must NOT
    unregister themselves: N workers racing to remove one set entry leaves
    N-1 KeyErrors in the tracker and strips the parent's crash-safety net.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


def _worker_init(
    dataset,
    model_fn,
    local_config,
    seed: int,
    names: tuple[str, ...],
    shapes: tuple[tuple[int, ...], ...],
    rows_name: str,
    capacity: int,
    broadcast_name: str,
    cohort_batching: bool = False,
) -> None:
    """Spawn-pool initializer: rebuild the leaf runtime from picklable parts."""
    global _WORKER
    schema = _intern_schema(tuple(names), tuple(tuple(s) for s in shapes))
    rows_segment = _attach_segment(rows_name)
    broadcast_segment = _attach_segment(broadcast_name)
    rows = np.ndarray((capacity, schema.total_size), dtype=np.float32, buffer=rows_segment.buf)
    broadcast = np.ndarray((schema.total_size,), dtype=np.float32, buffer=broadcast_segment.buf)
    population = ClientPopulation.for_dataset(dataset, model_fn, local_config, seed=seed)
    worker = ShardWorker(
        population, schema, rows, broadcast,
        release_after_round=True, cohort_batching=cohort_batching,
    )
    # keep the segments alive for the worker's lifetime
    worker._segments = [rows_segment, broadcast_segment]
    _WORKER = worker


def _worker_run_shard(shard_index, slot_client_pairs, round_index):
    """Pool task: run one shard on this process's :class:`ShardWorker`."""
    return _WORKER.run(shard_index, slot_client_pairs, round_index)


# ----------------------------------------------------------------------
# Root-side engine
# ----------------------------------------------------------------------
class _ShardResources:
    """The engine's closeable handles (pool + shared segments)."""

    __slots__ = ("pool", "segments", "capacity")

    def __init__(self) -> None:
        self.pool = None
        self.segments: list[shared_memory.SharedMemory] = []
        self.capacity = 0


def _release_resources(resources: _ShardResources) -> None:
    """Shut the pool down and unlink every segment (idempotent)."""
    pool, resources.pool = resources.pool, None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    segments, resources.segments = resources.segments, []
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
    resources.capacity = 0


class ShardedRoundEngine:
    """The root of the sharded data plane: plans, dispatches, and assembles.

    Owns the per-round :class:`ShardPlan`, the (optional) spawn pool plus its
    shared-memory plane, the crash/retry/failover resolution through the
    fault ledger, and the hierarchical :class:`ShardedTranscript`.  Training
    results are bit-identical to the serial path for every backend, shard
    count, and crash schedule — see the module docstring's contract.

    Shared segments are unlinked on :meth:`close`, which runs in a
    ``finally`` whenever a round raises and again at garbage collection
    (``weakref.finalize``), so no ``/dev/shm`` segment outlives the engine.
    """

    def __init__(
        self,
        population: ClientPopulation,
        schema: StateSchema,
        num_shards: int,
        backend: str = "inline",
        seed: int = 0,
        fault_injector=None,
        fault_ledger=None,
        dataset=None,
        model_fn=None,
        local_config=None,
        capacity: int | None = None,
        cohort_batching: bool = False,
    ) -> None:
        if num_shards < 1:
            raise ShardPlanError(f"num_shards must be >= 1, got {num_shards}")
        if backend not in SHARD_BACKENDS:
            raise ShardingError(
                f"unknown shard backend {backend!r}; choose from {SHARD_BACKENDS}"
            )
        if backend == "process" and (dataset is None or model_fn is None or local_config is None):
            raise ShardingError(
                "the process backend needs (dataset, model_fn, local_config) to "
                "rebuild client populations inside its spawn workers"
            )
        self.population = population
        self.schema = schema
        self.num_shards = int(num_shards)
        self.backend = backend
        self.seed = int(seed)
        self._fault_injector = fault_injector
        self._fault_ledger = fault_ledger
        self._dataset = dataset
        self._model_fn = model_fn
        self._local_config = local_config
        self._capacity_hint = int(capacity) if capacity else 0
        self.cohort_batching = bool(cohort_batching)
        #: hierarchical transcript of the data plane (one chain per shard)
        self.transcript = ShardedTranscript()
        #: the most recent round's plan (checkpoint round-trips it)
        self.last_plan: ShardPlan | None = None
        #: shards currently dispatched (empty between rounds; checkpoint
        #: round-trips it so a mid-round snapshot is honest about in-flight work)
        self.pending_shards: tuple[int, ...] = ()
        #: per-phase wall-clock of the last round, for the benchmarks
        self.last_timings: dict | None = None
        self._resources = _ShardResources()
        self._finalizer = weakref.finalize(self, _release_resources, self._resources)
        #: inline scratch plane, grown on demand
        self._inline_rows: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink the shared plane (idempotent).

        The engine stays usable: the next round lazily respawns what it
        needs.
        """
        _release_resources(self._resources)

    def __enter__(self) -> "ShardedRoundEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_plane(self, rows_needed: int) -> tuple[np.ndarray, np.ndarray]:
        """The shared ``(capacity, D)`` row plane + broadcast vector, (re)built
        with the spawn pool whenever capacity must grow."""
        resources = self._resources
        if resources.pool is not None and resources.capacity >= rows_needed:
            rows_segment, broadcast_segment = resources.segments
            rows = np.ndarray(
                (resources.capacity, self.schema.total_size),
                dtype=np.float32,
                buffer=rows_segment.buf,
            )
            broadcast = np.ndarray(
                (self.schema.total_size,), dtype=np.float32, buffer=broadcast_segment.buf
            )
            return rows, broadcast
        self.close()
        capacity = max(rows_needed, self._capacity_hint)
        total = self.schema.total_size
        rows_segment = shared_memory.SharedMemory(
            create=True, size=max(1, capacity * total * 4)
        )
        resources.segments.append(rows_segment)
        broadcast_segment = shared_memory.SharedMemory(create=True, size=max(1, total * 4))
        resources.segments.append(broadcast_segment)
        resources.capacity = capacity
        resources.pool = ProcessPoolExecutor(
            max_workers=self.num_shards,
            mp_context=get_context("spawn"),  # explicit: deterministic across platforms
            initializer=_worker_init,
            initargs=(
                self._dataset,
                self._model_fn,
                self._local_config,
                self.seed,
                self.schema.names,
                self.schema.shapes,
                rows_segment.name,
                capacity,
                broadcast_segment.name,
                self.cohort_batching,
            ),
        )
        rows = np.ndarray((capacity, total), dtype=np.float32, buffer=rows_segment.buf)
        broadcast = np.ndarray((total,), dtype=np.float32, buffer=broadcast_segment.buf)
        return rows, broadcast

    # ------------------------------------------------------------------
    # Fault resolution
    # ------------------------------------------------------------------
    def _resolve_shard_executors(self, plan: ShardPlan, round_index: int) -> list[str]:
        """Draw each shard's crash schedule; resolve through the ledger.

        A crash on attempt ``a < max_attempts - 1`` retries with backoff
        (``"retried"``); exhausting the budget fails the leaf over to the
        root, which adopts the orphaned slice (``"failed-over"`` — quorum
        degradation).  Every entry carries a resolution, so the ledger
        invariant holds by construction; and because the failover executor
        computes the identical pure-function rows, results are bit-identical
        under any crash schedule.
        """
        injector, ledger = self._fault_injector, self._fault_ledger
        executors = ["worker"] * plan.num_shards
        if injector is None or injector.config.shard_crash_rate <= 0.0:
            return executors
        max_attempts = injector.config.max_attempts
        for shard in range(plan.num_shards):
            for attempt in range(max_attempts):
                if not injector.shard_crash(shard, round_index, attempt):
                    break
                delay = injector.backoff("shard-crash", shard, round_index, attempt)
                if attempt + 1 >= max_attempts:
                    ledger.record(
                        "shard-crash", shard, round_index, attempt,
                        "failed-over", delay_seconds=delay,
                    )
                    executors[shard] = "failover-root"
                else:
                    ledger.record(
                        "shard-crash", shard, round_index, attempt,
                        "retried", delay_seconds=delay,
                    )
        return executors

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def train_round(
        self, client_ids: list[int], broadcast_state: dict, round_index: int
    ) -> list[ModelUpdate]:
        """Train one round's cohort through the sharded plane.

        Returns flat-backed updates in cohort order, bit-identical to what
        the serial path would produce.  On any failure the shared plane is
        torn down (segments unlinked) before the exception propagates.
        """
        try:
            return self._train_round(client_ids, broadcast_state, round_index)
        except Exception:
            self.close()
            raise

    def _train_round(
        self, client_ids: list[int], broadcast_state: dict, round_index: int
    ) -> list[ModelUpdate]:
        wall_start = time.perf_counter()
        cohort = [int(c) for c in client_ids]
        plan = ShardPlan.build(len(cohort), self.num_shards)
        self.last_plan = plan
        executors = self._resolve_shard_executors(plan, round_index)
        use_pool = self.backend == "process" and any(e == "worker" for e in executors)

        if use_pool:
            shared_rows, shared_broadcast = self._ensure_plane(len(cohort))
            self.schema.write_into(shared_broadcast, broadcast_state)
        else:
            if self._inline_rows is None or self._inline_rows.shape[0] < len(cohort):
                self._inline_rows = np.empty(
                    (len(cohort), self.schema.total_size), dtype=np.float32
                )
            shared_rows = self._inline_rows

        pairs_of = {
            shard: [(slot, cohort[slot]) for slot in plan.slots(shard)]
            for shard in range(plan.num_shards)
        }
        results: dict[int, tuple] = {}
        self.pending_shards = tuple(range(plan.num_shards))
        try:
            if use_pool:
                pool = self._resources.pool
                futures = [
                    pool.submit(_worker_run_shard, shard, pairs_of[shard], round_index)
                    for shard in range(plan.num_shards)
                    if executors[shard] == "worker"
                ]
                for future in futures:
                    shard, metas, partial, train_s, reduce_s = future.result()
                    results[shard] = (metas, partial, train_s, reduce_s)
            inline_worker = None
            for shard in range(plan.num_shards):
                if shard in results:
                    continue
                # inline backend, or a failed-over slice the root adopts
                if inline_worker is None:
                    inline_worker = ShardWorker(
                        self.population, self.schema, shared_rows, None,
                        cohort_batching=self.cohort_batching,
                    )
                _, metas, partial, train_s, reduce_s = inline_worker.run(
                    shard, pairs_of[shard], round_index, broadcast_state=broadcast_state
                )
                results[shard] = (metas, partial, train_s, reduce_s)
        finally:
            self.pending_shards = ()

        merge_start = time.perf_counter()
        # Root assembly: one copy out of the shared plane (the segment is
        # reused next round), then the witness cross-check.
        matrix = np.array(shared_rows[: len(cohort)], dtype=np.float32, copy=True)
        partials = [results[shard][1] for shard in range(plan.num_shards)]
        _check_partials(matrix, plan, partials)

        records = []
        for shard in range(plan.num_shards):
            start, end = plan.bounds[shard]
            records.append(
                _ShardRoundRecord(
                    shard_index=shard,
                    executor=executors[shard],
                    client_ids=tuple(cohort[start:end]),
                    row_digests=tuple(_row_digest(matrix[slot]) for slot in range(start, end)),
                    partial_digest=hashlib.sha256(
                        np.ascontiguousarray(partials[shard]).tobytes()
                    ).hexdigest(),
                )
            )
        self.transcript.append_round(round_index, plan, records)

        updates: list[ModelUpdate] = []
        for shard in range(plan.num_shards):
            for slot, (client_id, num_samples, final_loss) in zip(
                plan.slots(shard), results[shard][0]
            ):
                row = matrix[slot]
                updates.append(
                    ModelUpdate(
                        sender_id=client_id,
                        round_index=round_index,
                        state=self.schema.views(row),
                        num_samples=num_samples,
                        metadata={"final_loss": final_loss},
                        flat_vector=row,
                    )
                )
        merge_end = time.perf_counter()
        self.last_timings = {
            "per_shard_train_seconds": [
                results[shard][2] for shard in range(plan.num_shards)
            ],
            "per_shard_reduce_seconds": [
                results[shard][3] for shard in range(plan.num_shards)
            ],
            "merge_seconds": merge_end - merge_start,
            "wall_seconds": merge_end - wall_start,
        }
        return updates

    # ------------------------------------------------------------------
    # Checkpoint plumbing (the pool/plane is rebuilt lazily, never pickled)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """The engine's persistent state: plan, in-flight set, transcript."""
        return {
            "plan": self.last_plan,
            "pending_shards": self.pending_shards,
            "transcript": self.transcript,
        }

    def restore_checkpoint_state(self, state: dict) -> None:
        self.last_plan = state.get("plan")
        self.pending_shards = tuple(state.get("pending_shards", ()))
        transcript = state.get("transcript")
        self.transcript = transcript if transcript is not None else ShardedTranscript()
