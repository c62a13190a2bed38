"""Aggregation server.

Implements step ❶ (broadcast) and step ❸ (aggregate) of the classical FL
flow (Figure 2).  The server is the *adversary* in the paper's threat model
(§3): hooks allow an attack to observe every received update (passive ∇Sim)
and to replace the broadcast model (active ∇Sim).  The aggregation logic
itself is honest in both cases — the paper's malicious server still wants the
main task to converge.

Every merge goes through the server's one
:class:`~repro.federated.aggregation.AggregationPolicy` — the default policy
is the classical FedAvg mean — whether the round was trained serially,
cohort-batched, or on leaf shards.

Memory model: the server keeps **no per-round history**.  The simulation
owns the one received-update history (``retain_received_updates``); attacks
and analyses that need more register a :class:`ServerObserver` and decide
their own retention.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from ..nn import Module
from .aggregation import AggregationPolicy, AggregationReport
from .integrity import RoundTranscript, state_digest, update_digest
# ``aggregate_updates`` stays bound here: perfbench's harness test reads
# ``server.aggregate_updates`` to check that its tracer restores the binding.
from .update import ModelUpdate, aggregate_updates  # noqa: F401

__all__ = ["ServerObserver", "AggregationServer"]


class ServerObserver(Protocol):
    """Interface for adversarial (or monitoring) observers on the server.

    ``on_round`` is invoked once per round with the state that was broadcast
    and the updates as the server received them (post-defense, post-proxy).
    """

    def on_round(self, round_index: int, broadcast_state: dict, updates: list[ModelUpdate]) -> None:
        ...  # pragma: no cover - protocol


class AggregationServer:
    """FedAvg server with adversarial hooks."""

    def __init__(
        self,
        initial_state: dict,
        sample_weighted: bool = False,
        broadcast_hook: Callable[[int, dict], dict] | None = None,
        staleness_alpha: float | None = None,
        fault_injector=None,
        fault_ledger=None,
        policy: AggregationPolicy = AggregationPolicy(),
        transcript: RoundTranscript | None = None,
    ) -> None:
        self.global_state = {k: np.asarray(v, dtype=np.float32).copy() for k, v in initial_state.items()}
        self.sample_weighted = sample_weighted
        #: FedBuff-style staleness discount for buffered-async rounds; ``None``
        #: (the default) aggregates every update at full weight.
        self.staleness_alpha = staleness_alpha
        self.broadcast_hook = broadcast_hook
        self.observers: list[ServerObserver] = []
        self.round_index = 0
        #: fault plane hooks — injected merge failures retry with backoff
        self._fault_injector = fault_injector
        self._fault_ledger = fault_ledger
        #: the aggregation rule every merge applies (default: the mean)
        self.policy = policy
        #: hash-chained audit log of every merge (always on — pure SHA-256
        #: bookkeeping, no RNG or numeric effect on the aggregate)
        self.transcript = transcript if transcript is not None else RoundTranscript()
        #: what the last merge kept/dropped (participant-level filtering)
        self.last_aggregation_report: AggregationReport | None = None
        self._last_broadcast: dict | None = None

    @classmethod
    def from_model(cls, model: Module, **kwargs) -> "AggregationServer":
        return cls(model.state_dict(), **kwargs)

    def add_observer(self, observer: ServerObserver) -> None:
        self.observers.append(observer)

    # ------------------------------------------------------------------
    # Round protocol
    # ------------------------------------------------------------------
    def broadcast(self) -> dict:
        """Model state disseminated this round (step ❶).

        A malicious server (active ∇Sim) substitutes a crafted model through
        ``broadcast_hook``; an honest server sends the current aggregate.

        The returned dict is the live state — treat it as read-only (clients
        copy on :meth:`~repro.nn.module.Module.load_state_dict`).  A pristine
        per-parameter copy for observers is only taken when observers are
        registered, so the hook-less, observer-less fast path broadcasts with
        zero copies.
        """
        state = self.global_state
        if self.broadcast_hook is not None:
            state = self.broadcast_hook(self.round_index, state)
        if self.observers:
            self._last_broadcast = {k: np.asarray(v).copy() for k, v in state.items()}
        else:
            self._last_broadcast = state
        return state

    def receive_and_aggregate(self, updates: list[ModelUpdate]) -> dict:
        """Aggregate received updates into the next global model (step ❸)."""
        if not updates:
            raise ValueError(
                f"no updates received in round {self.round_index} — either no clients "
                "were selected (check clients_per_round) or every selected client "
                "dropped out / missed the deadline (check the scenario's "
                "availability, latency, and deadline settings)"
            )
        for observer in self.observers:
            observer.on_round(self.round_index, self._last_broadcast, updates)
        injector, ledger = self._fault_injector, self._fault_ledger
        if injector is not None and injector.config.merge_failure_rate > 0:
            # A crashed/delayed merge is retried against the same buffered
            # updates; the delay lands on the round's recovery time budget.
            for attempt in range(injector.config.max_attempts):
                if not injector.merge_fault(self.round_index, attempt):
                    break
                delay = injector.backoff("merge", -1, self.round_index, attempt)
                ledger.record(
                    "merge", -1, self.round_index, attempt, "retried", delay_seconds=delay
                )
        rule = self.policy.rule
        new_state, kept, dropped = self.policy.aggregate(
            updates,
            reference=self.global_state,
            sample_weighted=self.sample_weighted,
            staleness_alpha=self.staleness_alpha,
        )
        self.last_aggregation_report = AggregationReport(rule=rule, kept=kept, dropped=dropped)
        self.transcript.append(
            round_index=self.round_index,
            rule=rule,
            updates=[(u.apparent_id, update_digest(u)) for u in updates],
            kept=list(kept),
            aggregate_digest=state_digest(new_state),
        )
        self.global_state = new_state
        self.round_index += 1
        return self.global_state
