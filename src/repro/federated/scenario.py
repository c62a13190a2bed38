"""Scenario models: client churn, stragglers, and asynchronous rounds.

The paper evaluates MixNN under an idealized synchronous flow — every
selected client trains and reports each round (Figures 2–3).  Real
deployments see *churn* (devices go offline), *stragglers* (slow devices
miss the round), and *asynchrony* (the server cannot afford to wait for the
slowest participant).  This module models those regimes on top of the
existing round engine without perturbing it when no scenario is configured.

Design rules, mirroring the training RNGs:

* every stochastic scenario decision is derived from
  ``stable_seed(seed, label, client_id, round_index)`` alone — never from a
  shared sequential RNG — so availability and latency draws are identical
  across ``parallelism`` settings and independent of execution order;
* :class:`ScenarioConfig` with all defaults is behaviour-identical to no
  scenario at all (full participation, synchronous aggregation);
* scenario metadata (``staleness``, ``latency``, ``origin_round``) rides on
  :class:`~repro.federated.update.ModelUpdate.metadata` so downstream
  consumers (aggregation weighting, benchmarks) need no new plumbing.

Aggregation modes
-----------------
``"sync"``
    The server waits for every surviving participant (optionally cut by a
    ``deadline`` against the latency model) and averages them — today's flow.
``"buffered-async"``
    FedBuff-style (Nguyen et al., AISTATS'22): the server aggregates the
    first ``buffer_size`` *arrivals* each round; later arrivals stay in
    flight and join a future round carrying ``staleness = rounds late``,
    down-weighted by ``(1 + staleness) ** -staleness_alpha`` inside
    :func:`~repro.federated.update.aggregate_updates`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..utils.rng import rng_from_seed, seeded_uniform, stable_seed
from .adversary import AdversaryConfig
from .faults import FaultConfig

__all__ = [
    "ClientAvailability",
    "AlwaysAvailable",
    "RandomDropout",
    "ChurnTrace",
    "LatencyModel",
    "FixedLatency",
    "LogNormalLatency",
    "ScenarioConfig",
    "staleness_weight",
]

AGGREGATION_MODES = ("sync", "buffered-async")


# ----------------------------------------------------------------------
# Availability (churn)
# ----------------------------------------------------------------------
class ClientAvailability(abc.ABC):
    """Decides, per round, whether a selected client actually participates.

    Implementations must be pure functions of ``(seed, client_id,
    round_index)`` so the decision is reproducible across runs, execution
    orders, and parallelism settings.
    """

    @abc.abstractmethod
    def is_available(self, seed: int, client_id: int, round_index: int) -> bool:
        """Whether ``client_id`` shows up for ``round_index``."""

    def filter_available(
        self, seed: int, client_ids: Iterable[int], round_index: int
    ) -> list[int]:
        """The subset of ``client_ids`` that shows up this round, order
        preserved.  One hash draw per *selected* client — the population-scale
        engine funnels cohorts through here before materializing anyone, so
        churn costs nothing for the unselected millions."""
        return [
            client_id
            for client_id in client_ids
            if self.is_available(seed, client_id, round_index)
        ]


class AlwaysAvailable(ClientAvailability):
    """No churn: every selected client participates (the paper's setting)."""

    def is_available(self, seed: int, client_id: int, round_index: int) -> bool:
        return True

    def filter_available(
        self, seed: int, client_ids: Iterable[int], round_index: int
    ) -> list[int]:
        return list(client_ids)


@dataclass(frozen=True)
class RandomDropout(ClientAvailability):
    """Independent per-(client, round) dropout with a fixed probability.

    The draw comes from ``stable_seed(seed, "availability", client_id,
    round_index)`` — the same derivation scheme as the training RNGs — so a
    client's fate this round is a pure function of the tuple, not of how many
    other clients were polled before it.
    """

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {self.probability}")

    def is_available(self, seed: int, client_id: int, round_index: int) -> bool:
        if self.probability == 0.0:
            return True
        return seeded_uniform(stable_seed(seed, "availability", client_id, round_index)) >= self.probability


class ChurnTrace(ClientAvailability):
    """Replay an explicit availability trace (round → available client ids).

    Rounds absent from the trace fall back to ``default_available`` — so a
    trace can describe only the outage windows of interest.
    """

    def __init__(self, trace: Mapping[int, Iterable[int]], default_available: bool = True) -> None:
        self.trace = {int(r): frozenset(int(c) for c in ids) for r, ids in trace.items()}
        self.default_available = default_available

    def is_available(self, seed: int, client_id: int, round_index: int) -> bool:
        available = self.trace.get(round_index)
        if available is None:
            return self.default_available
        return client_id in available

    def __repr__(self) -> str:
        return f"ChurnTrace(rounds={sorted(self.trace)}, default={self.default_available})"


# ----------------------------------------------------------------------
# Stragglers (latency)
# ----------------------------------------------------------------------
class LatencyModel(abc.ABC):
    """Simulated wall-clock seconds between broadcast and an update's arrival.

    Like availability, a pure function of ``(seed, client_id, round_index)``.
    """

    @abc.abstractmethod
    def latency(self, seed: int, client_id: int, round_index: int) -> float:
        """Simulated seconds for ``client_id``'s round-trip this round."""


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant per-client latency — handy for deterministic tests and traces.

    ``per_client`` overrides the default for specific client ids.
    """

    seconds: float = 1.0
    per_client: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"latency must be >= 0, got {self.seconds}")
        if isinstance(self.per_client, Mapping):  # accept a plain dict too
            object.__setattr__(self, "per_client", tuple(self.per_client.items()))
        object.__setattr__(self, "_table", dict(self.per_client))

    def latency(self, seed: int, client_id: int, round_index: int) -> float:
        return float(self._table.get(client_id, self.seconds))


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """Log-normal round-trip times with an optional heavy straggler tail.

    ``median`` is the typical round-trip; ``sigma`` the log-scale spread.  A
    ``straggler_fraction`` of (client, round) pairs additionally multiply
    their draw by ``straggler_multiplier`` — the bimodal "phone went to the
    pocket" tail that deadline-based cutting is designed for.

    ``client_spread`` adds a *systematic* per-client speed factor
    ``exp(client_spread · z_c)`` with ``z_c ~ N(0, 1)`` drawn once per client
    (a pure function of ``(seed, client_id)``): real fleets mix fast and slow
    devices whose relative speed persists across rounds.  This is exactly the
    component a timing side-channel adversary
    (:class:`~repro.attacks.timing.TimingSideChannel`) can profile — with the
    default ``0.0`` every draw is i.i.d. across rounds and arrival order
    carries no identity signal.
    """

    median: float = 1.0
    sigma: float = 0.5
    straggler_fraction: float = 0.0
    straggler_multiplier: float = 10.0
    client_spread: float = 0.0

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError(f"median latency must be > 0, got {self.median}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ValueError(
                f"straggler_fraction must be in [0, 1], got {self.straggler_fraction}"
            )
        if self.straggler_multiplier < 1.0:
            raise ValueError(
                f"straggler_multiplier must be >= 1, got {self.straggler_multiplier}"
            )
        if self.client_spread < 0:
            raise ValueError(f"client_spread must be >= 0, got {self.client_spread}")

    def latency(self, seed: int, client_id: int, round_index: int) -> float:
        rng = rng_from_seed(stable_seed(seed, "latency", client_id, round_index))
        value = self.median * math.exp(self.sigma * float(rng.standard_normal()))
        if self.straggler_fraction and float(rng.random()) < self.straggler_fraction:
            value *= self.straggler_multiplier
        if self.client_spread:
            speed_rng = rng_from_seed(stable_seed(seed, "client-speed", client_id))
            value *= math.exp(self.client_spread * float(speed_rng.standard_normal()))
        return float(value)


# ----------------------------------------------------------------------
# Staleness weighting
# ----------------------------------------------------------------------
def staleness_weight(staleness: int, alpha: float) -> float:
    """FedBuff-style polynomial down-weighting: ``(1 + s) ** -alpha``.

    ``staleness`` is how many rounds late the update arrived (0 = on time,
    weight 1); larger ``alpha`` discounts stale contributions harder.
    """
    if staleness < 0:
        raise ValueError(f"staleness must be >= 0, got {staleness}")
    if staleness == 0:
        return 1.0
    return float((1.0 + staleness) ** (-alpha))


# ----------------------------------------------------------------------
# The scenario bundle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioConfig:
    """Operating-regime knobs for :class:`~repro.federated.simulation.FederatedSimulation`.

    All defaults are behaviour-identical to running without a scenario: full
    availability, no latency model, synchronous aggregation.  Mix and match:

    * ``availability`` — churn model (:class:`RandomDropout`,
      :class:`ChurnTrace`); dropped clients neither train nor report.
    * ``latency`` + ``deadline`` — stragglers; in ``"sync"`` mode a client
      whose simulated latency exceeds the deadline misses the round entirely.
    * ``aggregation="buffered-async"`` + ``buffer_size`` — the server
      aggregates the first ``buffer_size`` arrivals; the rest stay in flight
      and land in a later round with ``staleness`` metadata, down-weighted by
      ``staleness_alpha`` (and discarded beyond ``max_staleness``).
    """

    availability: ClientAvailability | None = None
    latency: LatencyModel | None = None
    #: simulated seconds after which a sync round closes (requires ``latency``)
    deadline: float | None = None
    aggregation: str = "sync"
    #: K of the FedBuff-style buffer (buffered-async mode takes exactly one
    #: of ``buffer_size`` and ``buffer_fraction``)
    buffer_size: int | None = None
    #: alternative to ``buffer_size``: K as a fraction of the cohort that
    #: actually dispatched each round, resolved via :meth:`effective_buffer_size`
    buffer_fraction: float | None = None
    #: polynomial staleness discount exponent (0 = no down-weighting)
    staleness_alpha: float = 0.5
    #: in-flight updates older than this many rounds are discarded, not
    #: merged.  The default (10) also bounds the async backlog: without it a
    #: buffer persistently smaller than the arrival rate would accumulate
    #: full model states without limit.  ``None`` = keep everything forever.
    max_staleness: int | None = 10
    #: fault-injection rates and recovery policy (the quorum of every sync
    #: round included).  The all-zero default is the fault plane's only
    #: "off": it injects nothing and draws no hash.
    faults: FaultConfig = FaultConfig()
    #: Byzantine adversary plane.  The default (zero fraction, no explicit
    #: attackers, zero replay rate) is its only "off": it poisons nothing and
    #: draws no hash.
    adversary: AdversaryConfig = AdversaryConfig()

    def __post_init__(self) -> None:
        for name, plane in (("faults", FaultConfig), ("adversary", AdversaryConfig)):
            if not isinstance(getattr(self, name), plane):
                raise TypeError(
                    f"{name} must be a {plane.__name__}, got {getattr(self, name)!r}; "
                    f"the zero-rate {plane.__name__}() default is the plane's off switch"
                )
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"unknown aggregation mode {self.aggregation!r}; choose from {AGGREGATION_MODES}"
            )
        if self.deadline is not None:
            if self.deadline <= 0:
                raise ValueError(
                    f"deadline must be > 0 simulated seconds (a non-positive deadline "
                    f"would close every round before anything can arrive), got {self.deadline}"
                )
            if self.latency is None:
                raise ValueError("a deadline requires a latency model to measure against")
        if self.buffer_fraction is not None and not 0.0 < self.buffer_fraction <= 1.0:
            raise ValueError(
                f"buffer_fraction must be in (0, 1] — it is the share of each "
                f"round's dispatched cohort the async buffer waits for — got "
                f"{self.buffer_fraction}"
            )
        if self.aggregation == "buffered-async":
            if self.buffer_size is None and self.buffer_fraction is None:
                raise ValueError(
                    "buffered-async aggregation requires buffer_size >= 1 or "
                    "buffer_fraction in (0, 1]"
                )
            if self.buffer_size is not None and self.buffer_fraction is not None:
                raise ValueError(
                    "buffer_size and buffer_fraction are mutually exclusive; "
                    "pick one way to size the async buffer"
                )
            if self.buffer_size is not None and self.buffer_size < 1:
                raise ValueError(
                    f"buffered-async aggregation requires buffer_size >= 1, got {self.buffer_size}"
                )
        else:
            if self.buffer_size is not None:
                raise ValueError("buffer_size only applies to buffered-async aggregation")
            if self.buffer_fraction is not None:
                raise ValueError("buffer_fraction only applies to buffered-async aggregation")
        if self.staleness_alpha < 0:
            raise ValueError(
                f"staleness_alpha must be >= 0 (it is the exponent of the "
                f"(1 + staleness)^-alpha discount; negative values would "
                f"up-weight stale updates), got {self.staleness_alpha}"
            )
        if self.max_staleness is not None and self.max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {self.max_staleness}")

    @property
    def is_async(self) -> bool:
        return self.aggregation == "buffered-async"

    def effective_buffer_size(self, dispatched: int) -> int:
        """Resolve the async buffer's K for a round that dispatched ``dispatched``
        clients: ``buffer_size`` verbatim, or ``buffer_fraction`` of the cohort
        (at least 1)."""
        if self.buffer_size is not None:
            return self.buffer_size
        if self.buffer_fraction is None:
            raise ValueError("neither buffer_size nor buffer_fraction is configured")
        return max(1, int(round(self.buffer_fraction * dispatched)))
