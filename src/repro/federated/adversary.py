"""Deterministic Byzantine adversary plane: poisoning, replay, and the ledger.

The fault plane (:mod:`repro.federated.faults`) models *crash/omission*
failures — every surviving participant is still honest.  This module models
the Byzantine half: participants that survive and report, but report
*poison*.  Attack kinds cover the standard model-poisoning taxonomy (sign
flip, scaling, additive Gaussian, targeted backdoor, and the adaptive
within-variance ALIE-style attack computed on the round's flat ``(N, D)``
plane), plus proxy-level replay injection.

Design rules, identical to the fault plane:

* every adversary decision is a pure function of
  ``stable_seed(seed, "adv", kind, client, round)`` — never a shared
  sequential RNG — so attacker schedules are bit-identical across runs,
  execution orders, and ``parallelism`` settings;
* a fraction of ``0.0`` (and no explicit attacker ids) skips the hash draw
  entirely: every run arms one plane, and its default
  :class:`AdversaryConfig` draws nothing and records nothing, so it is the
  plane's one "off";
* every *injected* attack instance lands in the :class:`AdversaryLedger`
  with a resolution — ``merged``, ``filtered``, or ``rejected`` — so the
  accounting invariant ``injected == merged + filtered + rejected`` holds by
  construction and is checkable per round.  Poisoned updates are registered
  *pending* at injection and resolved when the server's aggregation policy
  decides their fate; replays are rejected at the proxy by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..nn.serialization import schema_of
from ..utils.rng import rng_from_seed, seeded_uniform, stable_seed
from .faults import Ledger, _resolved_count

__all__ = [
    "ATTACK_KINDS",
    "ADVERSARY_KINDS",
    "ADVERSARY_RESOLUTIONS",
    "AdversaryConfig",
    "AdversaryInjector",
    "AdversaryRecord",
    "AdversaryLedger",
    "update_contributors",
]

#: Every poisoning attack the injector can apply to a trained update.
ATTACK_KINDS = ("sign-flip", "scaling", "gaussian", "backdoor", "alie")

#: Every kind a ledger entry can carry (attacks plus proxy-level replays).
ADVERSARY_KINDS = ATTACK_KINDS + ("replay",)

#: How an injected adversary instance was resolved (exactly one each):
#: ``merged`` — the poison reached the global model; ``filtered`` — a robust
#: policy (or the pipeline) dropped it; ``rejected`` — the proxy refused it
#: outright (replays).
ADVERSARY_RESOLUTIONS = ("merged", "filtered", "rejected")


@dataclass(frozen=True)
class AdversaryConfig:
    """Attacker population and attack parameters for one simulation.

    Attackers are chosen either by ``fraction`` (independent per-``(client,
    round)`` hash draws, like the fault rates) or by explicit
    ``attacker_ids`` (a fixed malicious coalition) — exactly one of the two.
    The default config (zero fraction, no ids, zero replay rate) is the
    silent plane every run arms unless told otherwise: it draws no hash and
    poisons nothing.
    """

    #: P(a participant is Byzantine) per (client, round) hash draw
    fraction: float = 0.0
    #: explicit malicious coalition (mutually exclusive with ``fraction``)
    attacker_ids: tuple[int, ...] | None = None
    #: attack applied by every active attacker, from :data:`ATTACK_KINDS`
    kind: str = "sign-flip"
    #: sign-flip / scaling magnitude: the poisoned delta is ``-scale`` (sign
    #: flip) or ``+scale`` (scaling) times the honest delta
    scale: float = 1.0
    #: additive-Gaussian noise level (per-coordinate std dev)
    noise_sigma: float = 1.0
    #: ALIE deviation: attackers submit ``mean + alie_z * std`` of the benign
    #: cohort per coordinate — large enough to bias, small enough to hide
    #: within the benign variance
    alie_z: float = 1.0
    #: value the backdoor writes into its target coordinates
    backdoor_value: float = 5.0
    #: number of (deterministically drawn) coordinates the backdoor targets
    backdoor_dims: int = 16
    #: P(an attacker replays its own ciphertext to the proxy) per
    #: (client, round); rejected at the proxy by the replay guard
    replay_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(
                f"fraction must be in [0, 1) (at least one honest participant "
                f"must remain), got {self.fraction}"
            )
        if self.attacker_ids is not None:
            if self.fraction > 0.0:
                raise ValueError(
                    "fraction and attacker_ids are mutually exclusive; pick one "
                    "way to choose the malicious coalition"
                )
            object.__setattr__(
                self, "attacker_ids", tuple(sorted({int(i) for i in self.attacker_ids}))
            )
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; choose from {ATTACK_KINDS}")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if self.noise_sigma <= 0.0:
            raise ValueError(f"noise_sigma must be > 0, got {self.noise_sigma}")
        if self.alie_z < 0.0:
            raise ValueError(f"alie_z must be >= 0, got {self.alie_z}")
        if not np.isfinite(self.backdoor_value):
            raise ValueError(f"backdoor_value must be finite, got {self.backdoor_value}")
        if self.backdoor_dims < 1:
            raise ValueError(f"backdoor_dims must be >= 1, got {self.backdoor_dims}")
        if not 0.0 <= self.replay_rate < 1.0:
            raise ValueError(f"replay_rate must be in [0, 1), got {self.replay_rate}")


class AdversaryInjector:
    """One run's adversary plane: attacker activation, poisoning, the ledger.

    Every decision hashes ``(seed, "adv", kind, client, round)`` into its own
    one-shot RNG; a zero fraction (and empty coalition) returns without
    drawing, so the all-zero config leaves the RNG universe untouched.
    :attr:`ledger` is the run's :class:`AdversaryLedger`: poison registers
    there at injection and replays are recorded there at the proxy.
    """

    def __init__(self, seed: int = 0, config: AdversaryConfig = AdversaryConfig()) -> None:
        self.seed = int(seed)
        self.config = config
        self.ledger = AdversaryLedger()
        self._attacker_set = (
            frozenset(config.attacker_ids) if config.attacker_ids is not None else None
        )
        #: backdoor target coordinates, drawn once per (seed, D) — a backdoor
        #: aims at the *same* coordinates every round, or it isn't a backdoor
        self._backdoor_coords: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Activation draws
    # ------------------------------------------------------------------
    def is_attacker(self, client_id: int, round_index: int) -> bool:
        """Is this participant Byzantine this round?"""
        if self._attacker_set is not None:
            return client_id in self._attacker_set
        fraction = self.config.fraction
        if fraction <= 0.0:
            return False
        draw = seeded_uniform(stable_seed(self.seed, "adv", self.config.kind, client_id, round_index))
        return draw < fraction

    def should_replay(self, client_id: int, round_index: int) -> bool:
        """Does this attacker replay its ciphertext to the proxy this round?"""
        rate = self.config.replay_rate
        if rate <= 0.0:
            return False
        if not self.is_attacker(client_id, round_index):
            return False
        return seeded_uniform(stable_seed(self.seed, "adv", "replay", client_id, round_index)) < rate

    # ------------------------------------------------------------------
    # Poisoning (in place, on the flat plane)
    # ------------------------------------------------------------------
    def backdoor_coordinates(self, total_size: int) -> np.ndarray:
        """The backdoor's target coordinates for a ``D``-sized model."""
        coords = self._backdoor_coords.get(total_size)
        if coords is None:
            rng = rng_from_seed(stable_seed(self.seed, "adv", "backdoor-coords"))
            dims = min(self.config.backdoor_dims, total_size)
            coords = np.sort(rng.choice(total_size, size=dims, replace=False))
            self._backdoor_coords[total_size] = coords
        return coords

    def poison_round(self, updates: list, broadcast_state: dict, round_index: int) -> list[int]:
        """Poison the active attackers' updates in place; return their ids.

        Runs on the flat plane: each attacker's update is materialized as a
        flat vector and mutated in place (its state dict views follow), and
        registered pending in :attr:`ledger`.  The honest updates are never
        touched, and a config that can never activate an attacker returns
        before reading anything, so the silent plane changes no bit.
        """
        config = self.config
        if not (config.fraction > 0.0 or self._attacker_set):
            return []
        attacker_slots = [
            i
            for i, update in enumerate(updates)
            if self.is_attacker(update.sender_id, round_index)
        ]
        if not attacker_slots:
            return []
        schema = schema_of(updates[0].state)
        reference = schema.pack(broadcast_state)
        alie_target: np.ndarray | None = None
        if config.kind == "alie":
            # Within-variance target: per-coordinate benign mean + z·std,
            # computed over the honest cohort *before* any row is mutated.
            # An all-attacker round falls back to the full (pre-attack) batch.
            benign = [u.ensure_flat() for i, u in enumerate(updates) if i not in set(attacker_slots)]
            pool = benign if benign else [updates[i].ensure_flat() for i in attacker_slots]
            stacked = np.stack(pool).astype(np.float64)
            mu = stacked.mean(axis=0)
            sigma = stacked.std(axis=0)
            alie_target = (mu + config.alie_z * sigma).astype(np.float32)
        for i in attacker_slots:
            update = updates[i]
            row = update.ensure_flat()
            self._apply_attack(row, reference, alie_target, update.sender_id, round_index)
            update.metadata["poisoned"] = config.kind
            update.metadata["poison_round"] = round_index
            self.ledger.register(config.kind, update.sender_id, round_index)
        return [updates[i].sender_id for i in attacker_slots]

    def _apply_attack(
        self,
        row: np.ndarray,
        reference: np.ndarray,
        alie_target: np.ndarray | None,
        client_id: int,
        round_index: int,
    ) -> None:
        config = self.config
        kind = config.kind
        if kind == "sign-flip":
            # w' = ref − scale·(w − ref): the honest delta, reversed and scaled.
            row -= reference
            row *= np.float32(-config.scale)
            row += reference
        elif kind == "scaling":
            row -= reference
            row *= np.float32(config.scale)
            row += reference
        elif kind == "gaussian":
            rng = rng_from_seed(
                stable_seed(self.seed, "adv", "gaussian", client_id, round_index)
            )
            row += (config.noise_sigma * rng.standard_normal(row.shape)).astype(np.float32)
        elif kind == "backdoor":
            row[self.backdoor_coordinates(row.size)] = np.float32(config.backdoor_value)
        elif kind == "alie":
            row[:] = alie_target
        else:  # pragma: no cover - closed by config validation
            raise ValueError(f"unknown attack kind {kind!r}")


@dataclass
class AdversaryRecord:
    """One injected adversary instance and how the pipeline resolved it."""

    kind: str
    client_id: int
    #: the round the attack was *injected* (the attacker's dispatch round)
    round_index: int
    resolution: str = ""


@dataclass
class AdversaryLedger(Ledger):
    """Append-only account of every injected attack and its resolution.

    The invariant ``injected == merged + filtered + rejected`` holds by
    construction (:class:`~repro.federated.faults.Ledger`).  Poisoned
    updates whose fate is not yet known (they are still in the pipeline) sit
    in a *pending* set — registered at injection, resolved at the server
    merge via the contributor mapping (:func:`update_contributors`) or swept
    as ``filtered`` at the end of a run if they never arrived.
    """

    KINDS: ClassVar[tuple[str, ...]] = ADVERSARY_KINDS
    RESOLUTIONS: ClassVar[tuple[str, ...]] = ADVERSARY_RESOLUTIONS
    NAME: ClassVar[str] = "adversary"
    INSTANCE: ClassVar[str] = "adversary instance"

    #: (client_id, round_index) -> attack kind, awaiting a merge decision
    pending: dict[tuple[int, int], str] = field(default_factory=dict)

    merged = _resolved_count("merged")
    filtered = _resolved_count("filtered")
    rejected = _resolved_count("rejected")

    def record(
        self, kind: str, client_id: int, round_index: int, resolution: str
    ) -> AdversaryRecord:
        return self._append(
            AdversaryRecord(
                kind=kind,
                client_id=int(client_id),
                round_index=int(round_index),
                resolution=resolution,
            )
        )

    # ------------------------------------------------------------------
    # Pending poison bookkeeping
    # ------------------------------------------------------------------
    def register(self, kind: str, client_id: int, round_index: int) -> None:
        """Note an injected poison whose merge fate is not yet decided."""
        if kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {kind!r}; choose from {ATTACK_KINDS}")
        self.pending[(int(client_id), int(round_index))] = kind

    def resolve(self, client_id: int, round_index: int, resolution: str) -> None:
        """Resolve one pending poison into a ledger entry."""
        kind = self.pending.pop((int(client_id), int(round_index)), None)
        if kind is None:
            raise KeyError(
                f"no pending poison for client {client_id} round {round_index}"
            )
        self.record(kind, client_id, round_index, resolution)

    def resolve_contributors(self, kept_ids: set[int], dropped_ids: set[int]) -> None:
        """Resolve pending poison by who contributed to the merged model.

        A pending attacker whose id contributed to a *kept* update (directly,
        or as a layer source of a MixNN chimera) is ``merged`` — its poison
        reached the model.  One that only contributed to *dropped* updates is
        ``filtered``.  Ids in neither set stay pending (still in flight).
        """
        for (client_id, round_index) in list(self.pending):
            if client_id in kept_ids:
                self.resolve(client_id, round_index, "merged")
            elif client_id in dropped_ids:
                self.resolve(client_id, round_index, "filtered")

    def resolve_stranded(self, resolution: str = "filtered") -> int:
        """Resolve every still-pending poison (end of run: it never merged)."""
        stranded = list(self.pending)
        for client_id, round_index in stranded:
            self.resolve(client_id, round_index, resolution)
        return len(stranded)

    def validate(self) -> None:
        """Check the accounting invariant and that nothing is left pending."""
        super().validate()
        if self.pending:
            raise ValueError(
                f"adversary ledger has {len(self.pending)} unresolved pending "
                f"poisons; resolve or sweep them before validating"
            )


def update_contributors(update) -> set[int]:
    """Participant ids whose parameters an update (or chimera) contains.

    A plain update contributes its sender; a MixNN chimera contributes every
    layer source recorded in its ``unit_sources`` metadata — poison merged
    through mixing is still merged poison.
    """
    sources = update.metadata.get("unit_sources")
    if sources:
        return {int(s) for s in sources}
    return {int(update.sender_id)}
