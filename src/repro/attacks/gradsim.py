"""∇Sim: the similarity-based attribute-inference attack (§5).

The gradient vector a participant returns during a round reflects how its
local data pulled the broadcast model; ∇Sim uses it as a fingerprint.  For
each sensitive class the adversary trains a reference model from background
knowledge, derives the class's reference gradient direction, and scores each
participant by **cosine similarity** between the participant's update
direction and each class direction; the predicted attribute is the argmax.
Evidence accumulates across rounds ("this fingerprint can be amplified if the
attack is conducted during multiple rounds").

Two adversary modes (§3, §5):

* **passive** — a curious server that follows the protocol and merely
  observes; reference models are trained from the honest broadcast.
* **active** — a malicious server that *replaces* the broadcast with a model
  equidistant from the class reference models, maximizing the separation of
  the returned gradients.  This is the worst case evaluated in Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data.base import ClientDataset
from ..federated.client import LocalTrainingConfig
from ..federated.flat import FlatUpdateBatch
from ..federated.update import ModelUpdate, aggregate_states
from ..nn import Module
from .background import build_reference_states, reference_delta_matrix

__all__ = [
    "score_updates",
    "GradSimAttack",
    "RoundInference",
]


def score_updates(
    updates: list[ModelUpdate],
    broadcast_state: dict,
    class_deltas: tuple[list[int], np.ndarray],
) -> dict[int, dict[int, float]]:
    """∇Sim scoring of a whole round on the flat parameter plane.

    All ``N`` update directions against all ``K`` class directions in one
    ``(N, D) @ (D, K)`` matmul.  ``class_deltas`` is the ``(attributes,
    matrix)`` pair of :func:`~repro.attacks.background.reference_delta_matrix`.
    The per-update, per-class cosine loop it replaced is a test oracle
    (``tests/oracles/algebra.py``); the two agree to float32 precision and
    pick the same argmax on non-degenerate data.

    Returns ``{apparent_id: {attribute: cosine}}`` in update order, each
    inner dict in ``attributes`` order.
    """
    attributes, reference_matrix = class_deltas
    reference_matrix = np.asarray(reference_matrix, dtype=np.float32)
    deltas = FlatUpdateBatch.delta_matrix(updates, broadcast_state)  # (N, D) float32
    dots = deltas @ reference_matrix.T  # sgemm, (N, K)
    delta_norms = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    reference_norms = np.sqrt(np.einsum("ij,ij->i", reference_matrix, reference_matrix))
    denom = (delta_norms[:, None] * reference_norms[None, :]).astype(np.float64)
    cosines = np.divide(
        dots.astype(np.float64), denom, out=np.zeros((len(updates), len(attributes))), where=denom != 0.0
    )
    return {
        update.apparent_id: {
            attribute: float(cosines[i, j]) for j, attribute in enumerate(attributes)
        }
        for i, update in enumerate(updates)
    }


@dataclass
class RoundInference:
    """Per-round attack artifacts kept for analysis."""

    round_index: int
    similarities: dict[int, dict[int, float]]  # apparent_id -> {class: cos}
    predictions: dict[int, int]  # cumulative argmax after this round
    accuracy: float | None = None  # filled when ground truth is known


@dataclass
class GradSimAttack:
    """∇Sim attack engine, pluggable as a server observer.

    Parameters
    ----------
    background_clients:
        The adversary's auxiliary cohort with known attributes.
    model_fn / config:
        Same architecture and local-training recipe the participants use.
    mode:
        ``"passive"`` or ``"active"`` (see module docstring).
    background_ratio:
        Fraction of background users actually used (Figure 8 sweep).
    attack_epochs:
        Training budget for the reference models (paper: 5 rounds).
    """

    background_clients: list[ClientDataset]
    model_fn: Callable[[np.random.Generator], Module]
    config: LocalTrainingConfig
    rng: np.random.Generator
    mode: str = "active"
    background_ratio: float = 1.0
    attack_epochs: int | None = None
    truth: dict[int, int] | None = None

    history: list[RoundInference] = field(default_factory=list)
    _scores: dict[int, dict[int, float]] = field(default_factory=dict)
    _crafted_references: dict[int, dict] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("passive", "active"):
            raise ValueError(f"mode must be 'passive' or 'active', got {self.mode!r}")

    # ------------------------------------------------------------------
    # Active-mode broadcast crafting (server-side hook)
    # ------------------------------------------------------------------
    def craft_broadcast(self, round_index: int, global_state: dict) -> dict:
        """Malicious broadcast: the model equidistant from class references.

        The references are trained from the current aggregate; their mean is
        (in parameter space) equidistant from each of them, so every
        participant's subsequent gradient points toward its own class model.
        """
        references = build_reference_states(
            global_state,
            self.background_clients,
            self.model_fn,
            self.config,
            self.rng,
            ratio=self.background_ratio,
            attack_epochs=self.attack_epochs,
        )
        self._crafted_references = references
        return aggregate_states([references[key] for key in sorted(references)])

    # ------------------------------------------------------------------
    # Observation (runs on the server after each round)
    # ------------------------------------------------------------------
    def on_round(self, round_index: int, broadcast_state: dict, updates: list[ModelUpdate]) -> None:
        if self.mode == "active" and self._crafted_references is not None:
            references = self._crafted_references
            self._crafted_references = None
        else:
            references = build_reference_states(
                broadcast_state,
                self.background_clients,
                self.model_fn,
                self.config,
                self.rng,
                ratio=self.background_ratio,
                attack_epochs=self.attack_epochs,
            )
        class_deltas = reference_delta_matrix(references, broadcast_state)

        round_similarities = score_updates(updates, broadcast_state, class_deltas)
        for apparent_id, sims in round_similarities.items():
            cumulative = self._scores.setdefault(apparent_id, {})
            for attribute, value in sims.items():
                cumulative[attribute] = cumulative.get(attribute, 0.0) + value

        record = RoundInference(
            round_index=round_index,
            similarities=round_similarities,
            predictions=self.predictions(),
        )
        if self.truth is not None:
            record.accuracy = self.accuracy(self.truth)
        self.history.append(record)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def predictions(self) -> dict[int, int]:
        """Cumulative attribute prediction per (apparent) participant."""
        return {
            participant: max(scores.items(), key=lambda kv: kv[1])[0]
            for participant, scores in self._scores.items()
        }

    def accuracy(self, truth: dict[int, int]) -> float:
        """Inference accuracy against the true attributes (§6.1.2)."""
        predictions = self.predictions()
        scored = [p for p in predictions if p in truth]
        if not scored:
            raise ValueError("no overlap between predictions and ground truth")
        hits = sum(predictions[p] == truth[p] for p in scored)
        return hits / len(scored)

    def accuracy_curve(self) -> list[float]:
        """Cumulative inference accuracy after each round (Figure 7 series)."""
        return [record.accuracy for record in self.history if record.accuracy is not None]
