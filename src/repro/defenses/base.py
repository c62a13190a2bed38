"""Defense interface.

A defense transforms the set of participant updates *before the aggregation
server sees them*.  Three concrete defenses cover the paper's comparison:

* :class:`NoDefense` — classical FL (updates pass through untouched);
* :class:`~repro.defenses.noisy_gradient.GaussianNoiseDefense` — the local-DP
  style noisy-gradient baseline;
* :class:`~repro.defenses.mixnn_defense.MixNNDefense` — routing through the
  MixNN proxy.
"""

from __future__ import annotations

import abc

import numpy as np

from ..federated.adversary import AdversaryInjector
from ..federated.faults import FaultInjector
from ..federated.update import ModelUpdate

__all__ = ["Defense", "NoDefense"]


class Defense(abc.ABC):
    """Transforms a round's updates on their way to the server.

    A defense holds the run's fault and adversary planes: zero-rate ones
    until the simulation hands over its own through :meth:`attach_planes`,
    when it is built and again when it restores a checkpoint.
    """

    #: identifier used in reports ("classical-fl", "noisy-gradient", "mixnn")
    name: str = "defense"

    def __init__(self) -> None:
        self._faults = FaultInjector()
        self._adversary = AdversaryInjector()

    def attach_planes(self, faults: FaultInjector, adversary: AdversaryInjector) -> None:
        """Wire the simulation's fault and adversary planes into this defense.

        The base implementation just stores them; defenses with internal
        infrastructure (the MixNN proxy chain) also hand the fault plane
        downstream and inject adversary behaviour *below* the update layer
        (the MixNN defense replays attacker ciphertexts against the proxy's
        replay guard).
        """
        self._faults = faults
        self._adversary = adversary

    @abc.abstractmethod
    def process_round(
        self,
        updates: list[ModelUpdate],
        rng: np.random.Generator,
        broadcast_state: dict | None = None,
    ) -> list[ModelUpdate]:
        """Return the updates as the aggregation server will receive them.

        ``broadcast_state`` is the model the participants refined this round;
        defenses that operate on update *deltas* (e.g. DP clipping) need it,
        the others may ignore it.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NoDefense(Defense):
    """Classical federated learning: the server sees raw updates."""

    name = "classical-fl"

    def process_round(
        self,
        updates: list[ModelUpdate],
        rng: np.random.Generator,
        broadcast_state: dict | None = None,
    ) -> list[ModelUpdate]:
        return updates
