"""``repro.attacks`` — ∇Sim and the §6.4 robustness analyses."""

from .background import build_reference_states
from .gradsim import GradSimAttack, RoundInference
from .membership import MembershipAttack, MembershipReport, per_sample_losses
from .reconstruction import (
    RelinkAttack,
    RelinkReport,
    neighbor_counts,
    pairwise_distances,
)
from .timing import TimingAttackReport, TimingSideChannel

__all__ = [
    "GradSimAttack",
    "RoundInference",
    "build_reference_states",
    "neighbor_counts",
    "pairwise_distances",
    "RelinkAttack",
    "RelinkReport",
    "MembershipAttack",
    "MembershipReport",
    "per_sample_losses",
    "TimingSideChannel",
    "TimingAttackReport",
]
