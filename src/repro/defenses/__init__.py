"""``repro.defenses`` — protection schemes the server-side adversary faces.

The paper's three compared schemes — classical FL (:class:`NoDefense`), the
local-DP noisy-gradient baseline (:class:`GaussianNoiseDefense`) and MixNN
(:class:`MixNNDefense`) — plus two extensions used by the comparison
benchmarks: Bonawitz-style pairwise-masking secure aggregation
(:class:`SecureAggregationDefense`) and calibrated DP clip-and-noise
(:class:`ClipAndNoiseDefense`).
"""

from .base import Defense, NoDefense
from .dp import ClipAndNoiseDefense
from .mixnn_defense import MixNNDefense
from .noisy_gradient import GaussianNoiseDefense
from .secure_aggregation import SecureAggregationDefense

__all__ = [
    "Defense",
    "NoDefense",
    "GaussianNoiseDefense",
    "MixNNDefense",
    "SecureAggregationDefense",
    "ClipAndNoiseDefense",
]
