"""Latency summaries for the systems evaluation (§6.5) and the virtual-time
round engine's measured wall-clock statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatencySummary",
    "summarize_latencies",
    "RoundTimingSummary",
    "summarize_round_timing",
    "arrival_latencies",
]


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate statistics over per-update processing times (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float

    def as_row(self) -> dict:
        return {
            "count": self.count,
            "mean_s": round(self.mean, 4),
            "p50_s": round(self.p50, 4),
            "p95_s": round(self.p95, 4),
            "max_s": round(self.maximum, 4),
        }


def summarize_latencies(samples) -> LatencySummary:
    """Summarize a sequence of latency samples."""
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot summarize an empty latency sample")
    return LatencySummary(
        count=int(values.size),
        mean=float(values.mean()),
        p50=float(np.percentile(values, 50)),
        p95=float(np.percentile(values, 95)),
        maximum=float(values.max()),
    )


# ----------------------------------------------------------------------
# Virtual-time round engine statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoundTimingSummary:
    """Measured wall-clock profile of a scenario run's event stream.

    Everything here comes from timestamps the engine actually replayed
    (:class:`~repro.federated.simulation.RoundRecord.arrival_times`, round
    close events) — not from bookkeeping formulas.
    """

    rounds: int
    #: virtual seconds from the first broadcast to the last round close
    total_seconds: float
    mean_round_seconds: float
    p95_round_seconds: float
    #: merged updates per virtual second over the whole run
    effective_throughput: float
    #: mean fraction of a round the average participant idled after uploading
    mean_idle_fraction: float
    #: fault-plane profile (all zero for fault-free runs)
    total_faults: int = 0
    total_retries: int = 0
    total_recovery_seconds: float = 0.0
    #: percentiles over individual non-zero recovery delays (backoffs,
    #: failover setup) — how long one fault takes to recover from
    recovery_p50_seconds: float = 0.0
    recovery_p99_seconds: float = 0.0

    def as_row(self) -> dict:
        return {
            "rounds": self.rounds,
            "total_s": round(self.total_seconds, 4),
            "mean_round_s": round(self.mean_round_seconds, 4),
            "p95_round_s": round(self.p95_round_seconds, 4),
            "merged_per_s": round(self.effective_throughput, 4),
            "idle_fraction": round(self.mean_idle_fraction, 4),
            "faults": self.total_faults,
            "retries": self.total_retries,
            "recovery_s": round(self.total_recovery_seconds, 4),
            "recovery_p50_s": round(self.recovery_p50_seconds, 4),
            "recovery_p99_s": round(self.recovery_p99_seconds, 4),
        }


def summarize_round_timing(records) -> RoundTimingSummary:
    """Profile a run's :class:`~repro.federated.simulation.RoundRecord` list."""
    records = list(records)
    if not records:
        raise ValueError("cannot summarize an empty round list")
    durations = np.asarray([r.simulated_duration for r in records], dtype=np.float64)
    total = float(durations.sum())
    merged = float(sum(r.num_aggregated for r in records))
    timed = [r.idle_fraction for r in records if r.simulated_duration > 0.0]
    recovery = [float(delay) for r in records for delay in r.recovery_latencies]
    return RoundTimingSummary(
        rounds=len(records),
        total_seconds=total,
        mean_round_seconds=float(durations.mean()),
        p95_round_seconds=float(np.percentile(durations, 95)),
        effective_throughput=merged / total if total > 0.0 else 0.0,
        mean_idle_fraction=float(np.mean(timed)) if timed else 0.0,
        total_faults=int(sum(r.num_faults for r in records)),
        total_retries=int(sum(r.num_retries for r in records)),
        total_recovery_seconds=float(sum(r.recovery_seconds for r in records)),
        recovery_p50_seconds=float(np.percentile(recovery, 50)) if recovery else 0.0,
        recovery_p99_seconds=float(np.percentile(recovery, 99)) if recovery else 0.0,
    )


def arrival_latencies(records) -> list[float]:
    """Per-merged-update round-trip latencies observed on the event stream.

    Reads ``RoundRecord.merged_latencies`` — each update's true
    dispatch→arrival span, so a stale buffered-async straggler contributes
    its full transit time, not just the residual wait in the round that
    finally merged it.  Suitable input for :func:`summarize_latencies` —
    e.g. the measured broadcast-to-arrival distribution of a
    deadline-vs-throughput study.
    """
    return [float(latency) for record in records for latency in record.merged_latencies]
