"""Paper-vs-measured reporting.

Holds the reference numbers quoted in the paper's prose and renders ASCII
tables so every benchmark prints the same rows/series the paper reports,
side by side with the measured values.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["PAPER_CLAIMS", "format_table", "format_series"]

#: Claims extracted from §6 of the paper, used by the runner and the
#: benchmark printers.  Values are the paper's, on the real datasets.
PAPER_CLAIMS: dict[str, dict] = {
    "figure5": {
        "statement": "MixNN matches classical FL accuracy; noisy gradient is ~10 points lower and converges slower",
        "noisy_gap_points": 10,
    },
    "figure6": {
        "statement": "per-participant accuracy at round 6: noisy 0.56 vs MixNN 0.68 on average",
        "noisy_mean": 0.56,
        "mixnn_mean": 0.68,
    },
    "figure7": {
        "statement": "active ∇Sim on classical FL: 1.00 (CIFAR10, 4 rounds), ~0.80 MotionSense, "
        "~0.94 MobiAct, ~0.66 LFW after 5 rounds; MixNN at random guess (0.33 CIFAR10, ~0.5 others)",
        "classical_fl": {"cifar10": 1.00, "motionsense": 0.80, "mobiact": 0.94, "lfw": 0.66},
        "mixnn": {"cifar10": 0.33, "motionsense": 0.50, "mobiact": 0.50, "lfw": 0.50},
    },
    "figure8": {
        "statement": "more background knowledge raises inference for classical FL and noisy gradient; "
        "MixNN stays near random guess at every ratio",
    },
    "figure9": {
        "statement": "every participant has at least a few neighbors with very close gradients",
    },
    "system": {
        "statement": "per-update cost 0.19 s / 26.9 MB (2conv+3fc) and 0.22 s / 51.3 MB (3conv+3fc); "
        "0.17 s decrypt + 0.02 s store; mixing 0.03 s",
        "two_conv": {"seconds": 0.19, "mb": 26.9},
        "three_conv": {"seconds": 0.22, "mb": 51.3},
        "mixing_seconds": 0.03,
    },
}


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an ASCII table with auto-sized columns."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_series(name: str, values: Sequence[float], precision: int = 3) -> str:
    """One labelled number series, rounded."""
    rendered = ", ".join(f"{v:.{precision}f}" for v in values)
    return f"{name}: [{rendered}]"
