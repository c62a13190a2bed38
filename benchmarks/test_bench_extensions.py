"""Extension benchmarks: defense roster, passive vs active, re-linking.

These extend the paper's evaluation (§6): the five-defense comparison
renders §1's positioning argument as numbers; passive-vs-active
quantifies §5's two adversary modes; the re-linking run turns §6.4's
robustness argument into a measured attack failure.
"""

import numpy as np

from repro.experiments.extensions import (
    render_study,
    run_passive_vs_active,
    run_relink_robustness,
    run_study,
)

from .conftest import print_report


def test_defense_comparison(benchmark):
    rows = benchmark.pedantic(
        lambda: run_study("defenses", dataset="motionsense", rounds=4), iterations=1, rounds=1
    )
    print_report(
        "Extension: five defenses vs active ∇Sim (MotionSense)",
        render_study("defenses", rows),
    )
    by_name = {row["defense"]: row for row in rows}
    fl_accuracy = by_name["classical-fl"]["final_accuracy"]
    # MixNN and secure aggregation must match classical FL utility...
    assert abs(by_name["mixnn"]["final_accuracy"] - fl_accuracy) < 0.02
    assert abs(by_name["secure-aggregation"]["final_accuracy"] - fl_accuracy) < 0.05
    # ...and both must (near-)eliminate the leak while FL leaks massively.
    assert by_name["classical-fl"]["leakage"] > 0.3
    assert by_name["mixnn"]["leakage"] < 0.15
    assert by_name["secure-aggregation"]["leakage"] < 0.15


def test_passive_vs_active(benchmark):
    curves = benchmark.pedantic(
        lambda: run_passive_vs_active("motionsense", rounds=4), iterations=1, rounds=1
    )
    body = "\n".join(
        f"  {mode:>8}: " + "  ".join(f"{v:.3f}" for v in curve) for mode, curve in curves.items()
    )
    print_report("Extension: passive vs active ∇Sim on classical FL", body)
    assert np.mean(curves["active"]) >= np.mean(curves["passive"]) - 0.1
    assert np.mean(curves["passive"]) > 0.5  # the curious server already leaks


def test_relink_robustness(benchmark):
    report, dataset = benchmark.pedantic(
        lambda: run_relink_robustness("motionsense", rounds=2), iterations=1, rounds=1
    )
    body = (
        f"  piece-level attribute accuracy: {report.piece_accuracy:.3f} "
        f"(random guess {dataset.random_guess_accuracy:.2f})\n"
        f"  all-pieces-consistent rate:     {report.consistency_rate:.3f}"
    )
    print_report("Extension: §6.4 re-linking attack against mixed updates", body)
    # Finding: individual layer pieces can still be classified by attribute
    # (population-level information survives the mix), but the chimera
    # updates are internally inconsistent — so regrouping the pieces of one
    # participant has no anchor, and participant-level inference stays at
    # chance (Figure 7).  The robustness claim is about the latter.
    assert report.consistency_rate < 0.5
    expected_consistency_if_linked = 1.0  # a working re-link would regroup pieces
    assert report.consistency_rate < expected_consistency_if_linked / 2
