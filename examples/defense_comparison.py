"""Five defenses, one table: where does MixNN sit in the design space?

The paper's introduction positions MixNN against two families of defenses:
perturbation (noisy gradients / DP — protects by destroying information, so
utility suffers) and cryptographic secure aggregation (protects without a
utility cost, but needs the server to run the protocol — which a *curious*
server has no incentive to do).  This example runs all five against the
active ∇Sim attacker on the MotionSense workload and prints utility (final
model accuracy), privacy (mean inference accuracy) and leakage above the
random-guess baseline.

Expected shape: classical FL leaks everything; noisy/DP trade some of both;
secure aggregation and MixNN both sit at (full utility, no leak) — but only
MixNN gets there without the server's cooperation.

Run:  python examples/defense_comparison.py   (about 20 s at CI scale)
(the same table: ``python -m repro.experiments.runner defenses --rounds 4``)
"""

from repro.experiments.extensions import render_study, run_study


def main() -> None:
    rows = run_study("defenses", dataset="motionsense", rounds=4)
    print("Active ∇Sim vs five defenses — MotionSense, 4 rounds\n")
    print(render_study("defenses", rows))
    by_name = {row["defense"]: row for row in rows}
    print()
    print(f"classical FL leaks {by_name['classical-fl']['leakage']:+.3f} above guess;")
    print(f"MixNN leaks {by_name['mixnn']['leakage']:+.3f} while matching FL accuracy "
          f"({by_name['mixnn']['final_accuracy']:.3f} vs {by_name['classical-fl']['final_accuracy']:.3f}).")


if __name__ == "__main__":
    main()
