"""Per-layer compare of traced runs: which layers' self time moved beyond noise.

    python3 perfbench/compare.py --base A1.json A2.json A3.json --head B1.json B2.json

Each file is a trace written by ``run.py --trace 1`` for one workload.  For
every per-layer self-time metric (seconds per round) it takes the median
over the base runs and over the head runs, and the base's own spread: the
distance between the first and third quartiles of the base runs (their
range, with fewer than four).  A layer is flagged when the two medians differ
by more than that spread.  Run the base at least twice, ideally at several
seeds; the head's runs are compared at whatever seeds they used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(path: str) -> dict:
    """A trace's header: everything before its spans."""
    with open(path) as handle:
        trace = json.load(handle)
    for key in ("span_names", "span_keys", "spans"):
        trace.pop(key, None)
    return trace


def spread(values: list[float]) -> float:
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q3 - q1
    return max(values) - min(values)


def compare(base: list[dict], head: list[dict]) -> list[dict]:
    """One row per self-time metric: medians, change, base spread and flag."""
    rows = []
    for metric in base[0]["metrics"]:
        if not metric.endswith("self_s"):
            continue
        base_values = [run["metrics"][metric] for run in base]
        head_values = [run["metrics"][metric] for run in head]
        base_median = statistics.median(base_values)
        head_median = statistics.median(head_values)
        noise = spread(base_values)
        change = head_median - base_median
        rows.append({
            "metric": metric,
            "base": base_median,
            "head": head_median,
            "change": change,
            "base_spread": noise,
            "moved": abs(change) > noise,
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="traces of the base code (two or more)")
    parser.add_argument("--head", nargs="+", required=True, help="traces of the changed code")
    args = parser.parse_args(argv)
    if len(args.base) < 2:
        print("error: the base needs two or more traced runs to measure its spread", file=sys.stderr)
        return 2
    base = [load(p) for p in args.base]
    head = [load(p) for p in args.head]
    workloads = {run["workload"] for run in base + head}
    if len(workloads) != 1:
        print(f"error: traces of different workloads: {sorted(workloads)}", file=sys.stderr)
        return 2
    print(f"workload {workloads.pop()}: {len(base)} base runs, {len(head)} head runs")
    for side, runs in (("base", base), ("head", head)):
        stamps = {json.dumps(run["stamp"], sort_keys=True) for run in runs}
        print(f"{side} stamp{'s' if len(stamps) > 1 else ''}: " + "; ".join(sorted(stamps)))
    print(f"{'metric':40} {'base s/round':>14} {'head s/round':>14} {'change':>11} {'base spread':>12}")
    for row in compare(base, head):
        print(
            f"{row['metric']:40} {row['base']:14.6f} {row['head']:14.6f} {row['change']:+11.6f} "
            f"{row['base_spread']:12.6f}{'  MOVED' if row['moved'] else ''}"
        )
    for seed in sorted({run["seed"] for run in base} & {run["seed"] for run in head}):
        digests = {run["digest"] for run in base + head if run["seed"] == seed}
        print(f"seed {seed}: weights digest {'equal' if len(digests) == 1 else 'DIFFERS'} across base and head")
    return 0


if __name__ == "__main__":
    sys.exit(main())
