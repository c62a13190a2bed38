"""Whole-round benchmark of the MixNN federated pipeline.

Runs one named workload as a closed loop (one simulation, one
``FederatedSimulation.run_round`` at a time) for a fixed number of seconds,
checks its outputs, and prints every end-to-end metric by name and unit.
With ``--trace 1`` it instead makes a traced run that times the calls into
each layer from outside the program and prints the per-layer metrics.

    python3 perfbench/run.py --workload fleet-async-spawn --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.  Everything the run writes (the native
helper's build cache, temporary files, traces) stays under ``.perfbench/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: set-up is timed in this many probe processes before the timed run and as
#: many after it, besides the timed run's own set-up
SETUP_PROBES = 2
#: a child process that takes longer than this is stuck
CHILD_TIMEOUT_S = 170


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``.  The k-th smallest of n samples has
    n - k above it, so k = n - beyond; with 2 * beyond samples or fewer that
    would fall below the median, and the middle sample is returned instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - beyond, math.ceil((n + 1) / 2))
    return ordered[k - 1], 100.0 * k / n


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # Keep the native helper's build and every temporary file in the checkout.
    env["TMPDIR"] = str(WORK / "tmp")
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    # At most two threads or worker processes per workload: the two spawn
    # shard workers, or the enclave's decrypt pool, must not each fan out
    # into BLAS threads.  A fixed hash seed removes one per-process variable.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict[str, str]) -> tuple[dict, float]:
    """Run one child interpreter; returns its JSON result and its start time."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:3])} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def build(env: dict[str, str]) -> None:
    """Byte-compile the sources and build the native CTR helper, untimed."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    subprocess.run(
        [sys.executable, "-c", "from repro.utils import native; native.available()"],
        cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S,
    )


def end_to_end(args, env) -> tuple[dict, dict, int]:
    measure = str(HERE / "measure.py")
    common = [args.workload, str(args.seed), str(args.seconds)]

    def probe_setups() -> list[tuple[float, float]]:
        times = []
        for _ in range(SETUP_PROBES):
            probe, started = run_child([measure, "setup", *common], env)
            times.append((probe["ready_cpu"], probe["ready"] - started))
        return times

    setups = probe_setups()
    result, started = run_child([measure, "run", *common], env)
    setups += [(result["ready_cpu"], result["ready"] - started)] + probe_setups()
    obs = result["observation"]
    round_s, round_cpu_s = obs["round_s"], obs["round_cpu_s"]
    failures = {k: v for k, v in result["checks"].items() if v}
    tail_value, tail_pct = tail(round_cpu_s) if round_cpu_s else (float("nan"), 0.0)
    # A run that raised or failed a check lost every update it dispatched.
    lost = obs["dispatched"] if failures else obs["lost"]
    metrics = {
        "round_cpu_s.p50": statistics.median(round_cpu_s) if round_cpu_s else float("nan"),
        "round_cpu_s.tail": tail_value,
        "updates_per_cpu_s": obs["kept"] / sum(round_cpu_s) if round_cpu_s else 0.0,
        "setup_s": statistics.median(cpu for cpu, _ in setups),
        "peak_rss_mb": obs["peak_rss_mb"],
        "delivered_share": 1.0 - lost / obs["dispatched"] if obs["dispatched"] else 0.0,
        "final_accuracy": obs["final_accuracy"],
    }
    print(f"stamp {json.dumps(result['stamp'], sort_keys=True)}")
    print(f"round_cpu_s.p50 {metrics['round_cpu_s.p50']:.6f} s (rounds {len(round_cpu_s)})")
    print(f"round_cpu_s.tail {metrics['round_cpu_s.tail']:.6f} s (p{tail_pct:.1f} of {len(round_cpu_s)} rounds)")
    print(f"updates_per_cpu_s {metrics['updates_per_cpu_s']:.4f} 1/s "
          f"({obs['kept']} merged of {obs['kept'] + obs['dropped']} received)")
    print(f"setup_s {metrics['setup_s']:.6f} s (CPU, median of {len(setups)}: "
          + ", ".join(f"{cpu:.3f}" for cpu, _ in setups) + ")")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB (after round {args.checkpoint})")
    print(f"failed_share {lost / obs['dispatched'] if obs['dispatched'] else 1.0:.6f} "
          f"({lost} lost of {obs['dispatched']} dispatched by round {args.checkpoint}); "
          f"delivered_share {metrics['delivered_share']:.6f}")
    print(f"final_accuracy {metrics['final_accuracy']:.6f} (after round {args.checkpoint})")
    print(f"attack_accuracy {obs['inference_accuracy']:.6f} (after round {args.checkpoint})")
    print(f"digest {obs['digest']} (weights after round {args.checkpoint})")
    # For information: wall time moves with the host's other guests.  The time
    # the hypervisor gave them is on no CPU clock, and on a shared host it
    # explains most of the gap between wall and CPU time.
    if round_s:
        wall_tail, _ = tail(round_s)
        print(f"wall round_s.p50 {statistics.median(round_s):.6f} s, round_s.tail {wall_tail:.6f} s, "
              f"updates_per_s {obs['kept'] / sum(round_s):.4f} 1/s, "
              f"setup_s {statistics.median(wall for _, wall in setups):.6f} s")
    print(f"host_steal_share {result['steal_share']:.4f} (of CPU time during the timed rounds)")
    twin = result.get("twin_round_s")
    if twin:
        # For information: the serial twin's rounds against the same rounds here.
        serial, sharded = statistics.median(twin), statistics.median(round_s[: len(twin)])
        print(f"serial twin wall round_s.p50 {serial:.6f} s against {sharded:.6f} s over the same "
              f"{len(twin)} rounds: scaling efficiency {serial / sharded / result['shards']:.3f} "
              f"on {result['shards']} shard workers")
    return metrics, result["checks"], len(round_s)


def traced(args, env, declared: list[dict]) -> tuple[dict, dict, int]:
    out = Path(args.trace_out).resolve() if args.trace_out else WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    result, _ = run_child(
        [str(HERE / "measure.py"), "trace", args.workload, str(args.seed), str(args.seconds), str(out)], env
    )
    print(f"stamp {json.dumps(result['stamp'], sort_keys=True)}")
    for metric in declared:
        print(f"{metric['name']} {result['metrics'][metric['name']]:.6g} {metric['unit']}")
    print(f"self-time coverage {result['coverage']:.4f} of {result['rounds']} traced rounds; "
          f"named layers explain {result['attributed_share']:.4f} of the round wall time")
    print(f"digest {result['digest']} (weights after round {args.checkpoint})")
    print(f"trace written to {out.relative_to(ROOT) if out.is_relative_to(ROOT) else out}")
    return result["metrics"], result["checks"], result["rounds"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    args.checkpoint = WORKLOADS[args.workload].checkpoint_rounds
    # BENCHMARK.json names the metrics a run reports, with their units.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    build(env)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        metrics, checks, rounds = traced(args, env, declared)
    else:
        metrics, checks, rounds = end_to_end(args, env)
    failures = {k: v for k, v in checks.items() if v}
    for name, message in checks.items():
        print(f"check {name}: {'FAILED ' + message if message else 'ok'}")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, rounds),
        "failed": rounds if failures else 0,
        # a failed run can leave a metric unmeasured; JSON has no NaN
        "metrics": {
            m["name"]: {
                "value": metrics[m["name"]] if math.isfinite(metrics[m["name"]]) else 0.0,
                "unit": m["unit"],
            }
            for m in declared
        },
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
