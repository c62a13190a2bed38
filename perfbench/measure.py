"""One benchmark process: a set-up probe, a timed run, or a traced run.

``run.py`` starts this module in a fresh interpreter, so that set-up time
counts from interpreter start and the process's resident-set high-water
mark belongs to the measured run alone.  The last line of standard output
is a JSON object for ``run.py``; progress goes to standard error.

Usage: ``python3 measure.py {setup,run,trace} WORKLOAD SEED SECONDS [TRACE_OUT]``
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from workloads import SERIAL_TWIN, WORKLOADS, Built, Workload

ROOT = Path(__file__).resolve().parent.parent
SHM = Path("/dev/shm")


class _LastRound:
    """Server observer that keeps the last round's received updates for the audit."""

    def __init__(self) -> None:
        self.updates: list = []

    def on_round(self, round_index, broadcast_state, updates) -> None:
        self.updates = list(updates)


@dataclass
class Observation:
    """What the closed loop saw, round by round, from outside the program."""

    #: wall time of each round, and the CPU time it took in this process
    #: and its spawn workers
    round_s: list[float] = field(default_factory=list)
    round_cpu_s: list[float] = field(default_factory=list)
    trained: int = 0
    #: dispatched and lost updates, up to the checkpoint round
    dispatched: int = 0
    lost: int = 0
    #: rows the aggregation rule merged into the model, and rows it filtered
    #: out (multi-Krum keeps about half of what the server receives)
    kept: int = 0
    dropped: int = 0
    peak_rss_mb: float = float("nan")
    digest: str = ""
    final_accuracy: float = float("nan")
    inference_accuracy: float = 0.0
    error: str = ""


def state_digest(state: dict) -> str:
    """SHA-256 over the parameter names and raw bytes, in state order."""
    digest = hashlib.sha256()
    for name, value in state.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def drive(built: Built, workload: Workload, seconds: float, rounds: int | None = None):
    """Run rounds as a closed loop, one at a time, then close the run.

    Without ``rounds`` the loop measures for ``seconds`` and never stops
    before the workload's checkpoint round.  Returns the observation and the
    observer holding the last round's received updates.
    """
    simulation = built.simulation
    last = _LastRound()
    simulation.server.add_observer(last)
    obs = Observation()
    checkpoint = workload.checkpoint_rounds
    start = time.perf_counter()
    try:
        while True:
            done = len(obs.round_s)
            if rounds is not None:
                if done >= rounds:
                    break
            elif done >= checkpoint and time.perf_counter() - start >= seconds:
                break
            begin, cpu_begin = time.perf_counter(), cpu_clocks()
            record = simulation.run_round()
            obs.round_s.append(time.perf_counter() - begin)
            obs.round_cpu_s.append(cpu_spent(cpu_begin, cpu_clocks()))
            report = simulation.server.last_aggregation_report
            obs.trained += record.num_selected - record.num_dropped - record.num_crashed
            obs.kept += len(report.kept)
            obs.dropped += len(report.dropped)
            if len(obs.round_s) <= checkpoint:
                # Stale discards grow with the backlog, so a share over a
                # speed-dependent number of rounds would move with speed.
                obs.dispatched += record.num_selected - record.num_dropped
                obs.lost += record.num_fault_discarded + record.num_discarded
            if len(obs.round_s) == checkpoint:
                # Memory grows with the transcript and ledgers, so it is
                # read after a fixed number of rounds, not after a fixed time.
                obs.peak_rss_mb = peak_rss_mb()
                obs.digest = state_digest(simulation.server.global_state)
                obs.final_accuracy = record.global_accuracy
                if record.inference_accuracy is not None:
                    obs.inference_accuracy = record.inference_accuracy
    except Exception as exc:  # a failed round fails the run; report it, don't hide it
        obs.error = f"{type(exc).__name__}: {exc}"
    finally:
        simulation.close()
    # What FederatedSimulation.run() does when its loop ends: poison still in
    # flight never reached the model.
    simulation.adversary_ledger.resolve_stranded("filtered")
    return obs, last


def cpu_clocks() -> dict[int, float]:
    """CPU seconds of this process (key 0) and of each live worker process it started.

    A process's CPU clock advances only while it runs: the time it waits for
    a core is not on it, nor, under a kernel with paravirtual steal-time
    accounting, the time the hypervisor gives to other guests.
    """
    clocks = {0: time.process_time()}
    for child in multiprocessing.active_children():
        try:
            # the process-wide CPU clock of another pid, as clock_getcpuclockid(3) builds it
            clocks[child.pid] = time.clock_gettime((~child.pid << 3) | 2)
        except OSError:  # exited between the listing and the read
            pass
    return clocks


def cpu_spent(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds between two reads; a worker started in between counts from zero."""
    return sum(value - before.get(key, 0.0) for key, value in after.items())


def cpu_times() -> list[int]:
    """The machine's CPU time counters (``/proc/stat``), empty where unavailable."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two reads."""
    if len(before) < 8 or len(after) < 8:
        return float("nan")
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def shm_segments() -> set[str]:
    return {p.name for p in SHM.glob("psm_*")} if SHM.is_dir() else set()


def check_outputs(built: Built, workload: Workload, obs: Observation, last: _LastRound, shm_before: set[str]) -> dict[str, str]:
    """Every output check of one run; an empty value means the check passed."""
    simulation = built.simulation
    checks: dict[str, str] = {}

    def check(name: str, fn) -> None:
        try:
            message = fn()
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
        checks[name] = message or ""

    def rounds_ok():
        if obs.error:
            return obs.error
        if len(obs.round_s) < workload.checkpoint_rounds:
            return f"only {len(obs.round_s)} of {workload.checkpoint_rounds} checkpoint rounds ran"
        return ""

    def transcript_ok():
        transcript = simulation.server.transcript
        transcript.verify()
        transcript.audit_round(len(transcript) - 1, last.updates)
        if len(transcript) != len(obs.round_s):
            return f"{len(transcript)} transcript entries for {len(obs.round_s)} rounds"
        return ""

    def proxy_ok():
        proxy = getattr(built.defense, "proxy", None)
        if proxy is None:
            return "" if built.defense is None else "the MixNN proxy never ran"
        stats = proxy.stats
        return "" if stats.received == stats.emitted else f"proxy received {stats.received} != emitted {stats.emitted}"

    def materialized_ok():
        # A lazy population releases its cohort after every round, so its
        # high-water mark is one cohort; an eager dataset keeps its replicas.
        peak = simulation.population.peak_materialized
        bound = (
            built.config.clients_per_round
            if getattr(built.dataset, "lazy_population", False)
            else len(simulation.population)
        )
        return "" if peak <= bound else f"peak_materialized {peak} > {bound}"

    def finite_ok():
        bad = [k for k, v in simulation.server.global_state.items() if not np.all(np.isfinite(v))]
        return f"non-finite parameters: {bad}" if bad else ""

    def shm_ok():
        leaked = sorted(shm_segments() - shm_before)
        return f"/dev/shm segments left behind: {leaked}" if leaked else ""

    check("rounds", rounds_ok)
    check("transcript", transcript_ok)
    check("fault_ledger", simulation.fault_ledger.validate)
    check("adversary_ledger", simulation.adversary_ledger.validate)
    check("proxy_balance", proxy_ok)
    check("peak_materialized", materialized_ok)
    check("finite_state", finite_ok)
    check("shm_segments", shm_ok)
    return checks


def _vm_hwm_kb(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest live worker."""
    workers = []
    for child in multiprocessing.active_children():
        try:
            workers.append(_vm_hwm_kb(child.pid))
        except (OSError, ValueError):  # exited between the listing and the read
            pass
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(workers, default=0)) / 1024.0


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git.

    A checkout without ``.git`` is named by a hash of its ``src`` tree.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    return "src-sha256:" + tree.hexdigest()[:16]


def stamp() -> dict:
    """What a result needs to be comparable with another one."""
    from repro.utils import native

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git_revision(),
        "native_ctr": native.available(),
    }


def replay_twin(workload_name: str, seed: int) -> Observation:
    """The workload's single-worker twin at this seed, up to its checkpoint round."""
    twin = WORKLOADS[SERIAL_TWIN[workload_name]]
    return drive(twin.build(seed), twin, 0.0, rounds=twin.checkpoint_rounds)[0]


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    built = workload.build(seed)
    ready, ready_cpu = time.monotonic(), sum(cpu_clocks().values())
    shm_before = shm_segments()
    cpu_before = cpu_times()
    obs, last = drive(built, workload, seconds)
    steal = steal_share(cpu_before, cpu_times())
    checks = check_outputs(built, workload, obs, last, shm_before)
    result = {"ready": ready, "ready_cpu": ready_cpu, "observation": asdict(obs), "checks": checks, "steal_share": steal}
    if workload.name in SERIAL_TWIN:
        twin = replay_twin(workload.name, seed)
        digest = twin.error or twin.digest
        checks["serial_twin"] = "" if digest == obs.digest else f"digest {obs.digest} != serial twin {digest}"
        result["twin_round_s"], result["shards"] = twin.round_s, built.config.num_shards
    return result


def traced_run(workload: Workload, seed: int, seconds: float, trace_out: Path) -> dict:
    from layers import (
        ENTRY_POINTS,
        TraceTotals,
        attributed_share,
        coverage,
        end_of_run_counters,
        layer_metrics,
        root_wall_s,
    )
    from tracer import Tracer

    built = workload.build(seed)
    shm_before = shm_segments()
    untraced, last = drive(built, workload, seconds)
    checks = {f"untraced.{k}": v for k, v in check_outputs(built, workload, untraced, last, shm_before).items()}
    rounds = len(untraced.round_s)

    tracer = Tracer()
    tracer.install(ENTRY_POINTS)
    try:
        built = workload.build(seed)
        traced, last = drive(built, workload, seconds, rounds=rounds)
    finally:
        tracer.uninstall()
    checks.update(check_outputs(built, workload, traced, last, shm_before))
    checks["tracing_changes_nothing"] = (
        "" if traced.digest == untraced.digest else f"traced digest {traced.digest} != untraced {untraced.digest}"
    )
    totals = TraceTotals(
        rounds=tracer.rounds,
        traced_wall_s=sum(traced.round_s),
        traced_cpu_s=sum(traced.round_cpu_s),
        untraced_cpu_s=sum(untraced.round_cpu_s),
        trained=traced.trained,
        kept=traced.kept,
        dropped=traced.dropped,
        peak_materialized=built.simulation.population.peak_materialized,
        inference_accuracy=traced.inference_accuracy,
        counters=end_of_run_counters(built.simulation, built.defense),
    )
    metrics = layer_metrics(tracer, totals)
    wall = root_wall_s(tracer)
    # The self times add up to the round by construction; this catches a span
    # key missing from the sum or spans outside their round.
    covered = coverage(metrics, tracer.rounds, wall)
    checks["self_time_coverage"] = (
        "" if abs(covered - 1.0) <= 0.05 else f"self times cover {covered:.3f} of the traced round wall time"
    )
    result = {
        "workload": workload.name,
        "seed": seed,
        "stamp": stamp(),
        "rounds": tracer.rounds,
        "traced_round_s": traced.round_s,
        "untraced_round_s": untraced.round_s,
        "coverage": covered,
        "attributed_share": attributed_share(metrics, tracer.rounds, wall),
        "digest": traced.digest,
        "checks": checks,
        "metrics": metrics,
    }
    write_trace(trace_out, result, tracer)
    return result


def write_trace(path: Path, header: dict, tracer) -> None:
    """The run's result plus every span, streamed so the spans stay compact."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.span_start[0] if len(tracer.span_start) else 0.0
    with open(path, "w") as out:
        out.write(json.dumps(header)[:-1])
        out.write(', "span_names": ' + json.dumps(tracer.names))
        out.write(', "span_keys": ' + json.dumps(tracer.keys))
        out.write(', "spans": [\n')
        rows = zip(tracer.span_name, tracer.span_start, tracer.span_end, tracer.span_parent, tracer.span_round)
        for index, (name, start, end, parent, round_id) in enumerate(rows):
            out.write(f"{',' if index else ''}[{name},{start - origin:.7f},{end - origin:.7f},{parent},{round_id}]\n")
        out.write("]}\n")


def main(argv: list[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = WORKLOADS[name]
    if mode == "setup":
        workload.build(seed)
        result = {"ready": time.monotonic(), "ready_cpu": sum(cpu_clocks().values())}
    elif mode == "run":
        result = timed_run(workload, seed, seconds)
        result["stamp"] = stamp()
    elif mode == "trace":
        result = traced_run(workload, seed, seconds, Path(argv[4]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
