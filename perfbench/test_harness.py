"""Tests of the benchmark harness itself (run with ``pytest perfbench``)."""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parent / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from measure import cpu_clocks, cpu_spent, drive  # noqa: E402
from tracer import EntryPoint, Tracer, remaining_wrappers, self_times, union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Toy:
    """Stand-in layers: a round that calls a layer that calls another."""

    def __init__(self, tick) -> None:
        self.tick = tick

    def round(self):
        self.tick(1.0)
        self.outer()
        self.outer()
        self.tick(0.5)

    def outer(self):
        self.tick(2.0)
        self.inner()
        self.outer_again()

    def outer_again(self):
        self.tick(0.25)

    def inner(self):
        self.tick(3.0)


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap; grandchild [1, 2]
    starts, ends, parents = [0.0, 1.0, 3.0, 1.0], [10.0, 4.0, 6.0, 2.0], [-1, 0, 0, 1]
    assert union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0
    assert self_times(starts, ends, parents) == [5.0, 2.0, 3.0, 1.0]


def test_nested_spans_record_outermost_calls_and_add_up():
    now = [0.0]
    toy = Toy(lambda dt: now.__setitem__(0, now[0] + dt))
    module = __name__
    tracer = Tracer(clock=lambda: now[0])
    tracer.install([
        EntryPoint(f"{module}:Toy.round", "simulation.run_round", root=True),
        EntryPoint(f"{module}:Toy.outer", "layer.outer"),
        # same key as outer: a call nested in an open span of its key records nothing
        EntryPoint(f"{module}:Toy.outer_again", "layer.outer"),
        EntryPoint(f"{module}:Toy.inner", "layer.inner"),
    ])
    try:
        toy.outer()  # outside a round: not recorded
        toy.round()
    finally:
        tracer.uninstall()
    keys = [tracer.keys[n] for n in tracer.span_name]
    assert keys == ["simulation.run_round", "layer.outer", "layer.inner", "layer.outer", "layer.inner"]
    assert list(tracer.span_round) == [0] * 5
    selfs = tracer.self_times()
    by_key: dict[str, float] = {}
    for key, value in zip(keys, selfs):
        by_key[key] = by_key.get(key, 0.0) + value
    assert by_key == {"simulation.run_round": 1.5, "layer.outer": 4.5, "layer.inner": 6.0}
    assert sum(selfs) == pytest.approx(tracer.span_end[0] - tracer.span_start[0])
    assert Toy.outer.__name__ == "outer" and not hasattr(Toy.outer, "__perfbench_original__")


def test_wrappers_are_fully_restored_after_a_traced_run():
    import repro.federated.server as server
    import repro.utils.rng as rng
    from repro.nn.module import Module

    original_rng, original_call = rng.rng_from_seed, Module.__call__
    original_aggregate = server.aggregate_updates
    tracer = Tracer()
    tracer.install(layers.ENTRY_POINTS)
    try:
        assert remaining_wrappers()
        assert server.aggregate_updates is not original_aggregate
        # A module first imported while tracing binds the wrapper by name.
        late = types.ModuleType("repro._late_import_probe")
        late.rng_from_seed = rng.rng_from_seed
        sys.modules[late.__name__] = late
        workload = WORKLOADS["fleet-async"]
        built = workload.build(3)
        obs, _ = drive(built, workload, 0.0, rounds=1)
        assert not obs.error
    finally:
        tracer.uninstall()
        sys.modules.pop("repro._late_import_probe", None)
    assert remaining_wrappers() == []
    assert late.rng_from_seed is original_rng
    assert rng.rng_from_seed is original_rng and Module.__call__ is original_call
    assert server.aggregate_updates is original_aggregate
    assert tracer.rounds == 1
    keys = {tracer.keys[n] for n in tracer.span_name}
    assert {"rng.seeded", "events.schedule", "aggregation", "cohort.train_updates"} <= keys
    metrics = layers.layer_metrics(tracer, layers.TraceTotals(
        rounds=1, traced_wall_s=1.0, traced_cpu_s=1.0, untraced_cpu_s=1.0, trained=1, kept=1, dropped=0,
        peak_materialized=0, inference_accuracy=0.0,
        counters=layers.end_of_run_counters(built.simulation, built.defense),
    ))
    wall = layers.root_wall_s(tracer)
    assert layers.coverage(metrics, 1, wall) == pytest.approx(1.0, abs=1e-6)
    assert 0.0 < layers.attributed_share(metrics, 1, wall) <= 1.0


def test_tail_is_the_highest_percentile_with_ten_rounds_beyond_it():
    values = [float(v) for v in range(1, 31)]  # 30 rounds
    assert run.tail(values) == (20.0, pytest.approx(100 * 20 / 30))
    assert sum(v > run.tail(values)[0] for v in values) == 10
    # too few rounds for a tail: never below the median
    assert run.tail([float(v) for v in range(1, 12)]) == (6.0, pytest.approx(100 * 6 / 11))
    assert run.tail([3.0]) == (3.0, 100.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reaches_the_dataset_and_the_simulation_config(name):
    built = WORKLOADS[name].build(7)
    assert built.dataset.seed == 7
    assert built.config.seed == 7
    assert built.simulation.config is built.config
    built.simulation.close()


def test_every_declared_layer_metric_has_a_prediction_and_every_span_a_self_time():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == set(layers.PREDICTIONS)
    moved = {metric for metric, _ in layers.PREDICTIONS.values() if not metric.startswith("none")}
    assert moved <= {m["name"] for m in bench["end_to_end"]}
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    # every span key lands in some reported self time, so they add up to the round
    covered = {k for keys in layers.SELF_TIME_KEYS.values() for k in keys}
    assert {e.key for e in layers.ENTRY_POINTS} == covered


def test_compare_flags_layers_that_moved_beyond_the_base_spread():
    def trace(forward, optim):
        return {"metrics": {"nn.forward.self_s": forward, "nn.optim.self_s": optim, "nn.optim.steps": 3}}

    base = [trace(1.00, 0.10), trace(1.02, 0.11), trace(0.98, 0.10)]
    head = [trace(0.80, 0.105), trace(0.82, 0.10)]
    rows = {row["metric"]: row for row in compare.compare(base, head)}
    assert set(rows) == {"nn.forward.self_s", "nn.optim.self_s"}
    assert rows["nn.forward.self_s"]["moved"]
    assert not rows["nn.optim.self_s"]["moved"]


def _spin_then_wait(seconds, done, release) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    done.set()
    release.wait(30)


def test_round_cpu_time_counts_spawn_workers_but_not_waiting():
    context = multiprocessing.get_context("spawn")
    done, release = context.Event(), context.Event()
    before = cpu_clocks()
    worker = context.Process(target=_spin_then_wait, args=(0.5, done, release))
    worker.start()
    try:
        assert done.wait(60)
        after = cpu_clocks()
    finally:
        release.set()
        worker.join(30)
    assert not worker.is_alive()
    assert worker.pid in after and worker.pid not in before
    # the worker's spin counts; the parent only started it and waited
    assert cpu_spent(before, after) >= 0.5
    assert after[0] - before[0] < 0.5
