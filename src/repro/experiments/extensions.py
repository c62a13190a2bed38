"""Extension studies beyond the paper's figures, declared once as data.

The paper argues from tables (§5, §6).  :data:`STUDIES` adds nine more, one
:class:`Study` per runner command: ``defenses`` (the five defenses of
:data:`~repro.experiments.common.DEFENSES` against the active ∇Sim server —
§1's argument as a measured table), ``scenario`` (three round-closure
schemes under churn, with the timing side channel on the event stream),
``frontier`` (the deadline/buffer sweep behind it), ``dirichlet-churn``
(does non-IID data amplify the damage of losing clients?), ``chaos``
(seeded fault injection through MixNN), ``byzantine`` (every aggregation
rule against poisoning), ``population`` (one memory-traced round of the
lazy million-client engine), ``sharded`` (shard counts × crash rates, each
byte-checked against the unsharded run) and ``cohort`` (serial local
training against one stacked pass).

A study declares the runner knobs it reads, its default rounds, its cells
(each cell's labels plus the scenario, config overrides and defense it
runs) and its columns, once each, as (header, row key, value, format).
:func:`run_study` runs every cell through one loop, audits every finished
simulation (both ledgers balance, the transcripts verify) and returns one
plain dict per cell; :func:`render_study` prints any study's table.  The
runner, the snapshot CLI, the examples and the tests all call these two.

§5's passive-vs-active comparison and §6.4's re-linking attack return curves
and a report, not tables, so they stay functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ..attacks import RelinkAttack, build_reference_states
from ..attacks.timing import TimingSideChannel
from ..data import DirichletReshard, SyntheticPopulation
from ..federated import (
    AdversaryConfig,
    ChurnTrace,
    FaultConfig,
    FederatedSimulation,
    LocalTrainingConfig,
    LogNormalLatency,
    RandomDropout,
    ScenarioConfig,
    SimulationConfig,
)
from ..federated.client import ClientPopulation
from ..federated.cohort import CohortTrainer
from ..metrics.latency import summarize_round_timing
from ..metrics.robustness import attack_success_rate, filter_precision, filter_recall
from ..nn.serialization import schema_of
from ..utils.rng import rng_from_seed, stable_seed
from .common import DEFENSES, build_simulation, run_scheme
from .config import build_experiment
from .models import model_fn_for
from .reporting import format_table

__all__ = [
    "Column",
    "Cell",
    "Study",
    "STUDIES",
    "run_study",
    "render_study",
    "run_passive_vs_active",
    "run_relink_robustness",
    "make_scenario",
    "SCENARIO_SCHEMES",
    "FRONTIER_DEADLINES",
    "FRONTIER_BUFFER_FRACTIONS",
    "CHURN_MODES",
    "CHAOS_PROXY_CRASH_RATES",
    "BYZANTINE_FRACTIONS",
    "BYZANTINE_RULES",
    "POPULATION_SCALES",
    "SHARDED_SHARD_COUNTS",
    "SHARDED_CRASH_RATES",
    "COHORT_SIZES",
]

#: The compared round-closure schemes, in presentation order.
SCENARIO_SCHEMES: tuple[str, ...] = ("sync-full", "sync-deadline", "buffered-async")
#: default deadline and buffer-fraction sweeps of the ``frontier`` command
FRONTIER_DEADLINES: tuple[float, ...] = (1.5, 2.5, 4.0)
FRONTIER_BUFFER_FRACTIONS: tuple[float, ...] = (0.4, 0.6, 0.8)
#: churn models crossed with each Dirichlet α, in presentation order
CHURN_MODES: tuple[str, ...] = ("none", "dropout", "outage-trace")
#: default proxy-crash sweep of the ``chaos`` command
CHAOS_PROXY_CRASH_RATES: tuple[float, ...] = (0.0, 0.05, 0.2)
#: Attacker fractions the Byzantine comparison sweeps (0 = clean baseline).
BYZANTINE_FRACTIONS: tuple[float, ...] = (0.0, 0.1, 0.3)
#: Aggregation policies the Byzantine comparison scores against plain mean.
BYZANTINE_RULES: tuple[str, ...] = ("mean", "median", "trimmed", "norm_filter", "krum", "multi-krum")
#: default (population size, clients per round) per runner scale
POPULATION_SCALES = {"ci": (100_000, 1_000), "paper": (1_000_000, 10_000)}
#: leaf-shard counts the ``sharded`` command sweeps by default
SHARDED_SHARD_COUNTS = (1, 2, 4)
#: per-(shard, round, attempt) crash probabilities swept by default (0 is the
#: fault-free row; the non-zero row exercises retry/backoff and failover)
SHARDED_CRASH_RATES = (0.0, 0.3)
#: cohort sizes swept by the cohort command (clients per stacked pass)
COHORT_SIZES = (16, 64, 256)
#: the knobs every simulated study reads
_RUN = ("dataset", "scale", "seed", "rounds")
#: the latency-shape knobs of :func:`make_scenario`
_LATENCY = ("staleness_alpha", "latency_median", "straggler_fraction")
#: the cohort study's local batch size, and its best-of timing repeats
_COHORT_BATCH_SIZE = 8
_COHORT_REPEATS = 3


def make_scenario(
    scheme: str,
    dropout: float,
    cohort: int,
    deadline: float = 2.5,
    staleness_alpha: float = 0.5,
    buffer_fraction: float = 0.6,
    latency_median: float = 1.0,
    straggler_fraction: float = 0.15,
    client_spread: float = 0.35,
):
    """Build the :class:`ScenarioConfig` for one round-closure scheme.

    All three share the same churn (``dropout``) and latency distribution
    (log-normal, median ``latency_median`` s, a ``straggler_fraction`` heavy
    tail, and a systematic per-client speed spread — real fleets mix fast and
    slow devices, which is also what gives the timing side channel its
    signal), so the schemes differ only in *when the server closes the
    round*:

    * ``"sync-full"`` waits for every surviving client (round time = slowest
      survivor — the straggler tail dominates);
    * ``"sync-deadline"`` closes at ``deadline`` simulated seconds whenever a
      straggler is still outstanding;
    * ``"buffered-async"`` closes on the ``buffer_fraction · cohort``-th
      arrival and folds late updates into later rounds, down-weighted by
      ``(1 + staleness) ** -alpha``.
    """
    from ..federated.scenario import LogNormalLatency, RandomDropout, ScenarioConfig

    availability = RandomDropout(dropout) if dropout > 0 else None
    latency = LogNormalLatency(
        median=latency_median,
        sigma=0.5,
        straggler_fraction=straggler_fraction,
        straggler_multiplier=8.0,
        client_spread=client_spread,
    )
    if scheme == "sync-full":
        return ScenarioConfig(availability=availability, latency=latency)
    if scheme == "sync-deadline":
        return ScenarioConfig(availability=availability, latency=latency, deadline=deadline)
    if scheme == "buffered-async":
        return ScenarioConfig(
            availability=availability,
            latency=latency,
            aggregation="buffered-async",
            buffer_size=max(1, int(round(buffer_fraction * cohort))),
            staleness_alpha=staleness_alpha,
        )
    raise KeyError(f"unknown scenario scheme {scheme!r}; choose from {SCENARIO_SCHEMES}")


# ----------------------------------------------------------------------
# The table machinery: cells -> one loop -> dict rows -> one renderer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Column:
    """One field of a study's rows.

    ``value`` computes the field from a cell's run; ``None`` means the row
    already holds it (a cell label, ``wall_seconds``, or a value the study's
    ``finish`` fills in).  ``fmt`` renders it in the table.  A column without
    a ``header`` is recorded in the rows but not printed.
    """

    header: str | None
    key: str
    value: Callable | None = None
    fmt: Callable = str


@dataclass(frozen=True)
class Cell:
    """One run of a study: the labels its row carries and what it runs."""

    labels: dict
    #: ``(dataset, clients per round) -> ScenarioConfig | None``; ``None``
    #: runs the paper's synchronous flow
    scenario: Callable | None = None
    #: :class:`~repro.federated.SimulationConfig` field overrides
    config: dict = field(default_factory=dict)
    #: a :data:`~repro.experiments.common.DEFENSES` name
    defense: str = "classical-fl"
    #: ∇Sim mode of an attached attack (``None``: no attack)
    attack: str | None = None
    #: Dirichlet α to re-partition the dataset with (``None``: keep it)
    reshard: float | None = None


def _simulate(cell: Cell, k) -> SimpleNamespace:
    """Build and run one cell's :class:`~repro.federated.FederatedSimulation`."""
    dataset, params = build_experiment(k.dataset, scale=k.scale, seed=k.seed)
    if cell.reshard is not None:
        dataset = DirichletReshard(dataset, alpha=cell.reshard, seed=k.seed)
    config = dict(cell.config)
    if cell.scenario is not None:
        cohort = params.clients_per_round or dataset.num_clients
        config["scenario"] = cell.scenario(dataset, cohort)
    start = time.perf_counter()
    simulation = build_simulation(
        dataset, params, cell.defense, k.seed, k.rounds, cell.attack, **config
    )
    result = simulation.run()
    return SimpleNamespace(result=result, dataset=dataset, wall_seconds=time.perf_counter() - start)


@dataclass(frozen=True)
class Study:
    """A table: runner knobs -> cells -> one row per cell."""

    #: the runner knobs (argparse dests) the study reads
    knobs: tuple[str, ...]
    #: ``knobs -> list[Cell]``
    cells: Callable
    columns: tuple[Column, ...]
    #: default ``--rounds``
    rounds: int | None = None
    #: ``(cell, knobs) -> run``: a namespace holding ``result`` (the
    #: SimulationResult to audit, or ``None``), ``wall_seconds``, and
    #: whatever the columns read
    measure: Callable = _simulate
    #: ``rows -> None``: fills the values computed across rows
    finish: Callable | None = None
    #: ``rows -> str | None``: the closing line under the table
    summary: Callable | None = None


def _audit(result) -> None:
    """The checks every simulated cell passes before its row exists."""
    result.fault_ledger.validate()
    result.adversary_ledger.validate()
    result.transcript.verify()
    if result.shard_transcript is not None:
        result.shard_transcript.verify()


def run_study(name: str, **knobs) -> list[dict]:
    """Run every cell of ``STUDIES[name]``; one plain dict per cell.

    ``knobs`` override the runner's defaults; ``rounds=None`` keeps the
    study's own.  A row holds the cell's labels, every column's value, and
    ``wall_seconds``, the cell's measured wall time.
    """
    from .runner import KNOB_DEFAULTS

    study = STUDIES[name]
    unread = sorted(set(knobs) - set(study.knobs))
    if unread:
        raise TypeError(f"study {name!r} reads no knob {unread}; it reads {study.knobs}")
    k = SimpleNamespace(**{knob: knobs.get(knob, KNOB_DEFAULTS[knob]) for knob in study.knobs})
    if "rounds" in study.knobs and k.rounds is None:
        k.rounds = study.rounds
    rows = []
    for cell in study.cells(k):
        run = study.measure(cell, k)
        if run.result is not None:
            _audit(run.result)
        row = {**cell.labels, "wall_seconds": run.wall_seconds}
        row.update((column.key, column.value(run)) for column in study.columns if column.value)
        rows.append(row)
    if study.finish is not None:
        study.finish(rows)
    return rows


def render_study(name: str, rows: list[dict]) -> str:
    """Print ``STUDIES[name]``'s rows as its table and closing line."""
    study = STUDIES[name]
    shown = [column for column in study.columns if column.header]
    body = [[column.fmt(row[column.key]) for column in shown] for row in rows]
    table = format_table([column.header for column in shown], body)
    closing = study.summary(rows) if study.summary else None
    return f"{table}\n{closing}" if closing else table


# ----------------------------------------------------------------------
# Column values and formats shared across studies
# ----------------------------------------------------------------------
def _rounded(digits: int) -> Callable:
    return lambda value: round(value, digits)


def _yes(value) -> str:
    return "yes" if value else "NO"


def _final_accuracy(run) -> float:
    return run.result.accuracy_curve()[-1]


def _timed(field_name: str) -> Callable:
    """Column value: a field of the run's measured round-timing summary."""
    return lambda run: getattr(summarize_round_timing(run.result.rounds), field_name)


def _averaged(field_name: str) -> Callable:
    """Column value: a round-record field averaged over the run."""
    return lambda run: float(np.mean([getattr(record, field_name) for record in run.result.rounds]))


def _summed(field_name: str) -> Callable:
    """Column value: a round-record counter summed over the run."""
    return lambda run: int(sum(getattr(record, field_name) for record in run.result.rounds))


_FINAL_ACCURACY = Column("final accuracy", "final_accuracy", _final_accuracy, _rounded(3))
_MERGED_PER_ROUND = Column(
    "mean merged/round", "mean_aggregated", _averaged("num_aggregated"), _rounded(1)
)
_MERGED_PER_SECOND = Column(
    "merged/sec", "merged_per_simulated_sec", _timed("effective_throughput"), _rounded(2)
)
_IDLE_FRACTION = Column(
    "idle frac", "mean_idle_fraction", _timed("mean_idle_fraction"), _rounded(3)
)
_TOTAL_SECONDS = Column(
    "total secs", "total_simulated_seconds", _timed("total_seconds"), _rounded(2)
)


# ----------------------------------------------------------------------
# Per-study cells, measures and closing lines
# ----------------------------------------------------------------------
def _scheme_cell(k, scheme: str, labels: dict, **overrides) -> Cell:
    """A cell running :func:`make_scenario`'s ``scheme`` under the churn and
    latency knobs (``scenario`` and ``frontier``)."""
    latency = {knob: getattr(k, knob) for knob in _LATENCY}
    return Cell(
        labels,
        scenario=lambda dataset, cohort: make_scenario(
            scheme, k.dropout, cohort, **latency, **overrides
        ),
    )


def _scenario_cells(k) -> list[Cell]:
    # Selection, training and the churn/latency draws are pure functions of
    # (seed, client, round), so the rows differ only in round closure.
    schemes = SCENARIO_SCHEMES if k.scheme == "all" else (k.scheme,)
    closing = {"deadline": k.deadline, "buffer_fraction": k.buffer_fraction}
    return [_scheme_cell(k, scheme, {"scheme": scheme}, **closing) for scheme in schemes]


def _timing_probe(field_name: str) -> Callable:
    """Column value: the timing side channel's ``field_name`` on the run's
    arrival stream, NaN when the run is too short to warm up and score."""

    def value(run) -> float:
        rounds = len(run.result.rounds)
        if rounds < 2:
            return float("nan")
        probe = TimingSideChannel(warmup_rounds=max(1, min(2, rounds - 1)))
        return getattr(probe.run(run.result), field_name)

    return value


def _frontier_cells(k) -> list[Cell]:
    # One sync-full anchor, one sync-deadline point per deadline, one
    # buffered-async point per buffer fraction: the same workload under a
    # different closure policy, measured on the event stream.
    points = [("sync-full", "-", {})]
    points += [("sync-deadline", f"deadline={v:g}s", {"deadline": v}) for v in k.deadlines]
    points += [
        ("buffered-async", f"buffer={v:g}", {"buffer_fraction": v}) for v in k.buffer_fractions
    ]
    return [
        _scheme_cell(k, scheme, {"scheme": scheme, "knob": knob}, **overrides)
        for scheme, knob, overrides in points
    ]


def _accuracy_per_second(run) -> float:
    seconds = summarize_round_timing(run.result.rounds).total_seconds
    return _final_accuracy(run) / seconds if seconds > 0 else float("inf")


def _churn_scenario(mode: str, dropout: float, rounds: int) -> Callable:
    """The scenario of one churn mode of the Dirichlet × churn matrix."""

    def scenario(dataset, cohort):
        if mode == "none":
            return None
        if mode == "dropout":
            return ScenarioConfig(availability=RandomDropout(dropout))
        # Deterministic rotating outage: each round a different third of the
        # fleet is offline — the worst case for heavy label skew, where one
        # missing client can remove a class from the round entirely.
        client_ids = sorted(client.client_id for client in dataset.clients())
        trace = {
            round_index: [
                client_id
                for position, client_id in enumerate(client_ids)
                if position % 3 != round_index % 3
            ]
            for round_index in range(rounds)
        }
        return ScenarioConfig(availability=ChurnTrace(trace))

    return scenario


def _dirichlet_cells(k) -> list[Cell]:
    # Each α re-partitions the base dataset (large α ≈ IID, small α = heavy
    # skew) and runs every churn mode with identical training seeds.
    return [
        Cell(
            {"alpha": alpha, "churn": mode},
            scenario=_churn_scenario(mode, k.dropout, k.rounds),
            reshard=alpha,
        )
        for alpha in k.alphas
        for mode in CHURN_MODES
    ]


def _damage_vs_no_churn(rows: list[dict]) -> None:
    """Accuracy lost against the same α's no-churn row (``None`` on it)."""
    baseline = {row["alpha"]: row["final_accuracy"] for row in rows if row["churn"] == "none"}
    for row in rows:
        row["damage"] = (
            None if row["churn"] == "none" else baseline[row["alpha"]] - row["final_accuracy"]
        )


def _amplification_line(rows: list[dict]) -> str | None:
    """Does non-IID data amplify dropout damage?  Worst damage, most skewed
    α against the most IID one."""
    worst: dict[float, float] = {}
    for row in rows:
        if row["damage"] is not None:
            worst[row["alpha"]] = max(worst.get(row["alpha"], -np.inf), row["damage"])
    if len(worst) < 2:
        return None
    skewed, iid = min(worst), max(worst)
    amplified = worst[skewed] > worst[iid]
    return (
        f"non-IID (α={skewed:g}) worst-case churn damage {worst[skewed]:+.3f} vs "
        f"IID-ish (α={iid:g}) {worst[iid]:+.3f} — "
        + ("non-IID amplifies dropout damage" if amplified else "no amplification observed")
    )


def _chaos_cell(k, proxy_crash_rate: float) -> Cell:
    # Frame corruption is held across all rows, the 0-crash row included:
    # that row measures the transport-retry floor, not a fault-free baseline.
    faults = FaultConfig(
        client_crash_rate=k.client_crash_rate,
        frame_corruption_rate=k.frame_corruption_rate,
        proxy_crash_rate=proxy_crash_rate,
        quorum_fraction=k.quorum,
        max_attempts=k.max_attempts,
        hop_timeout=k.hop_timeout,
    )
    return Cell(
        {"proxy_crash_rate": proxy_crash_rate, "frame_corruption_rate": k.frame_corruption_rate},
        scenario=lambda dataset, cohort: replace(
            make_scenario("sync-full", k.dropout, cohort, latency_median=k.latency_median),
            faults=faults,
        ),
        defense="mixnn",
    )


def _chaos_line(rows: list[dict]) -> str | None:
    if len(rows) < 2 or rows[0]["merged_per_simulated_sec"] <= 0:
        return None
    base, worst = rows[0], rows[-1]
    slowdown = 1.0 - worst["merged_per_simulated_sec"] / base["merged_per_simulated_sec"]
    return (
        f"throughput at {worst['proxy_crash_rate']:g} proxy-crash is "
        f"{slowdown:+.1%} below the {base['proxy_crash_rate']:g}-crash row; "
        f"accuracy delta {worst['final_accuracy'] - base['final_accuracy']:+.3f} "
        "(every ledger balanced: injected == retried + failed-over + discarded)"
    )


def _byzantine_cell(k, defense: str, rule: str, fraction: float) -> Cell:
    adversary = AdversaryConfig(
        fraction=fraction,
        kind=k.attack,
        scale=k.attack_scale,
        replay_rate=k.replay_rate if fraction > 0 else 0.0,
    )
    return Cell(
        {"rule": rule, "attacker_fraction": fraction, "defense": defense},
        scenario=lambda dataset, cohort: replace(
            make_scenario("sync-full", k.dropout, cohort), adversary=adversary
        ),
        config={"aggregation": rule},
        defense="mixnn" if defense == "mixnn" else "classical-fl",
    )


def _byzantine_cells(k) -> list[Cell]:
    # Fraction 0 rows are the clean baselines the accuracy drop is measured
    # against (their adversary plane is armed but silent).
    return [
        _byzantine_cell(k, defense, rule, fraction)
        for defense in k.byzantine_defenses
        for rule in k.rules
        for fraction in sorted(set(k.attacker_fractions))
    ]


def _verify_ms(run) -> float:
    """The cost of re-walking the run's hash-chained round transcript."""
    start = time.perf_counter()
    run.result.transcript.verify()
    return (time.perf_counter() - start) * 1e3


def _drop_vs_clean(rows: list[dict]) -> None:
    """Accuracy lost against the same (defense, rule) pair's clean run, so
    the drop isolates what the poison cost, not what the rule costs."""
    clean = {
        (row["defense"], row["rule"]): row["final_accuracy"]
        for row in rows
        if row["attacker_fraction"] == 0.0
    }
    for row in rows:
        baseline = clean.get((row["defense"], row["rule"]))
        row["accuracy_drop"] = 0.0 if baseline is None else baseline - row["final_accuracy"]


def _byzantine_line(rows: list[dict]) -> str | None:
    worst_fraction = max((row["attacker_fraction"] for row in rows), default=0.0)
    at_worst = [row for row in rows if row["attacker_fraction"] == worst_fraction]
    mean = [row for row in at_worst if row["rule"] == "mean"]
    robust = [row for row in at_worst if row["rule"] != "mean"]
    if worst_fraction <= 0 or not mean or not robust:
        return None
    best = max(robust, key=lambda row: row["final_accuracy"])
    return (
        f"at {worst_fraction:.0%} attackers, plain mean merges "
        f"{mean[0]['merged']}/{mean[0]['injected']} poisons "
        f"(accuracy drop {mean[0]['accuracy_drop']:+.3f}); best robust rule "
        f"{best['rule']!r} holds at accuracy {best['final_accuracy']:.3f} "
        f"(attack success {best['attack_success_rate']:.0%}); every ledger and "
        "transcript verified"
    )


def _population_cells(k) -> list[Cell]:
    size, cohort = POPULATION_SCALES[k.scale]
    labels = {
        "population_size": k.population_size or size,
        "clients_per_round": k.cohort or cohort,
        "rounds": k.rounds,
    }
    return [Cell(labels)]


def _population_run(cell: Cell, k) -> SimpleNamespace:
    """One tracemalloc-traced run of the lazy client plane.

    Clients exist as descriptors; the selected cohort materializes for its
    round and is released after the merge.  The engine's claim is that the
    traced peak and the materialization high-water mark are both set by the
    clients per round, never by the population size.
    """
    import tracemalloc

    dataset = SyntheticPopulation(
        population_size=cell.labels["population_size"], alpha=k.alpha, seed=k.seed
    )
    config = SimulationConfig(
        rounds=k.rounds,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
        clients_per_round=cell.labels["clients_per_round"],
        seed=k.seed,
        track_per_client_accuracy=False,
        retain_received_updates=False,
        scenario=ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.5)),
    )
    tracemalloc.start()
    start = time.perf_counter()
    simulation = FederatedSimulation(dataset, model_fn_for(dataset), config)
    result = simulation.run()
    wall = time.perf_counter() - start
    _, peak_traced = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return SimpleNamespace(
        result=result, simulation=simulation, wall_seconds=wall, peak_traced_mb=peak_traced / 1e6
    )


def _memory_line(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        bounded = row["peak_materialized"] <= row["clients_per_round"]
        bound = "cohort-bounded" if bounded else "UNBOUNDED"
        lines.append(
            f"memory: {bound} — {row['peak_materialized']} of {row['population_size']} clients "
            f"ever materialized at once ({row['peak_traced_mb']:.1f} MB traced peak)"
        )
    return "\n".join(lines)


def _sharded_cell(num_shards: int, crash_rate: float, clients: int | None) -> Cell:
    config = {"num_shards": num_shards}
    if clients is not None:
        config["clients_per_round"] = clients
    faults = FaultConfig(shard_crash_rate=crash_rate)
    return Cell(
        {"num_shards": num_shards, "shard_crash_rate": crash_rate},
        scenario=lambda dataset, cohort: ScenarioConfig(faults=faults),
        config=config,
    )


@lru_cache(maxsize=1)
def _serial_state(dataset, scale, seed, rounds, crash_rate, clients) -> dict:
    """The final state of the unsharded run every cell of one crash rate must
    equal byte for byte (the merge-order contract).  One is cached: a crash
    rate's cells run back to back."""
    knobs = SimpleNamespace(dataset=dataset, scale=scale, seed=seed, rounds=rounds)
    return _simulate(_sharded_cell(0, crash_rate, clients), knobs).result.final_state


def _sharded_run(cell: Cell, k) -> SimpleNamespace:
    run = _simulate(cell, k)
    run.serial_state = _serial_state(
        k.dataset, k.scale, k.seed, k.rounds, cell.labels["shard_crash_rate"], k.clients
    )
    return run


def _shard_crashes(run) -> list[str]:
    """Resolutions of the run's injected shard crashes."""
    return [e.resolution for e in run.result.fault_ledger.entries if e.kind == "shard-crash"]


def _cohort_run(cell: Cell, k) -> SimpleNamespace:
    """Time one round's local training serial against stacked.

    A synthetic linear-probe population trains the same seeded workload
    twice through :class:`~repro.federated.cohort.CohortTrainer`: client by
    client, each model a view of its own row, and as one stacked pass
    (``cohort_batching=True``), best of ``_COHORT_REPEATS`` each after a
    shared warm-up.  Both land their refined rows for the columns to
    compare: for this architecture they must be byte-equal.
    """
    def best_of(fn) -> float:
        best = float("inf")
        for _ in range(_COHORT_REPEATS):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    start = time.perf_counter()
    size = cell.labels["cohort_size"]
    local = LocalTrainingConfig(local_epochs=k.local_epochs, batch_size=_COHORT_BATCH_SIZE)
    dataset = SyntheticPopulation(population_size=size, seed=k.seed)
    model_fn = model_fn_for(dataset)
    population = ClientPopulation.for_dataset(dataset, model_fn, local, seed=k.seed)
    broadcast = model_fn(rng_from_seed(k.seed)).state_dict()
    schema = schema_of(broadcast)
    pairs = list(enumerate(population.client_ids(range(size))))
    serial_rows = np.empty((size, schema.total_size), dtype=np.float32)
    batched_rows = np.empty_like(serial_rows)
    serial_trainer = CohortTrainer(population, schema)
    batched_trainer = CohortTrainer(population, schema, cohort_batching=True)
    serial_trainer.train_rows(pairs, broadcast, 0, serial_rows)  # warm-up
    batched_trainer.train_rows(pairs, broadcast, 0, batched_rows)
    serial = best_of(lambda: serial_trainer.train_rows(pairs, broadcast, 1, serial_rows))
    batched = best_of(lambda: batched_trainer.train_rows(pairs, broadcast, 1, batched_rows))
    return SimpleNamespace(
        result=None,
        wall_seconds=time.perf_counter() - start,
        size=size,
        serial=serial,
        batched=batched,
        serial_rows=serial_rows,
        batched_rows=batched_rows,
    )


def _identity_line(what: str, key: str, reference: str) -> Callable:
    return lambda rows: (
        f"bit-identity: {sum(1 for row in rows if row[key])}/{len(rows)} {what} "
        f"byte-equal to {reference}"
    )


# ----------------------------------------------------------------------
# The study table
# ----------------------------------------------------------------------
def _mean_inference(run) -> float:
    return float(np.mean(run.result.inference_values()))


STUDIES: dict[str, Study] = {
    "defenses": Study(
        knobs=_RUN,
        rounds=5,
        cells=lambda k: [
            Cell({"defense": name}, defense=name, attack="active") for name in DEFENSES
        ],
        columns=(
            Column("defense", "defense"),
            _FINAL_ACCURACY,
            Column("mean inference", "mean_inference", _mean_inference, _rounded(3)),
            Column(None, "random_guess", lambda run: run.dataset.random_guess_accuracy),
            Column(
                "leakage above guess",
                "leakage",
                lambda run: _mean_inference(run) - run.dataset.random_guess_accuracy,
                _rounded(3),
            ),
        ),
    ),
    "scenario": Study(
        knobs=_RUN + ("dropout", "scheme", "deadline", "buffer_fraction") + _LATENCY,
        rounds=5,
        cells=_scenario_cells,
        columns=(
            Column("scheme", "scheme"),
            _FINAL_ACCURACY,
            Column(
                "mean round secs",
                "mean_round_duration",
                _averaged("simulated_duration"),
                _rounded(2),
            ),
            _MERGED_PER_ROUND,
            Column("stale", "total_stale", _summed("num_stale")),
            Column("stragglers", "total_stragglers", _summed("num_stragglers")),
            replace(_TOTAL_SECONDS, header=None),
            _IDLE_FRACTION,
            _MERGED_PER_SECOND,
            Column("timing attack", "timing_attack", _timing_probe("accuracy"), _rounded(3)),
            Column("timing guess", "timing_guess", _timing_probe("random_guess"), _rounded(3)),
        ),
    ),
    "frontier": Study(
        knobs=_RUN + ("dropout", "deadlines", "buffer_fractions") + _LATENCY,
        rounds=5,
        cells=_frontier_cells,
        columns=(
            Column("scheme", "scheme"),
            Column("knob", "knob"),
            _FINAL_ACCURACY,
            _TOTAL_SECONDS,
            _MERGED_PER_SECOND,
            _IDLE_FRACTION,
            Column("acc/sec", "accuracy_per_second", _accuracy_per_second, _rounded(4)),
        ),
    ),
    "dirichlet-churn": Study(
        knobs=_RUN + ("dropout", "alphas"),
        rounds=4,
        cells=_dirichlet_cells,
        columns=(
            Column("alpha", "alpha", fmt="{:g}".format),
            Column("churn", "churn"),
            _FINAL_ACCURACY,
            _MERGED_PER_ROUND,
            Column("damage vs no-churn", "damage", fmt=lambda v: "-" if v is None else round(v, 3)),
        ),
        finish=_damage_vs_no_churn,
        summary=_amplification_line,
    ),
    "chaos": Study(
        knobs=_RUN
        + ("dropout", "latency_median", "proxy_crash_rates", "frame_corruption_rate")
        + ("client_crash_rate", "quorum", "max_attempts", "hop_timeout"),
        rounds=4,
        cells=lambda k: [_chaos_cell(k, rate) for rate in k.proxy_crash_rates],
        columns=(
            Column("proxy crash", "proxy_crash_rate", fmt="{:g}".format),
            Column("frame corrupt", "frame_corruption_rate", fmt="{:g}".format),
            _FINAL_ACCURACY,
            _MERGED_PER_ROUND,
            _MERGED_PER_SECOND,
            Column("faults", "faults", attrgetter("result.fault_ledger.injected")),
            Column("retries", "retries", _timed("total_retries")),
            Column("failed over", "failed_over", attrgetter("result.fault_ledger.failed_over")),
            Column("discarded", "discarded", attrgetter("result.fault_ledger.discarded")),
            Column(
                "retransmits", "retransmissions", attrgetter("result.fault_ledger.retransmissions")
            ),
            Column("recovery p50 s", "recovery_p50_s", _timed("recovery_p50_seconds"), _rounded(3)),
            Column("recovery p99 s", "recovery_p99_s", _timed("recovery_p99_seconds"), _rounded(3)),
            Column(None, "total_recovery_s", _timed("total_recovery_seconds")),
            Column("carried", "carried_forward", _summed("num_carried_forward")),
        ),
        summary=_chaos_line,
    ),
    "byzantine": Study(
        knobs=_RUN
        + ("dropout", "attack", "attack_scale", "attacker_fractions")
        + ("rules", "byzantine_defenses", "replay_rate"),
        rounds=3,
        cells=_byzantine_cells,
        columns=(
            Column("rule", "rule"),
            Column("attackers", "attacker_fraction", fmt="{:g}".format),
            Column("defense", "defense"),
            _FINAL_ACCURACY,
            Column("accuracy drop", "accuracy_drop", fmt=_rounded(3)),
            Column("injected", "injected", attrgetter("result.adversary_ledger.injected")),
            Column("merged", "merged", attrgetter("result.adversary_ledger.merged")),
            Column("filtered", "filtered", attrgetter("result.adversary_ledger.filtered")),
            Column("rejected", "rejected", attrgetter("result.adversary_ledger.rejected")),
            Column(
                "attack success",
                "attack_success_rate",
                lambda run: attack_success_rate(run.result.adversary_ledger),
                _rounded(3),
            ),
            Column(
                "filter precision",
                "filter_precision",
                lambda run: filter_precision(run.result.rounds),
                _rounded(3),
            ),
            Column(
                "filter recall",
                "filter_recall",
                lambda run: filter_recall(run.result.adversary_ledger),
                _rounded(3),
            ),
            Column("verify ms", "transcript_verify_ms", _verify_ms, _rounded(3)),
        ),
        finish=_drop_vs_clean,
        summary=_byzantine_line,
    ),
    "population": Study(
        knobs=("scale", "seed", "rounds", "population_size", "cohort", "alpha"),
        rounds=1,
        cells=_population_cells,
        measure=_population_run,
        columns=(
            Column("population", "population_size"),
            Column("cohort/round", "clients_per_round"),
            Column("rounds", "rounds"),
            Column("wall s", "wall_seconds", fmt=_rounded(2)),
            Column(
                "trained clients/s",
                "trained_clients_per_sec",
                lambda run: len(run.result.rounds)
                * run.simulation.config.clients_per_round
                / run.wall_seconds,
                _rounded(1),
            ),
            Column(
                "peak materialized",
                "peak_materialized",
                lambda run: run.simulation.population.peak_materialized,
            ),
            Column("peak traced MB", "peak_traced_mb", lambda run: run.peak_traced_mb, _rounded(1)),
            replace(_FINAL_ACCURACY, header="final acc"),
            Column(None, "merged_updates", lambda run: run.result.rounds[-1].num_aggregated),
        ),
        summary=_memory_line,
    ),
    "sharded": Study(
        knobs=_RUN + ("num_shards", "shard_crash_rates", "clients"),
        rounds=3,
        cells=lambda k: [
            _sharded_cell(shards, rate, k.clients)
            for rate in k.shard_crash_rates
            for shards in k.num_shards
        ],
        measure=_sharded_run,
        columns=(
            Column("shards", "num_shards"),
            Column("crash rate", "shard_crash_rate"),
            Column("wall s", "wall_seconds", fmt=_rounded(2)),
            Column(
                "rounds/s",
                "rounds_per_sec",
                lambda run: len(run.result.rounds) / run.wall_seconds,
                _rounded(2),
            ),
            replace(_FINAL_ACCURACY, header="final acc"),
            Column(
                "byte-identical",
                "byte_identical",
                lambda run: all(
                    np.array_equal(run.serial_state[name], value)
                    for name, value in run.result.final_state.items()
                ),
                _yes,
            ),
            Column("crashes", "crashes", lambda run: len(_shard_crashes(run))),
            Column("retried", "retried", lambda run: _shard_crashes(run).count("retried")),
            Column(
                "failed over", "failed_over", lambda run: _shard_crashes(run).count("failed-over")
            ),
        ),
        summary=_identity_line("cells", "byte_identical", "the serial path (merge-order contract)"),
    ),
    "cohort": Study(
        knobs=("seed", "cohort_sizes", "local_epochs"),
        cells=lambda k: [
            Cell({"cohort_size": size, "local_epochs": k.local_epochs}) for size in k.cohort_sizes
        ],
        measure=_cohort_run,
        columns=(
            Column("cohort", "cohort_size"),
            Column("epochs", "local_epochs"),
            Column("serial s", "serial_seconds", lambda run: run.serial, _rounded(4)),
            Column("batched s", "batched_seconds", lambda run: run.batched, _rounded(4)),
            Column("speedup", "speedup", lambda run: run.serial / run.batched, _rounded(2)),
            Column(
                "serial cl/s",
                "serial_clients_per_sec",
                lambda run: run.size / run.serial,
                _rounded(1),
            ),
            Column(
                "batched cl/s",
                "batched_clients_per_sec",
                lambda run: run.size / run.batched,
                _rounded(1),
            ),
            Column(
                "bit-identical",
                "bit_identical",
                lambda run: np.array_equal(run.serial_rows, run.batched_rows),
                _yes,
            ),
            Column(
                "max |dev|",
                "max_abs_deviation",
                lambda run: float(np.abs(run.serial_rows - run.batched_rows).max()),
                "{:.1e}".format,
            ),
        ),
        summary=_identity_line(
            "cohort sizes", "bit_identical", "the serial training loop (linear-probe contract)"
        ),
    ),
}


# ----------------------------------------------------------------------
# The two studies that return curves and a report, not a table
# ----------------------------------------------------------------------
def run_passive_vs_active(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 5,
) -> dict[str, list[float]]:
    """∇Sim's two modes on classical FL (the §5 comparison)."""
    return {
        mode: run_scheme(
            dataset_name, "classical-fl", scale=scale, seed=seed, rounds=rounds, attack_mode=mode
        )[0].inference_values()
        for mode in ("passive", "active")
    }


class _LastRound:
    """Server observer keeping the last round's broadcast and received updates."""

    def on_round(self, round_index: int, broadcast_state: dict, updates: list) -> None:
        self.broadcast_state, self.updates = broadcast_state, updates


def run_relink_robustness(
    dataset_name: str = "motionsense",
    scale: str = "ci",
    seed: int = 0,
    rounds: int = 2,
):
    """The §6.4 re-linking adversary against actual mixed updates.

    Runs MixNN for ``rounds`` rounds as a malicious server that keeps what it
    broadcast last and the mixed updates that came back, builds its
    reference models from that broadcast, and measures how often a per-layer
    classification of the mixed pieces recovers each piece's true source
    attribute.
    """
    dataset, params = build_experiment(dataset_name, scale=scale, seed=seed)
    simulation = build_simulation(dataset, params, "mixnn", seed=seed, rounds=rounds)
    last = _LastRound()
    simulation.server.add_observer(last)
    simulation.run()
    references = build_reference_states(
        last.broadcast_state,
        dataset.background_clients(),
        model_fn_for(dataset),
        params.local_config(),
        rng_from_seed(stable_seed(seed, "relink")),
        attack_epochs=params.attack_epochs,
    )
    truth = {c.client_id: c.attribute for c in dataset.clients()}
    report = RelinkAttack(references, last.broadcast_state).run(last.updates, true_attributes=truth)
    return report, dataset
