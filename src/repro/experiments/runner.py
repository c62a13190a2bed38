"""Command-line experiment runner.

Regenerate any table or figure of the paper::

    python -m repro.experiments.runner figure5 --dataset cifar10
    python -m repro.experiments.runner figure7 --dataset all
    python -m repro.experiments.runner system
    python -m repro.experiments.runner all --dataset all

Each command prints the measured rows/series next to the paper's claims and
the qualitative shape checks.

Beyond the paper, every study of :data:`repro.experiments.extensions.STUDIES`
is one command; the scenario-engine studies run on the virtual-time round
engine::

    python -m repro.experiments.runner defenses --rounds 4
    python -m repro.experiments.runner scenario --dropout 0.3 --deadline 2.0
    python -m repro.experiments.runner scenario --scheme buffered-async --buffer-fraction 0.5
    python -m repro.experiments.runner frontier --rounds 5
    python -m repro.experiments.runner dirichlet-churn --alphas 10,0.3
    python -m repro.experiments.runner chaos --proxy-crash-rates 0,0.05,0.2 --quorum 0.7
    python -m repro.experiments.runner byzantine --attack sign-flip --attacker-fractions 0,0.1,0.3
    python -m repro.experiments.runner population --population-size 1000000 --cohort 10000

Every flag is one row of :data:`KNOBS`, validated at argparse time — a bad
value dies with a usage error before any training starts, exactly like
``--dataset``.
"""

from __future__ import annotations

import argparse
import sys

from ..data import DATASETS
from ..federated.adversary import ATTACK_KINDS
from . import extensions, figure5, figure6, figure7, figure8, figure9, system_perf
from .config import params_for
from .extensions import (
    BYZANTINE_FRACTIONS,
    BYZANTINE_RULES,
    CHAOS_PROXY_CRASH_RATES,
    COHORT_SIZES,
    FRONTIER_BUFFER_FRACTIONS,
    FRONTIER_DEADLINES,
    SCENARIO_SCHEMES,
    SHARDED_CRASH_RATES,
    SHARDED_SHARD_COUNTS,
)
from .reporting import PAPER_CLAIMS

__all__ = ["main", "run_experiment", "run_scenario_experiment", "KNOBS", "KNOB_DEFAULTS"]

EXPERIMENTS = ("figure5", "figure6", "figure7", "figure8", "figure9", "system")
#: the extension studies, one command each (not part of ``all``, which
#: regenerates the paper's figures only)
SCENARIO_EXPERIMENTS = tuple(extensions.STUDIES)


def _render_checks(checks: dict[str, bool]) -> str:
    return "\n".join(f"  [{'ok' if passed else 'FAIL'}] {name}" for name, passed in checks.items())


def run_experiment(name: str, dataset: str, scale: str, seed: int) -> str:
    """Run one experiment for one dataset; return the printed report."""
    lines = [f"== {name} / {dataset} (scale={scale}, seed={seed}) =="]
    if name in PAPER_CLAIMS:
        lines.append(f"paper: {PAPER_CLAIMS[name]['statement']}")
    if name == "figure5":
        result = figure5.run_figure5(dataset, scale=scale, seed=seed)
        lines += [result.render(), _render_checks(figure5.shape_checks(result))]
    elif name == "figure6":
        result = figure6.run_figure6(dataset, scale=scale, seed=seed)
        lines += [result.render(), _render_checks(figure6.shape_checks(result))]
    elif name == "figure7":
        result = figure7.run_figure7(dataset, scale=scale, seed=seed)
        lines += [result.render(), _render_checks(figure7.shape_checks(result))]
    elif name == "figure8":
        result = figure8.run_figure8(dataset, scale=scale, seed=seed)
        lines += [result.render(), _render_checks(figure8.shape_checks(result))]
    elif name == "figure9":
        result = figure9.run_figure9(dataset, scale=scale, seed=seed)
        lines += [result.render(), _render_checks(figure9.shape_checks(result))]
    elif name == "system":
        results = system_perf.run_system_perf(seed=seed)
        lines.append(system_perf.render(results))
    else:
        raise KeyError(f"unknown experiment {name!r}; choose from {EXPERIMENTS} or 'all'")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Argparse-time validation (bad values die with a usage error, not a
# traceback deep inside a training loop)
# ----------------------------------------------------------------------
def _bounded(name: str, cast, ok, bound: str):
    """A scalar flag parser: ``cast`` the text, then require ``ok(value)``."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    # argparse names the parser in its "invalid <name> value" error
    parse.__name__ = name
    return parse


_probability = _bounded("_probability", float, lambda v: 0.0 <= v < 1.0, "a probability in [0, 1)")
_fraction = _bounded("_fraction", float, lambda v: 0.0 < v <= 1.0, "a fraction in (0, 1]")
_positive_float = _bounded("_positive_float", float, lambda v: v > 0.0, "> 0")
_nonnegative_float = _bounded("_nonnegative_float", float, lambda v: v >= 0.0, ">= 0")
_positive_int = _bounded("_positive_int", int, lambda v: v >= 1, ">= 1")


def _listed(label: str, cast, *bounds):
    """A comma-separated list parser: every value passes each ``(ok, bound)``."""
    kind = "ints" if cast is int else "floats"

    def parse(text: str) -> tuple:
        try:
            values = tuple(cast(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}, got {text!r}")
        for ok, bound in bounds:
            if not values or not all(ok(value) for value in values):
                raise argparse.ArgumentTypeError(f"{label} must be {bound}, got {text!r}")
        return values

    return parse


_POSITIVE = (lambda v: v > 0, "> 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_PROBABILITIES = (lambda v: 0.0 <= v < 1.0, "probabilities in [0, 1)")


def _one_of(allowed: tuple[str, ...]):
    return (lambda v: v in allowed, f"comma-separated values from {allowed}")


#: Every flag: (flag, parser — a type, or a tuple of choices —, default,
#: help).  A knob's name is its flag's argparse dest (``--buffer-fraction``
#: is ``buffer_fraction``); a study reads the knobs its entry names, and
#: these defaults are the only ones.
KNOBS = (
    # Validating against the registry here turns a typo like "cifr10" into an
    # immediate argparse error instead of a deep KeyError in build_experiment.
    ("--dataset", tuple(sorted(DATASETS)) + ("all",), "motionsense", "dataset name or 'all'"),
    ("--scale", ("ci", "paper"), "ci", None),
    ("--seed", int, 0, None),
    (
        "--rounds",
        _positive_int,
        None,
        "learning rounds, all scenario commands (default per command)",
    ),
    (
        "--dropout",
        _probability,
        0.2,
        "per-(client, round) churn probability, all scenario commands",
    ),
    (
        "--scheme",
        SCENARIO_SCHEMES + ("all",),
        "all",
        "round-closure scheme(s), scenario command",
    ),
    (
        "--deadline",
        _positive_float,
        2.5,
        "sync-deadline round cutoff in simulated seconds, scenario command",
    ),
    (
        "--buffer-fraction",
        _fraction,
        0.6,
        "buffered-async flush threshold as a cohort fraction, scenario command",
    ),
    (
        "--deadlines",
        _listed("deadlines", float, _POSITIVE),
        FRONTIER_DEADLINES,
        "comma-separated deadline sweep in seconds, frontier command",
    ),
    (
        "--buffer-fractions",
        _listed("buffer fractions", float, _POSITIVE, (lambda v: v <= 1.0, "in (0, 1]")),
        FRONTIER_BUFFER_FRACTIONS,
        "comma-separated buffer-fraction sweep, frontier command",
    ),
    (
        "--staleness-alpha",
        _nonnegative_float,
        0.5,
        "polynomial staleness discount exponent, scenario/frontier commands",
    ),
    (
        "--latency-median",
        _positive_float,
        1.0,
        "median simulated round-trip seconds, scenario/frontier commands",
    ),
    (
        "--straggler-fraction",
        _probability,
        0.15,
        "heavy straggler tail fraction, scenario/frontier commands",
    ),
    (
        "--alphas",
        _listed("Dirichlet alphas", float, _POSITIVE),
        (10.0, 0.3),
        "comma-separated Dirichlet alphas, dirichlet-churn command (IID-ish first)",
    ),
    (
        "--proxy-crash-rates",
        _listed("proxy crash rates", float, _PROBABILITIES),
        CHAOS_PROXY_CRASH_RATES,
        "comma-separated per-round proxy-crash probability sweep",
    ),
    (
        "--frame-corruption-rate",
        _probability,
        0.05,
        "per-(client, round, attempt) RW01 frame corruption probability",
    ),
    (
        "--client-crash-rate",
        _probability,
        0.0,
        "per-(client, round) mid-training crash probability",
    ),
    (
        "--quorum",
        _fraction,
        0.7,
        "surviving-cohort fraction at which a degraded round may close",
    ),
    (
        "--max-attempts",
        _positive_int,
        4,
        "transmission/retry attempt cap before an update is discarded",
    ),
    (
        "--hop-timeout",
        _positive_float,
        None,
        "per-hop timeout in simulated seconds (default: no timeout)",
    ),
    ("--attack", ATTACK_KINDS, "sign-flip", "poisoning attack every active attacker applies"),
    (
        "--attack-scale",
        _positive_float,
        100.0,
        "sign-flip / scaling magnitude of the poisoned delta",
    ),
    (
        "--attacker-fractions",
        _listed("attacker fractions", float, _PROBABILITIES),
        BYZANTINE_FRACTIONS,
        "comma-separated per-(client, round) Byzantine probability sweep "
        "(include 0 for the clean baseline rows)",
    ),
    (
        "--rules",
        _listed("rules", str.strip, _one_of(BYZANTINE_RULES)),
        BYZANTINE_RULES,
        "comma-separated aggregation policies to score",
    ),
    (
        "--byzantine-defenses",
        _listed("byzantine defenses", str.strip, _one_of(("none", "mixnn"))),
        ("none", "mixnn"),
        "comma-separated transport defenses to cross with the rules",
    ),
    (
        "--replay-rate",
        _probability,
        0.0,
        "per-(attacker, round) ciphertext replay probability (MixNN path)",
    ),
    (
        "--num-shards",
        _listed("shard counts", int, _AT_LEAST_ONE),
        SHARDED_SHARD_COUNTS,
        "comma-separated leaf-shard counts to sweep",
    ),
    (
        "--shard-crash-rates",
        _listed("shard crash rates", float, _PROBABILITIES),
        SHARDED_CRASH_RATES,
        "comma-separated per-(shard, round, attempt) crash probabilities "
        "(include 0 for the fault-free rows)",
    ),
    (
        "--clients",
        _positive_int,
        None,
        "clients selected per round (default: per --scale preset); must "
        "be >= the largest shard count",
    ),
    (
        "--population-size",
        _positive_int,
        None,
        "synthetic client population size (default: per --scale preset)",
    ),
    (
        "--cohort",
        _positive_int,
        None,
        "clients selected per round (default: per --scale preset)",
    ),
    (
        "--alpha",
        _positive_float,
        None,
        "Dirichlet concentration for shard label mixtures (default: uniform)",
    ),
    (
        "--cohort-sizes",
        _listed("cohort sizes", int, _AT_LEAST_ONE),
        COHORT_SIZES,
        "comma-separated cohort sizes (clients per stacked pass) to sweep",
    ),
    (
        "--local-epochs",
        _positive_int,
        1,
        "local epochs per client in the timed comparison",
    ),
)
KNOB_DEFAULTS = {flag[2:].replace("-", "_"): default for flag, _, default, _ in KNOBS}
#: the knobs a study's report header prints, in this order, when it reads them
HEADER_KNOBS = ("scale", "seed", "dropout", "local_epochs")


def run_scenario_experiment(name: str, args: argparse.Namespace) -> str:
    """Run one study command; return the printed report."""
    knobs = extensions.STUDIES[name].knobs
    shown = ", ".join(f"{knob}={getattr(args, knob)}" for knob in HEADER_KNOBS if knob in knobs)
    where = f" / {args.dataset}" if "dataset" in knobs else ""
    rows = extensions.run_study(name, **{knob: getattr(args, knob) for knob in knobs})
    return "\n".join([f"== {name}{where} ({shown}) ==", extensions.render_study(name, rows)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=EXPERIMENTS + SCENARIO_EXPERIMENTS + ("all",))
    for flag, parse, default, text in KNOBS:
        kind = "choices" if isinstance(parse, tuple) else "type"
        parser.add_argument(flag, default=default, help=text, **{kind: parse})
    args = parser.parse_args(argv)

    if args.experiment in SCENARIO_EXPERIMENTS:
        knobs = extensions.STUDIES[args.experiment].knobs
        if "dataset" in knobs and args.dataset == "all":
            # the paper-figure path expands "all"; a study runs one dataset —
            # reject here so it stays a usage error, not a KeyError deep
            # inside build_experiment
            parser.error(
                f"{args.experiment} runs a single dataset; pass --dataset "
                f"{'|'.join(sorted(DATASETS))}"
            )
        if "num_shards" in knobs:
            # every leaf shard needs a client: ShardPlanError, but before any
            # training instead of after the serial reference run
            clients = args.clients or params_for(args.dataset, args.scale).clients_per_round
            if max(args.num_shards) > clients:
                parser.error(
                    f"--num-shards {max(args.num_shards)} exceeds the {clients} clients "
                    "selected per round; every leaf shard needs at least one client"
                )
        print(run_scenario_experiment(args.experiment, args))
        return 0

    experiments = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    datasets = tuple(DATASETS) if args.dataset == "all" else (args.dataset,)
    for experiment in experiments:
        if experiment == "system":
            print(run_experiment(experiment, "-", args.scale, args.seed))
            print()
            continue
        for dataset in datasets:
            print(run_experiment(experiment, dataset, args.scale, args.seed))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
