"""Runner CLI dispatch logic (experiment × dataset matrix), without the cost
of actually running the experiments."""

import pytest

from repro.experiments import extensions, runner


@pytest.fixture()
def recorded(monkeypatch):
    calls = []

    def fake_run_experiment(name, dataset, scale, seed):
        calls.append((name, dataset, scale, seed))
        return f"report {name}/{dataset}"

    monkeypatch.setattr(runner, "run_experiment", fake_run_experiment)
    return calls


class TestDispatch:
    def test_single_experiment_single_dataset(self, recorded, capsys):
        assert runner.main(["figure5", "--dataset", "lfw"]) == 0
        assert recorded == [("figure5", "lfw", "ci", 0)]
        assert "report figure5/lfw" in capsys.readouterr().out

    def test_dataset_all_expands(self, recorded):
        runner.main(["figure7", "--dataset", "all"])
        datasets = [call[1] for call in recorded]
        assert sorted(datasets) == ["cifar10", "lfw", "mobiact", "motionsense"]

    def test_all_experiments_include_system_once(self, recorded):
        runner.main(["all", "--dataset", "cifar10"])
        names = [call[0] for call in recorded]
        assert names.count("system") == 1
        assert set(names) == set(runner.EXPERIMENTS)

    def test_scale_and_seed_forwarded(self, recorded):
        runner.main(["figure8", "--dataset", "cifar10", "--scale", "paper", "--seed", "7"])
        assert recorded == [("figure8", "cifar10", "paper", 7)]

    def test_system_ignores_dataset(self, recorded):
        runner.main(["system", "--dataset", "all"])
        assert recorded == [("system", "-", "ci", 0)]

    def test_dataset_typo_fails_at_argparse_time(self, recorded, capsys):
        """A typo like 'cifr10' must die with a usage error, not a KeyError."""
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["figure5", "--dataset", "cifr10"])
        assert excinfo.value.code == 2
        assert "cifr10" in capsys.readouterr().err
        assert recorded == []  # no experiment was attempted

    def test_every_registry_dataset_is_a_valid_choice(self, recorded):
        from repro.data import DATASETS

        for dataset in DATASETS:
            assert runner.main(["figure5", "--dataset", dataset]) == 0
        assert [call[1] for call in recorded] == list(DATASETS)


#: one good value per study flag: (command, flag, text, knob, parsed value)
GOOD_FLAGS = [
    ("frontier", "--deadlines", "1,3.5", "deadlines", (1.0, 3.5)),
    ("frontier", "--buffer-fractions", "0.3,1", "buffer_fractions", (0.3, 1.0)),
    ("scenario", "--straggler-fraction", "0.25", "straggler_fraction", 0.25),
    ("chaos", "--proxy-crash-rates", "0,0.5", "proxy_crash_rates", (0.0, 0.5)),
    ("chaos", "--frame-corruption-rate", "0.1", "frame_corruption_rate", 0.1),
    ("chaos", "--client-crash-rate", "0.02", "client_crash_rate", 0.02),
    ("chaos", "--quorum", "0.9", "quorum", 0.9),
    ("chaos", "--max-attempts", "2", "max_attempts", 2),
    ("chaos", "--hop-timeout", "3.5", "hop_timeout", 3.5),
    ("byzantine", "--attack", "gaussian", "attack", "gaussian"),
    ("byzantine", "--attack-scale", "10", "attack_scale", 10.0),
    ("byzantine", "--attacker-fractions", "0,0.2", "attacker_fractions", (0.0, 0.2)),
    ("byzantine", "--rules", "median,krum", "rules", ("median", "krum")),
    ("byzantine", "--byzantine-defenses", "mixnn", "byzantine_defenses", ("mixnn",)),
    ("byzantine", "--replay-rate", "0.5", "replay_rate", 0.5),
    ("sharded", "--num-shards", "1,3", "num_shards", (1, 3)),
    ("sharded", "--shard-crash-rates", "0,0.1", "shard_crash_rates", (0.0, 0.1)),
    ("sharded", "--clients", "8", "clients", 8),
    ("population", "--population-size", "5000", "population_size", 5000),
    ("population", "--cohort", "50", "cohort", 50),
    ("population", "--alpha", "0.5", "alpha", 0.5),
    ("cohort", "--cohort-sizes", "8,32", "cohort_sizes", (8, 32)),
    ("cohort", "--local-epochs", "3", "local_epochs", 3),
]


@pytest.fixture()
def recorded_scenario(monkeypatch):
    calls = []

    def fake_run_scenario_experiment(name, args):
        calls.append((name, args))
        return f"report {name}"

    monkeypatch.setattr(runner, "run_scenario_experiment", fake_run_scenario_experiment)
    return calls


class TestScenarioDispatch:
    def test_scenario_command_dispatches_with_knobs(self, recorded_scenario, capsys):
        assert (
            runner.main(
                [
                    "scenario",
                    "--dropout",
                    "0.3",
                    "--deadline",
                    "2.0",
                    "--buffer-fraction",
                    "0.5",
                    "--scheme",
                    "buffered-async",
                ]
            )
            == 0
        )
        (name, args), = recorded_scenario
        assert name == "scenario"
        assert args.dropout == 0.3
        assert args.deadline == 2.0
        assert args.buffer_fraction == 0.5
        assert args.scheme == "buffered-async"
        assert "report scenario" in capsys.readouterr().out

    def test_frontier_and_dirichlet_commands_exist(self, recorded_scenario):
        runner.main(["frontier"])
        runner.main(["dirichlet-churn", "--alphas", "5,0.5"])
        names = [name for name, _ in recorded_scenario]
        assert names == ["frontier", "dirichlet-churn"]
        assert recorded_scenario[1][1].alphas == (5.0, 0.5)

    def test_all_does_not_include_scenario_commands(self, recorded, recorded_scenario):
        runner.main(["all", "--dataset", "motionsense"])
        assert recorded_scenario == []
        assert {call[0] for call in recorded} == set(runner.EXPERIMENTS)

    @pytest.mark.parametrize(
        "flags",
        [
            ["scenario", "--dropout", "1.0"],
            ["scenario", "--dropout", "-0.1"],
            ["scenario", "--deadline", "0"],
            ["scenario", "--buffer-fraction", "0"],
            ["scenario", "--buffer-fraction", "1.5"],
            ["scenario", "--staleness-alpha", "-1"],
            ["scenario", "--latency-median", "-2"],
            ["scenario", "--scheme", "fedsgd"],
            ["scenario", "--rounds", "0"],
            ["dirichlet-churn", "--alphas", "0,-1"],
            ["dirichlet-churn", "--alphas", ""],
            ["frontier", "--deadlines", "1,0"],
            ["frontier", "--buffer-fractions", "0.5,1.5"],
            ["scenario", "--straggler-fraction", "1.0"],
            ["chaos", "--proxy-crash-rates", "0,1"],
            ["chaos", "--frame-corruption-rate", "-0.1"],
            ["chaos", "--client-crash-rate", "1.5"],
            ["chaos", "--quorum", "0"],
            ["chaos", "--max-attempts", "0"],
            ["chaos", "--hop-timeout", "0"],
            ["byzantine", "--attack", "bit-flip"],
            ["byzantine", "--attack-scale", "-1"],
            ["byzantine", "--attacker-fractions", "0.1,x"],
            ["byzantine", "--rules", "mean,avg"],
            ["byzantine", "--byzantine-defenses", "tor"],
            ["byzantine", "--replay-rate", "1"],
            ["sharded", "--num-shards", "0"],
            ["sharded", "--shard-crash-rates", "-0.3"],
            ["sharded", "--clients", "0"],
            ["population", "--population-size", "0"],
            ["population", "--cohort", "-5"],
            ["population", "--alpha", "0"],
            ["cohort", "--cohort-sizes", "16,0"],
            ["cohort", "--local-epochs", "0"],
            ["scenario", "--dataset", "all"],
            ["sharded", "--dataset", "all"],
        ],
    )
    def test_bad_scenario_knobs_die_at_argparse_time(
        self, recorded_scenario, flags, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(flags)
        assert excinfo.value.code == 2
        assert recorded_scenario == []
        capsys.readouterr()

    @pytest.mark.parametrize("command, flag, text, knob, expected", GOOD_FLAGS)
    def test_good_knob_values_reach_the_study(
        self, recorded_scenario, command, flag, text, knob, expected
    ):
        assert runner.main([command, flag, text]) == 0
        (name, args), = recorded_scenario
        assert name == command
        assert getattr(args, knob) == expected

    @pytest.mark.parametrize(
        "flags",
        [
            ["sharded", "--clients", "1", "--num-shards", "2"],
            # no --clients: compared against motionsense's 20 clients per round
            ["sharded", "--num-shards", "32"],
        ],
    )
    def test_impossible_shard_count_dies_before_training(
        self, recorded_scenario, flags, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(flags)
        assert excinfo.value.code == 2
        assert recorded_scenario == []
        assert "--num-shards" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["population", "cohort"])
    def test_studies_that_ignore_dataset_accept_all(self, recorded_scenario, command):
        assert runner.main([command, "--dataset", "all"]) == 0
        assert [name for name, _ in recorded_scenario] == [command]


def test_sharded_header_omits_dropout(capsys):
    """The sharded study reads no dropout, so its header does not print one."""
    flags = ["sharded", "--rounds", "1", "--num-shards", "1", "--shard-crash-rates", "0"]
    assert runner.main(flags) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert "dropout=" not in header
    assert header == "== sharded / motionsense (scale=ci, seed=0) =="


class TestStudyTable:
    """The runner's study commands are exactly the study table's entries, and
    every knob an entry reads is one flag."""

    def test_every_study_is_a_runner_command(self, recorded_scenario):
        assert runner.SCENARIO_EXPERIMENTS == tuple(extensions.STUDIES)
        for name in extensions.STUDIES:
            assert runner.main([name]) == 0
        assert [name for name, _ in recorded_scenario] == list(extensions.STUDIES)

    def test_every_knob_read_has_exactly_one_flag(self):
        dests = [flag[2:].replace("-", "_") for flag, *_ in runner.KNOBS]
        assert len(dests) == len(set(dests))
        read = set()
        for study in extensions.STUDIES.values():
            assert len(study.knobs) == len(set(study.knobs))
            read.update(study.knobs)
        assert read == set(dests)

    @pytest.mark.parametrize("command, flag, text, knob, expected", GOOD_FLAGS)
    def test_knob_values_reach_run_study(self, monkeypatch, command, flag, text, knob, expected):
        calls = []

        def fake_run_study(name, **knobs):
            calls.append((name, knobs))
            return []

        monkeypatch.setattr(extensions, "run_study", fake_run_study)
        assert runner.main([command, flag, text]) == 0
        (name, knobs), = calls
        assert name == command
        assert knobs[knob] == expected
        assert set(knobs) == set(extensions.STUDIES[command].knobs)
