"""Extension experiment harnesses (miniature runs)."""

import numpy as np
import pytest

from repro.experiments import extensions
from repro.experiments.common import DEFENSES, make_defense, run_scheme
from repro.experiments.config import build_experiment, params_for
from repro.experiments.extensions import (
    CHURN_MODES,
    SCENARIO_SCHEMES,
    make_scenario,
    render_study,
    run_passive_vs_active,
    run_relink_robustness,
    run_study,
)
from repro.experiments.models import model_fn_for
from repro.utils.rng import rng_from_seed


class TestRoster:
    def test_five_defenses(self):
        assert set(DEFENSES) == {
            "classical-fl",
            "noisy-gradient",
            "mixnn",
            "secure-aggregation",
            "dp-clip-noise",
        }
        for name in DEFENSES:
            make_defense(name, params_for("motionsense"))


class TestDefenseComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_study("defenses", dataset="motionsense", rounds=2)

    def test_one_row_per_defense(self, rows):
        assert {row["defense"] for row in rows} == set(DEFENSES)

    def test_metrics_in_range(self, rows):
        for row in rows:
            assert 0.0 <= row["final_accuracy"] <= 1.0
            assert 0.0 <= row["mean_inference"] <= 1.0
            assert row["random_guess"] == pytest.approx(0.5)

    def test_mixnn_matches_fl_utility(self, rows):
        by_name = {row["defense"]: row for row in rows}
        assert by_name["mixnn"]["final_accuracy"] == pytest.approx(
            by_name["classical-fl"]["final_accuracy"], abs=1e-3
        )

    def test_fl_leaks_most(self, rows):
        by_name = {row["defense"]: row for row in rows}
        assert by_name["classical-fl"]["leakage"] >= by_name["mixnn"]["leakage"]

    def test_render(self, rows):
        text = render_study("defenses", rows)
        assert "secure-aggregation" in text
        assert "leakage above guess" in text


class TestStudyLoop:
    def test_every_simulated_cell_is_audited(self, monkeypatch):
        """The loop validates the fault ledger even of a study without faults."""
        from repro.federated import FaultLedger

        def out_of_balance(ledger):
            raise ValueError("fault ledger out of balance")

        monkeypatch.setattr(FaultLedger, "validate", out_of_balance)
        with pytest.raises(ValueError, match="out of balance"):
            run_study("frontier", rounds=1, deadlines=(1.5,), buffer_fractions=(0.5,))

    def test_rows_are_dicts_with_wall_seconds(self):
        rows = run_study("cohort", cohort_sizes=(4,))
        assert [type(row) for row in rows] == [dict]
        assert rows[0]["wall_seconds"] > 0.0
        assert rows[0]["bit_identical"]

    def test_a_knob_the_study_does_not_read_is_refused(self):
        with pytest.raises(TypeError, match="reads no knob"):
            run_study("cohort", dropout=0.2)


class TestPassiveVsActive:
    def test_both_modes_run(self):
        curves = run_passive_vs_active("motionsense", rounds=2)
        assert set(curves) == {"passive", "active"}
        assert all(len(curve) == 2 for curve in curves.values())


class TestScenarioComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_study("scenario", dataset="motionsense", rounds=2, dropout=0.2)

    def test_one_row_per_scheme(self, rows):
        assert [row["scheme"] for row in rows] == list(SCENARIO_SCHEMES)

    def test_metrics_in_range(self, rows):
        for row in rows:
            assert 0.0 <= row["final_accuracy"] <= 1.0
            assert row["mean_round_duration"] >= 0.0
            assert row["mean_aggregated"] >= 1.0

    def test_deadline_round_is_no_slower_than_full_wait(self, rows):
        by_name = {row["scheme"]: row for row in rows}
        assert (
            by_name["sync-deadline"]["mean_round_duration"]
            <= by_name["sync-full"]["mean_round_duration"] + 1e-9
        )

    def test_make_scenario_rejects_unknown_scheme(self):
        with pytest.raises(KeyError):
            make_scenario("fedsgd", 0.2, 16)

    def test_measured_wall_clock_columns(self, rows):
        for row in rows:
            assert row["total_simulated_seconds"] > 0.0
            assert 0.0 <= row["mean_idle_fraction"] <= 1.0
            assert row["merged_per_simulated_sec"] > 0.0
        by_name = {row["scheme"]: row for row in rows}
        # cutting the round earlier always raises measured throughput
        assert (
            by_name["buffered-async"]["merged_per_simulated_sec"]
            >= by_name["sync-full"]["merged_per_simulated_sec"]
        )

    def test_timing_probe_reported_alongside(self, rows):
        for row in rows:
            assert 0.0 <= row["timing_attack"] <= 1.0
            assert 0.0 < row["timing_guess"] <= 1.0

    def test_schemes_filter(self):
        rows = run_study(
            "scenario", dataset="motionsense", rounds=2, dropout=0.2, scheme="sync-deadline"
        )
        assert [row["scheme"] for row in rows] == ["sync-deadline"]

    def test_render(self, rows):
        text = render_study("scenario", rows)
        assert "buffered-async" in text
        assert "mean round secs" in text
        assert "timing attack" in text


class TestDeadlineThroughputFrontier:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_study(
            "frontier", dataset="motionsense", rounds=2, deadlines=(1.5, 3.0), buffer_fractions=(0.5,)
        )

    def test_one_row_per_knob_point(self, rows):
        assert [(row["scheme"], row["knob"]) for row in rows] == [
            ("sync-full", "-"),
            ("sync-deadline", "deadline=1.5s"),
            ("sync-deadline", "deadline=3s"),
            ("buffered-async", "buffer=0.5"),
        ]

    def test_frontier_is_measured_not_inferred(self, rows):
        """Tighter deadlines must show as *measured* shorter totals and higher
        throughput on the event stream."""
        by_knob = {row["knob"]: row for row in rows}
        total = {knob: row["total_simulated_seconds"] for knob, row in by_knob.items()}
        assert total["deadline=1.5s"] <= total["deadline=3s"]
        assert total["deadline=3s"] <= total["-"]
        assert (
            by_knob["deadline=1.5s"]["merged_per_simulated_sec"]
            >= by_knob["-"]["merged_per_simulated_sec"]
        )
        for row in rows:
            assert row["total_simulated_seconds"] > 0.0

    def test_render(self, rows):
        text = render_study("frontier", rows)
        assert "deadline=1.5s" in text
        assert "acc/sec" in text


class TestDirichletChurnMatrix:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_study(
            "dirichlet-churn", dataset="motionsense", rounds=2, dropout=0.3, alphas=(10.0, 0.3)
        )

    def test_full_matrix(self, cells):
        assert [(cell["alpha"], cell["churn"]) for cell in cells] == [
            (alpha, mode) for alpha in (10.0, 0.3) for mode in CHURN_MODES
        ]

    def test_churn_shrinks_rounds(self, cells):
        by_key = {(cell["alpha"], cell["churn"]): cell for cell in cells}
        for alpha in (10.0, 0.3):
            assert (
                by_key[(alpha, "dropout")]["mean_aggregated"]
                < by_key[(alpha, "none")]["mean_aggregated"]
            )
            assert (
                by_key[(alpha, "outage-trace")]["mean_aggregated"]
                < by_key[(alpha, "none")]["mean_aggregated"]
            )

    def test_damage_table_covers_churn_modes(self, cells):
        damage = {}
        for cell in cells:
            if cell["damage"] is not None:
                damage.setdefault(cell["alpha"], set()).add(cell["churn"])
        assert set(damage) == {10.0, 0.3}
        for modes in damage.values():
            assert modes == {"dropout", "outage-trace"}

    def test_render_includes_verdict(self, cells):
        text = render_study("dirichlet-churn", cells)
        assert "damage vs no-churn" in text
        assert "amplif" in text  # the verdict line


class TestRelinkRobustness:
    def test_report_structure(self):
        report, dataset = run_relink_robustness("motionsense", rounds=2)
        assert dataset.name == "motionsense"
        assert report.piece_accuracy is not None
        assert 0.0 <= report.consistency_rate <= 1.0
        assert len(report.piece_assignments) == 20  # clients_per_round for motionsense

    def test_chimeras_are_inconsistent(self):
        """Mixed updates must not regroup under per-piece classification."""
        report, _ = run_relink_robustness("motionsense", rounds=2)
        assert report.consistency_rate < 0.6


class TestRelinkBroadcast:
    """The re-linking adversary scores the last round's updates against the
    broadcast they refined, not against anything re-derived from them."""

    @pytest.fixture()
    def broadcasts(self, monkeypatch):
        seen = []

        class Recorder(extensions.RelinkAttack):
            def __init__(self, references, broadcast_state):
                seen.append(broadcast_state)
                super().__init__(references, broadcast_state)

        monkeypatch.setattr(extensions, "RelinkAttack", Recorder)
        return seen

    @staticmethod
    def assert_same_state(actual, expected):
        assert list(actual) == list(expected)
        for name, value in expected.items():
            np.testing.assert_array_equal(actual[name], value)

    def test_one_round_scores_against_the_initial_model(self, broadcasts):
        run_relink_robustness("motionsense", rounds=1)
        dataset, _ = build_experiment("motionsense")
        initial = model_fn_for(dataset)(rng_from_seed(0)).state_dict()
        self.assert_same_state(broadcasts[0], initial)

    def test_two_rounds_score_against_the_round_zero_aggregate(self, broadcasts):
        run_relink_robustness("motionsense", rounds=2)
        after_round_zero = run_scheme("motionsense", "mixnn", rounds=1)[0].final_state
        self.assert_same_state(broadcasts[0], after_round_zero)
