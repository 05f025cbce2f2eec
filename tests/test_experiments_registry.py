"""Tests for the experiment registry and the analytic experiments.

Simulation-backed experiments are exercised end-to-end by the integration
suite, and their paper-shape claims are scorecard criteria
(``repro scorecard``); here we verify the registry plumbing and run the
cheap analytic experiments completely.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {
            "fig1", "fig3", "fig4", "fig6", "fig8", "fig9", "fig10", "fig11",
            "table1", "table3", "table4", "table5", "table6", "table7",
            "burst8", "twoway", "psl-sweep", "mact-sweep", "lh-replacement",
            "mlp-sweep", "victim-cache", "page-policy", "energy",
            "overheads", "scorecard",
        }
        assert set(EXPERIMENTS) == expected

    def test_lookup_case_insensitive(self):
        assert get_experiment("FIG1") is EXPERIMENTS["fig1"]

    def test_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="fig4"):
            get_experiment("fig99")


class TestAnalyticExperiments:
    def test_fig1(self):
        result = run_experiment("fig1")
        assert result.experiment_id == "fig1"
        fast = result.row_by_key("fast")
        slow = result.row_by_key("slow")
        assert fast[-1] == "True"  # A helps the fast cache
        assert slow[-1] == "False"  # A hurts the slow cache

    def test_fig3_matches_paper_column(self):
        result = run_experiment("fig3")
        for row in result.rows:
            design, access, event, cycles, paper = row
            if paper != "-":
                assert cycles == paper, (design, access, event)

    def test_table4(self):
        result = run_experiment("table4")
        assert result.row_by_key("alloy-cache")[3] == 6.4
        assert result.row_by_key("lh-cache")[3] < 2.0

    def test_quick_flag_accepted(self):
        assert run_experiment("fig1", quick=True).rows


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table7" in out

    def test_unknown_experiment_exit_code(self, capsys):
        from repro.cli import main

        assert main(["figZZ"]) == 2

    def test_run_analytic(self, capsys):
        from repro.cli import main

        assert main(["fig1"]) == 0
        assert "fig1" in capsys.readouterr().out


class TestScorecardInputsAreCached:
    """The simulation-backed experiments the scorecard reads run their
    cells through the result cache, so the scorecard that ends ``repro
    all`` (and a warm ``repro scorecard``) simulates none of them again."""

    @pytest.mark.parametrize(
        "experiment", ["table3", "victim-cache", "page-policy", "mlp-sweep"]
    )
    def test_second_run_simulates_nothing(self, experiment, monkeypatch, tmp_path):
        from repro.experiments import common
        from repro.sim.system import System

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(common, "QUICK_READS", 100)
        first = run_experiment(experiment, quick=True).render()

        def simulate(system):
            raise AssertionError(f"{experiment} simulated a cached cell")

        monkeypatch.setattr(System, "run", simulate)
        assert run_experiment(experiment, quick=True).render() == first
