"""Tests for CLI extras (CSV export) and example-script integrity."""

import csv
import py_compile
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestCsvExport:
    def test_csv_written(self, tmp_path, capsys):
        assert main(["fig1", "--csv", str(tmp_path / "out")]) == 0
        csv_path = tmp_path / "out" / "fig1.csv"
        assert csv_path.exists()
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "cache"
        assert len(rows) == 3  # header + fast + slow

    def test_multiple_experiments_multiple_files(self, tmp_path, capsys):
        assert main(["fig1", "table4", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "table4.csv").exists()

    def test_report_write_csv_roundtrip(self, tmp_path):
        from repro.experiments.report import ExperimentResult, write_csv

        result = ExperimentResult("t", "t", headers=["a", "b"], rows=[[1, 2.5]])
        path = tmp_path / "t.csv"
        write_csv(result, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows == [["a", "b"], ["1", "2.5"]]


class TestExamples:
    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "design_comparison.py",
            "predictor_study.py",
            "capacity_planning.py",
        ],
    )
    def test_example_compiles(self, script):
        py_compile.compile(str(EXAMPLES_DIR / script), doraise=True)

    def test_examples_directory_complete(self):
        scripts = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
        assert "quickstart.py" in scripts
        assert len(scripts) >= 3

    def test_map_i_demo_runs(self, capsys):
        """The predictor_study demonstration path, without the sweep."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "predictor_study", EXAMPLES_DIR / "predictor_study.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.demonstrate_map_i()
        out = capsys.readouterr().out
        assert "96 bytes/core" in out


class TestNoCacheWritesNoArena:
    """``--no-cache`` keeps traces in memory: run from an empty working
    directory with ``REPRO_CACHE_DIR`` unset, a verb leaves no ``.npz``
    trace arena anywhere under it. The seeds are unusual so no earlier
    test's in-process memo already holds the workload."""

    @pytest.fixture
    def cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        return tmp_path

    def test_breakdown(self, cwd, capsys):
        assert main([
            "breakdown", "--designs", "alloy", "--benchmarks", "mcf",
            "--reads", "300", "--seed", "9301", "--no-cache",
        ]) == 0
        assert "mcf_r" in capsys.readouterr().out
        assert sorted(cwd.rglob("*.npz")) == []

    def test_explore(self, cwd, capsys):
        assert main([
            "explore", "--strategy", "grid", "--name", "nocache",
            "--designs", "alloy", "--benchmarks", "sphinx",
            "--page-policies", "open", "--line-bursts", "4",
            "--cache-mbs", "128", "--timings", "paper",
            "--capacity-scales", "4096", "--reads", "200",
            "--seed", "9302", "--no-cache",
        ]) == 0
        capsys.readouterr()
        assert sorted(cwd.rglob("*.npz")) == []


class TestSweepTraceAndMixes:
    def _write_k6(self, tmp_path):
        path = tmp_path / "k6_cli.trc"
        rows = [f"0x{(i % 11) * 64:x} P_MEM_RD {i * 7}" for i in range(1, 120)]
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_trace_sweep_and_cached_rerun(self, tmp_path, capsys):
        path = self._write_k6(tmp_path)
        args = ["sweep", "--trace", str(path), "--designs", "alloy",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "trace:k6:" in out
        # Rerun: both cells (design + baseline) from the result cache.
        assert main([*args, "--expect-cache-hits", "2"]) == 0

    def test_trace_decoded_once_per_run(self, tmp_path, capsys):
        path = self._write_k6(tmp_path)
        assert main([
            "sweep", "--trace", str(path), "--designs", "alloy",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        # The CLI decode is adopted into the arena: the sweep itself must
        # not re-run any workload build.
        assert "0 generator runs" in out

    def test_bad_trace_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "k6_bad.trc"
        path.write_text("0x1000 P_MEM_RD 5\nnot a record\n")
        code = main(["sweep", "--trace", str(path), "--designs", "alloy",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_mix_sweep(self, tmp_path, capsys):
        assert main([
            "sweep", "--benchmarks", "mix1", "--designs", "alloy",
            "--reads", "300", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        assert "mix1" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--benchmarks", "mix99", "--designs", "alloy",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "mix1" in capsys.readouterr().err
