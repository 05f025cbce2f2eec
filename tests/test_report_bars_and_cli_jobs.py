"""Tests for ASCII figure rendering, parallel CLI, and latency percentiles."""

import pytest

from repro.experiments.report import ExperimentResult, render_bars


@pytest.fixture
def result():
    r = ExperimentResult("figX", "demo", headers=["workload", "speedup"])
    r.add_row("mcf_r", 1.0)
    r.add_row("gcc_r", 2.0)
    return r


class TestRenderBars:
    def test_scales_to_max(self, result):
        chart = render_bars(result, "speedup", width=10)
        lines = chart.splitlines()
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 10

    def test_labels_present(self, result):
        chart = render_bars(result, "speedup")
        assert "mcf_r" in chart and "gcc_r" in chart

    def test_values_annotated(self, result):
        assert "2.000" in render_bars(result, "speedup")

    def test_zero_peak(self):
        r = ExperimentResult("z", "z", headers=["a", "v"], rows=[["x", 0.0]])
        chart = render_bars(r, "v")
        assert "#" not in chart

    def test_custom_label_column(self, result):
        chart = render_bars(result, "speedup", label_column="workload")
        assert chart.splitlines()[1].startswith("mcf_r")


class TestCliExtras:
    def test_bars_flag(self, capsys):
        from repro.cli import main

        assert main(["fig1", "--bars"]) == 0
        out = capsys.readouterr().out
        assert "#" in out

    def test_jobs_parallel(self, capsys):
        from repro.cli import main

        assert main(["fig1", "table4", "overheads", "--jobs", "3"]) == 0
        out = capsys.readouterr().out
        assert "== fig1" in out and "== table4" in out and "== overheads" in out

    def test_jobs_preserves_order(self, capsys):
        from repro.cli import main

        main(["table4", "fig1", "--jobs", "2"])
        out = capsys.readouterr().out
        assert out.index("== table4") < out.index("== fig1")

    def test_jobs_runs_experiments_whose_sweeps_fan_out(self, tmp_path):
        """With REPRO_JOBS > 1 each experiment worker starts its own sweep
        pool, so the workers must be allowed children. The parallel run is
        a fresh process, as from the command line."""
        import os
        import subprocess
        import sys

        from repro.experiments.registry import run_experiments

        ids = ["burst8", "twoway"]
        code = (
            "from repro.experiments.registry import run_experiments\n"
            f"for _, result, _ in run_experiments({ids!r}, quick=True, jobs=2):\n"
            "    print(result.render())\n"
        )
        env = dict(os.environ)
        env.update(
            PYTHONPATH="src", REPRO_JOBS="2", REPRO_CACHE_DIR=str(tmp_path)
        )
        nested = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert nested.returncode == 0, nested.stderr
        serial = run_experiments(ids, quick=True)
        assert nested.stdout == "".join(
            result.render() + "\n" for _, result, _ in serial
        )


class TestHistogramPercentiles:
    def test_percentile_basic(self):
        from repro.stats import Histogram

        h = Histogram("lat", [10, 20, 30])
        for v in (5, 15, 15, 25):
            h.sample(v)
        assert h.percentile(0.25) == 10
        assert h.percentile(0.75) == 20
        assert h.percentile(1.0) == 30

    def test_percentile_overflow(self):
        from repro.stats import Histogram

        h = Histogram("lat", [10])
        h.sample(99)
        assert h.percentile(0.5) == float("inf")

    def test_percentile_empty_and_invalid(self):
        from repro.stats import Histogram

        h = Histogram("lat", [10])
        assert h.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_simulation_reports_percentiles(self):
        from repro.sim.config import SystemConfig
        from repro.sim.runner import run_benchmark

        config = SystemConfig(capacity_scale=2048)
        result = run_benchmark("alloy-map-i", "sphinx_r", config, reads_per_core=400)
        assert result.hit_latency_p50 > 0
        assert result.hit_latency_p95 >= result.hit_latency_p50
        assert result.read_latency_p95 >= result.hit_latency_p50


class TestStridedPattern:
    def test_fixed_stride(self):
        import numpy as np

        from repro.units import MB
        from repro.workloads.patterns import (
            Component,
            PatternConfig,
            generate_core_trace,
        )

        cfg = PatternConfig(
            name="strided",
            mpki=20.0,
            components=(Component("strided", 1.0, 16 * MB, run_length=32),),
            write_fraction=0.0,
            gap_mean_cycles=10.0,
        )
        trace = generate_core_trace(cfg, 500, seed=1)
        diffs = np.diff(trace.addresses)
        wrap_free = diffs[diffs > 0]
        assert float(np.mean(wrap_free == 32)) > 0.95

    def test_row_buffer_hostile(self):
        """A 32-line stride touches a new 2 KB row on every access."""
        from repro.dram.mapping import AddressMapping
        from repro.units import MB
        from repro.workloads.patterns import (
            Component,
            PatternConfig,
            generate_core_trace,
        )

        cfg = PatternConfig(
            name="strided",
            mpki=20.0,
            components=(Component("strided", 1.0, 32 * MB, run_length=32),),
            write_fraction=0.0,
            gap_mean_cycles=10.0,
        )
        trace = generate_core_trace(cfg, 300, seed=2)
        mapping = AddressMapping(2, 8, 2048)
        addresses = trace.addresses.tolist()
        same_row = sum(
            mapping.locate(a) == mapping.locate(b)
            for a, b in zip(addresses, addresses[1:])
        )
        assert same_row / (len(addresses) - 1) < 0.05
