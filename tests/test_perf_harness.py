"""Tests for the ``repro bench`` perf harness and the golden scorecard.

The harness itself must be trustworthy before its numbers gate CI: grid
cell ids are the cross-run join keys, payloads are schema-versioned, and
the comparison must normalize away host speed rather than code speed.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.perf import bench as perf_bench
from repro.perf.bench import (
    BENCH_SCHEMA,
    DEFAULT_BENCHMARKS,
    DEFAULT_DESIGNS,
    QUICK_BENCHMARKS,
    QUICK_DESIGNS,
    BenchCell,
    BenchRun,
    compare,
    latest_bench_file,
    load_bench,
    make_bench_grid,
    time_cell,
    write_bench,
)
from repro.perf.golden import (
    GOLDEN_READS,
    canonical_dumps,
    diff_payloads,
    golden_grid,
    grid_results,
)
from repro.workloads.arena import (
    WorkloadParams,
    default_trace_dir,
    get_workload_arena,
    save_arena,
)
from repro.workloads.spec import generate_workload
from repro.workloads.trace import Workload

SCORECARD = Path(__file__).parent / "goldens" / "scorecard.json"


class TestGridConstruction:
    def test_cross_product(self):
        cells = make_bench_grid(["a", "b"], ["x", "y", "z"], reads_per_core=100)
        assert len(cells) == 6
        assert {(c.design, c.benchmark) for c in cells} == {
            (d, b) for d in ("a", "b") for b in ("x", "y", "z")
        }
        assert all(c.reads_per_core == 100 for c in cells)

    def test_cell_id_pins_every_parameter(self):
        cell = BenchCell("alloy-map-i", "mcf_r", 2000, 0.25, 1)
        assert cell.cell_id == "alloy-map-i/mcf_r/r2000/w0.25/s1"

    def test_quick_grid_is_subset_of_full_grid(self):
        # CI compares a --quick run against the committed full baseline,
        # so every quick cell id must also appear in the full grid.
        full = {c.cell_id for c in make_bench_grid(DEFAULT_DESIGNS, DEFAULT_BENCHMARKS)}
        quick = {c.cell_id for c in make_bench_grid(QUICK_DESIGNS, QUICK_BENCHMARKS)}
        assert quick <= full
        assert quick  # non-empty

    def test_golden_grid_has_unique_cell_ids(self):
        cells = golden_grid()
        ids = [c.cell_id for c in cells]
        assert len(ids) == len(set(ids))
        assert any(c.design == "lh-cache" for c in cells)
        assert any(c.design == "alloy-map-i" for c in cells)


class TestTimeCell:
    def test_determinism_and_telemetry(self):
        cell = BenchCell("no-cache", "mcf_r", reads_per_core=200)
        timing = time_cell(cell, repeats=2, discard=1)
        # time_cell raises BenchDeterminismError internally if any repeat's
        # SimResult differs, so reaching here proves 3 identical runs.
        assert len(timing.wall_seconds) == 2
        assert len(timing.discarded_seconds) == 1
        assert timing.heap_events > 0
        assert timing.events_per_sec > 0
        assert min(timing.wall_seconds) <= timing.wall_median <= max(timing.wall_seconds)

    def test_rejects_bad_repeat_counts(self):
        cell = BenchCell("no-cache", "mcf_r", reads_per_core=50)
        with pytest.raises(ValueError):
            time_cell(cell, repeats=0)
        with pytest.raises(ValueError):
            time_cell(cell, repeats=1, discard=-1)


class TestPayloadRoundTrip:
    def _run(self):
        cell = BenchCell("no-cache", "mcf_r", reads_per_core=200)
        timing = time_cell(cell, repeats=1, discard=0)
        return BenchRun(
            timings=[timing],
            repeats=1,
            discard=0,
            calibration_ops_per_sec=1e6,
            elapsed_seconds=timing.wall_seconds[0],
        )

    def test_schema_round_trip(self, tmp_path):
        payload = self._run().to_payload(label="unit-test")
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["kind"] == "repro-bench"
        assert payload["label"] == "unit-test"
        path = tmp_path / "BENCH_test.json"
        write_bench(payload, path)
        loaded = load_bench(path)
        assert loaded == payload
        (cell_id,) = loaded["cells"]
        cell = loaded["cells"][cell_id]
        assert cell["design"] == "no-cache"
        assert cell["heap_events"] > 0
        assert cell["events_per_sec"] > 0

    def test_load_rejects_foreign_payloads(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            load_bench(path)

    def test_load_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps({"kind": "repro-bench", "schema": BENCH_SCHEMA + 1})
        )
        with pytest.raises(ValueError):
            load_bench(path)


def _payload(cells, calibration=1000.0):
    return {
        "kind": "repro-bench",
        "schema": BENCH_SCHEMA,
        "calibration_ops_per_sec": calibration,
        "cells": {
            cell_id: {"events_per_sec": eps} for cell_id, eps in cells.items()
        },
    }


class TestCompare:
    def test_pass_within_band(self):
        summary = compare(
            _payload({"a": 95.0}), _payload({"a": 100.0}), tolerance=0.30
        )
        assert summary["verdict"] == "pass"
        assert summary["regressions"] == []

    def test_regression_beyond_band_fails(self):
        summary = compare(
            _payload({"a": 60.0}), _payload({"a": 100.0}), tolerance=0.30
        )
        assert summary["verdict"] == "fail"
        assert summary["regressions"] == ["a"]

    def test_improvement_flagged_but_passes(self):
        summary = compare(
            _payload({"a": 200.0}), _payload({"a": 100.0}), tolerance=0.30
        )
        assert summary["verdict"] == "pass"
        assert summary["improvements"] == ["a"]

    def test_host_calibration_normalizes_machine_speed(self):
        # Current host is 2x faster than the baseline host; 2x raw ev/s is
        # therefore *flat*, not an improvement — and 1x raw is a regression.
        flat = compare(
            _payload({"a": 200.0}, calibration=2000.0),
            _payload({"a": 100.0}, calibration=1000.0),
            tolerance=0.30,
        )
        assert flat["cells"]["a"]["speedup"] == pytest.approx(1.0)
        assert flat["verdict"] == "pass"
        slow = compare(
            _payload({"a": 100.0}, calibration=2000.0),
            _payload({"a": 100.0}, calibration=1000.0),
            tolerance=0.30,
        )
        assert slow["verdict"] == "fail"

    def test_disjoint_cells_is_empty_verdict(self):
        summary = compare(_payload({"a": 1.0}), _payload({"b": 1.0}))
        assert summary["verdict"] == "empty"
        assert summary["shared_cells"] == 0


class TestGoldenHelpers:
    def test_canonical_dumps_is_byte_stable(self):
        a = canonical_dumps({"b": 1, "a": [1.5, {"z": 2, "y": 3}]})
        b = canonical_dumps({"a": [1.5, {"y": 3, "z": 2}], "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_diff_payloads_pinpoints_field(self):
        golden = {"grid": {"cell": {"cycles": 100, "hits": 5}}}
        current = {"grid": {"cell": {"cycles": 101, "hits": 5}}}
        diffs = diff_payloads(current, golden)
        assert len(diffs) == 1
        assert "cycles" in diffs[0]
        assert diff_payloads(golden, golden) == []

    def test_diff_payloads_reports_missing_keys(self):
        diffs = diff_payloads({"a": 1}, {"a": 1, "b": 2})
        assert diffs == ["$.b: missing from current run"]
        diffs = diff_payloads({"a": 1, "c": 3}, {"a": 1})
        assert diffs == ["$.c: not in golden file"]


class TestGoldenRunsTheGenerator:
    def test_tampered_persisted_arena_is_not_read(self, tmp_path, monkeypatch):
        """A persisted trace under a golden workload's key cannot stand in
        for the generator: the golden cell still matches the scorecard."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        cell = BenchCell("alloy-map-i", "milc_r", reads_per_core=GOLDEN_READS)
        params = WorkloadParams("milc_r", reads_per_core=GOLDEN_READS)
        real = generate_workload("milc_r", reads_per_core=GOLDEN_READS)
        tampered = Workload(
            real.name,
            [
                dataclasses.replace(t, addresses=np.roll(t.addresses, 1))
                for t in real.cores
            ],
        )
        save_arena(default_trace_dir() / f"{params.key()}.npz", tampered, params)
        # The shared arena would serve the tampered trace from disk.
        _, telemetry = get_workload_arena().fetch(params)
        assert telemetry["trace_source"] == "npz"

        golden = json.loads(SCORECARD.read_text())
        got = grid_results([cell])
        assert got[cell.cell_id] == golden["grid"][cell.cell_id]


class TestBenchOutputGuard:
    """``repro bench`` never silently replaces a committed BENCH file."""

    @pytest.fixture
    def no_timing(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)

        def refuse(*args, **kwargs):
            raise RuntimeError("timing started")

        monkeypatch.setattr(perf_bench, "run_bench", refuse)
        path = perf_bench.default_bench_path()
        path.write_text("committed\n")
        return path

    def test_refuses_todays_file_before_timing(self, no_timing, capsys):
        from repro.cli import main

        assert main(["bench", "--quick"]) == 2
        assert no_timing.read_text() == "committed\n"
        assert "--out" in capsys.readouterr().err

    def test_explicit_out_may_name_it(self, no_timing):
        from repro.cli import main

        with pytest.raises(RuntimeError, match="timing started"):
            main(["bench", "--quick", "--out", str(no_timing)])

    def test_no_write_is_not_refused(self, no_timing):
        from repro.cli import main

        with pytest.raises(RuntimeError, match="timing started"):
            main(["bench", "--quick", "--no-write"])


class TestLatestBenchFile:
    def test_none_when_empty(self, tmp_path):
        assert latest_bench_file(tmp_path) is None

    def test_picks_newest_by_parsed_date(self, tmp_path):
        (tmp_path / "BENCH_2025-12-31.json").write_text("{}")
        (tmp_path / "BENCH_2026-01-02.json").write_text("{}")
        (tmp_path / "BENCH_2026-01-02T18-00.json").write_text("{}")
        # Datetime-stamped payloads are accepted alongside plain dates.
        assert (
            latest_bench_file(tmp_path).name
            == "BENCH_2026-01-02T18-00.json"
        )

    def test_unparseable_name_lists_candidates(self, tmp_path):
        (tmp_path / "BENCH_2026-01-01.json").write_text("{}")
        (tmp_path / "BENCH_oops.json").write_text("{}")
        with pytest.raises(ValueError) as err:
            latest_bench_file(tmp_path)
        message = str(err.value)
        assert "BENCH_oops.json" in message
        assert "BENCH_2026-01-01.json" in message
        assert "--baseline" in message

    def test_tie_for_newest_is_an_error(self, tmp_path):
        # A date and the same date's midnight parse to the same instant.
        (tmp_path / "BENCH_2026-01-01.json").write_text("{}")
        (tmp_path / "BENCH_2026-01-01T00-00.json").write_text("{}")
        with pytest.raises(ValueError, match="tie for newest"):
            latest_bench_file(tmp_path)
