"""Tests for the resumable job layer (repro.jobs).

The load-bearing property: a job killed mid-run — by an exception in the
parent, by a simulated pool collapse, or by a hard SIGKILL of a worker —
must, on resume, produce a SweepReport whose per-cell SimResults are
``dataclasses.asdict``-identical to an uninterrupted run, replaying only
the missing cells.
"""

import dataclasses
import json
import os
import time

import pytest

from repro.jobs import (
    JOURNAL_NAME,
    JobJournal,
    create_job,
    ephemeral_job,
    job_id_for,
    jobs_root,
    list_jobs,
    open_job,
    remove_job,
    resume_job,
    submit_job,
)
from repro.sim import parallel as _par
from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    ResultCache,
    make_cells,
    run_sweep,
    shutdown_worker_pool,
)

DESIGNS = ("no-cache", "alloy-map-i")
BENCHMARKS = ("sphinx_r", "gcc_r")


def tiny_config() -> SystemConfig:
    return SystemConfig(capacity_scale=4096)


def tiny_cells(reads=250):
    return make_cells(
        DESIGNS, BENCHMARKS, config=tiny_config(), reads_per_core=reads
    )


def results_by_grid(report):
    return {
        (c.cell.design, c.cell.benchmark): dataclasses.asdict(c.result)
        for c in report.cells
    }


def _dying_worker(*args, **kwargs):  # pragma: no cover - runs in a child
    os._exit(1)


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache", persist=True)


class TestJournal:
    def test_record_and_load_round_trip(self, tmp_path, cache):
        job = create_job("rt", tiny_cells(), cache_dir=tmp_path)
        submit_job(job, cache=cache)
        journal = job.journal()
        entries = journal.load()
        assert set(entries) == {c.key() for c in job.cells}
        for cell in job.cells:
            result, telemetry = entries[cell.key()]
            assert result.cycles > 0
            assert "wall_seconds" in telemetry

    def test_header_line_written_once(self, tmp_path, cache):
        job = create_job("hdr", tiny_cells(), cache_dir=tmp_path)
        submit_job(job, cache=cache)
        submit_job(job, cache=cache)
        lines = job.journal_path.read_text().splitlines()
        headers = [
            json.loads(line)
            for line in lines
            if json.loads(line).get("kind") == "header"
        ]
        assert len(headers) == 1
        assert headers[0]["job_id"] == job.job_id

    def test_truncated_last_line_dropped_not_fatal(self, tmp_path, cache):
        job = create_job("trunc", tiny_cells(), cache_dir=tmp_path)
        submit_job(job, cache=cache)
        raw = job.journal_path.read_bytes()
        # Chop the file mid-way through its final record, as a crash
        # during an append would.
        job.journal_path.write_bytes(raw[: len(raw) - 40])
        journal = job.journal()
        entries = journal.load()
        assert journal.dropped == 1
        assert len(entries) == len(job.cells) - 1

    def test_corrupt_interior_line_dropped(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text('{"kind":"header","schema":1}\nnot json at all\n')
        journal = JobJournal(path)
        assert journal.load() == {}
        assert journal.dropped == 1

    def test_resume_after_truncation_refills_missing_cell(
        self, tmp_path, cache
    ):
        job = create_job("refill", tiny_cells(), cache_dir=tmp_path)
        submit_job(job, cache=cache, use_cache=False)
        raw = job.journal_path.read_bytes()
        job.journal_path.write_bytes(raw[: len(raw) - 40])
        report = submit_job(job, cache=cache, use_cache=False)
        assert len(report.cells) == len(job.cells)
        assert job.journal().completed_count() == len(job.cells)


class TestManager:
    def test_job_id_is_content_keyed_and_order_independent(self):
        cells = tiny_cells()
        assert job_id_for("x", cells) == job_id_for("x", cells[::-1])
        assert job_id_for("x", cells) != job_id_for("y", cells)
        assert job_id_for("x", cells) != job_id_for("x", cells[:2])

    def test_create_is_idempotent(self, tmp_path):
        first = create_job("idem", tiny_cells(), cache_dir=tmp_path)
        again = create_job("idem", tiny_cells(), cache_dir=tmp_path)
        assert first.directory == again.directory
        assert len(list(jobs_root(tmp_path).iterdir())) == 1

    def test_manifest_round_trips_full_config(self, tmp_path):
        config = SystemConfig(
            capacity_scale=4096, stacked_page_policy="closed", mshrs_per_core=7
        )
        cells = make_cells(
            DESIGNS, BENCHMARKS, config=config, reads_per_core=123, seed=9
        )
        job = create_job("cfg", cells, cache_dir=tmp_path)
        reopened = open_job(job.job_id, cache_dir=tmp_path)
        assert [c.key() for c in reopened.cells] == [c.key() for c in cells]
        assert reopened.cells[0].config == config

    def test_from_dict_ignores_unknown_keys(self):
        data = dataclasses.asdict(tiny_config())
        data["some_future_field"] = 42
        data["track_percentiles"] = True  # removed field in old manifests
        assert SystemConfig.from_dict(data) == tiny_config()

    def test_open_by_name_and_ambiguity(self, tmp_path):
        create_job("dup", tiny_cells(), cache_dir=tmp_path)
        assert open_job("dup", cache_dir=tmp_path).name == "dup"
        create_job("dup", tiny_cells(reads=111), cache_dir=tmp_path)
        with pytest.raises(KeyError, match="ambiguous"):
            open_job("dup", cache_dir=tmp_path)

    def test_open_unknown_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no job"):
            open_job("nope", cache_dir=tmp_path)

    def test_list_and_remove(self, tmp_path, cache):
        job = create_job("lr", tiny_cells(), cache_dir=tmp_path)
        infos = list_jobs(tmp_path)
        assert [i.job_id for i in infos] == [job.job_id]
        assert infos[0].completed_cells == 0
        assert infos[0].total_cells == len(job.cells)
        submit_job(job, cache=cache)
        assert list_jobs(tmp_path)[0].completed_cells == len(job.cells)
        remove_job(job.job_id, cache_dir=tmp_path)
        assert list_jobs(tmp_path) == []

    def test_ephemeral_job_has_no_journal(self):
        job = ephemeral_job(tiny_cells())
        assert job.journal() is None
        assert job.journal_path is None


class TestRunSweepDelegation:
    def test_run_sweep_matches_submitted_job(self, tmp_path, cache):
        """run_sweep (ephemeral job) and a journaled job must agree."""
        via_sweep = run_sweep(tiny_cells(), cache=cache, use_cache=False)
        job = create_job("delegate", tiny_cells(), cache_dir=tmp_path)
        via_job = submit_job(job, cache=cache, use_cache=False)
        assert results_by_grid(via_sweep) == results_by_grid(via_job)


class TestResumeEquivalence:
    def _reference(self, tmp_path):
        """Uninterrupted run in a fully separate store."""
        ref_cache = ResultCache(tmp_path / "ref-cache", persist=True)
        job = create_job(
            "interrupt", tiny_cells(), cache_dir=tmp_path / "ref-jobs"
        )
        return results_by_grid(
            submit_job(job, cache=ref_cache, use_cache=False)
        )

    def test_serial_interrupt_then_resume_is_identical(self, tmp_path):
        reference = self._reference(tmp_path)
        cache = ResultCache(tmp_path / "cache", persist=True)
        job = create_job("interrupt", tiny_cells(), cache_dir=tmp_path)

        executed = []

        def boom(cell_result):
            executed.append(cell_result)
            if len(executed) == 2:
                raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            submit_job(job, cache=cache, use_cache=False, progress=boom)
        # The two finished cells were journaled before the crash.
        assert job.journal().completed_count() == 2

        resumed = resume_job(
            job.job_id, cache=cache, use_cache=False, cache_dir=tmp_path
        )
        assert results_by_grid(resumed) == reference
        # Only the missing cells were simulated on resume.
        assert resumed.cache_misses == len(job.cells) - 2

    def test_simulated_pool_collapse_then_resume(self, tmp_path, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        reference = self._reference(tmp_path)
        cache = ResultCache(tmp_path / "cache", persist=True)
        job = create_job("interrupt", tiny_cells(), cache_dir=tmp_path)

        shutdown_worker_pool()
        monkeypatch.setattr(_par, "_worker", _dying_worker)
        with pytest.raises(BrokenProcessPool):
            submit_job(job, max_workers=2, cache=cache, use_cache=False)
        monkeypatch.undo()
        shutdown_worker_pool()

        resumed = resume_job(
            job.job_id,
            max_workers=2,
            cache=cache,
            use_cache=False,
            cache_dir=tmp_path,
        )
        assert results_by_grid(resumed) == reference

    def test_sigkilled_worker_then_resume(self, tmp_path, monkeypatch):
        """The real crash: a worker SIGKILLs itself mid-job (via the
        REPRO_TEST_KILL_CELL hook), poisoning the shared pool."""
        from concurrent.futures.process import BrokenProcessPool

        reference = self._reference(tmp_path)
        cache = ResultCache(tmp_path / "cache", persist=True)
        job = create_job("interrupt", tiny_cells(), cache_dir=tmp_path)

        # The pool forks lazily; recycle it so workers inherit the env var.
        shutdown_worker_pool()
        monkeypatch.setenv("REPRO_TEST_KILL_CELL", "alloy-map-i/gcc_r")
        with pytest.raises(BrokenProcessPool):
            submit_job(job, max_workers=2, cache=cache, use_cache=False)
        monkeypatch.delenv("REPRO_TEST_KILL_CELL")

        resumed = resume_job(
            job.job_id,
            max_workers=2,
            cache=cache,
            use_cache=False,
            cache_dir=tmp_path,
        )
        assert results_by_grid(resumed) == reference
        # Across crash + resume the journal converged to the full job.
        assert job.journal().completed_count() == len(job.cells)

    def test_resume_with_cache_backfills_journal(self, tmp_path):
        """Cells already in the result cache are journaled on first touch,
        so the journal converges even when nothing is simulated."""
        cache = ResultCache(tmp_path / "cache", persist=True)
        run_sweep(tiny_cells(), cache=cache)  # warm the result cache
        job = create_job("backfill", tiny_cells(), cache_dir=tmp_path)
        report = submit_job(job, cache=cache)
        assert report.cache_hits == len(job.cells)
        assert job.journal().completed_count() == len(job.cells)


class TestIncrementalReporting:
    def test_cells_reported_while_later_traces_build(self, monkeypatch):
        """On the pool path a finished cell is reported while the parent
        is still building a later row's trace, not after the last one."""
        from repro.workloads.arena import WorkloadArena

        submitted = []
        real_get_pool = _par._get_pool

        class RecordingPool:
            def __init__(self, pool):
                self._pool = pool

            def submit(self, *args, **kwargs):
                future = self._pool.submit(*args, **kwargs)
                submitted.append(future)
                return future

        monkeypatch.setattr(
            _par, "_get_pool", lambda n: RecordingPool(real_get_pool(n))
        )
        real_fetch = WorkloadArena.fetch
        fetch_returns = []

        def slow_fetch(self, params):
            out = real_fetch(self, params)
            if params.benchmark == "gcc_r":
                # A slow build: it lasts until the first row's cell is done.
                deadline = time.monotonic() + 60
                while not any(f.done() for f in submitted):
                    assert time.monotonic() < deadline, "first cell never ran"
                    time.sleep(0.01)
            fetch_returns.append(time.monotonic())
            return out

        monkeypatch.setattr(WorkloadArena, "fetch", slow_fetch)
        reported = []
        cells = make_cells(
            ("no-cache",),
            ("sphinx_r", "gcc_r", "mcf_r"),
            config=tiny_config(),
            reads_per_core=250,
        )
        report = submit_job(
            ephemeral_job(cells),
            max_workers=2,
            use_cache=False,
            on_cell=lambda slot: reported.append(time.monotonic()),
        )
        assert len(report.cells) == len(reported) == 3
        assert len(fetch_returns) == 3
        assert reported[0] < fetch_returns[-1]


class TestExperimentJobs:
    def test_experiment_sweeps_land_as_named_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.common import (
            current_experiment_job,
            experiment_job,
            sweep,
        )

        assert current_experiment_job() is None
        with experiment_job("unit-exp"):
            assert current_experiment_job() == "unit-exp"
            sweep(
                ["alloy-map-i"],
                ["sphinx_r"],
                quick=True,
                config=tiny_config(),
                max_workers=1,
            )
        assert current_experiment_job() is None
        names = [info.name for info in list_jobs(tmp_path)]
        assert names == ["unit-exp"]
        assert list_jobs(tmp_path)[0].completed_cells == 2
