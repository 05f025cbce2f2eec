"""Tests for the cache store admin (repro.jobs.storage) and its CLI verbs."""

import json

import pytest

from repro.cli import main
from repro.jobs import (
    JobRunLock,
    cache_stats,
    clear_cache,
    create_job,
    format_size,
    job_in_use,
    parse_size,
    prune_cache,
    submit_job,
)
from repro.sim.config import SystemConfig
from repro.sim.parallel import ResultCache, make_cells


def tiny_cells(reads=200):
    return make_cells(
        ("no-cache", "alloy-map-i"),
        ("sphinx_r",),
        config=SystemConfig(capacity_scale=4096),
        reads_per_core=reads,
    )


def populated(tmp_path):
    cache = ResultCache(tmp_path, persist=True)
    job = create_job("store", tiny_cells(), cache_dir=tmp_path)
    # The sweep writes its one trace arena (sphinx_r) next to the cells.
    submit_job(job, cache=cache)
    return job


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("2k", 2048),
            ("2K", 2048),
            ("3MB", 3 * 1024**2),
            ("1g", 1024**3),
            (" 5 m ", 5 * 1024**2),
        ],
    )
    def test_accepts_common_forms(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "lots", "1.5G", "-3M", "Gb"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_size(text)

    def test_format_size_round_readable(self):
        assert format_size(0) == "0 B"
        assert format_size(2048) == "2.0 KiB"
        assert "MiB" in format_size(5 * 1024**2)


class TestStats:
    def test_counts_every_kind(self, tmp_path):
        populated(tmp_path)
        stats = cache_stats(tmp_path)
        assert stats.results.count == 2
        assert stats.traces.count == 1
        assert stats.jobs.count == 1
        assert stats.total_bytes > 0
        text = stats.render()
        assert "results" in text and "jobs" in text and "total" in text

    def test_empty_directory(self, tmp_path):
        stats = cache_stats(tmp_path / "nothing")
        assert stats.total_bytes == 0


class TestPrune:
    def test_prunes_oldest_until_under_budget(self, tmp_path):
        populated(tmp_path)
        before = cache_stats(tmp_path).total_bytes
        report = prune_cache(before // 2, tmp_path)
        assert report.freed_bytes > 0
        assert report.removed
        assert cache_stats(tmp_path).total_bytes <= before // 2

    def test_zero_budget_clears_everything(self, tmp_path):
        populated(tmp_path)
        prune_cache(0, tmp_path)
        stats = cache_stats(tmp_path)
        assert stats.total_bytes == 0

    def test_noop_when_under_budget(self, tmp_path):
        populated(tmp_path)
        report = prune_cache(10 * 1024**3, tmp_path)
        assert report.removed == []
        assert report.freed_bytes == 0


class TestConcurrencyGuards:
    """Races and in-use guards: the shared store under concurrent clients."""

    def test_stats_tolerate_files_vanishing_mid_scan(
        self, tmp_path, monkeypatch
    ):
        """A file deleted between enumeration and stat() is a skip."""
        populated(tmp_path)
        import repro.jobs.storage as storage

        real = storage._result_files

        def ghostly(directory):
            paths = real(directory)
            ghost = directory / "feedfacedeadbeef.json"
            return [ghost, *paths]  # enumerated, but never existed by stat

        monkeypatch.setattr(storage, "_result_files", ghostly)
        stats = cache_stats(tmp_path)
        assert stats.results.count == 2  # the ghost is not counted
        report = prune_cache(0, tmp_path)
        assert "feedfacedeadbeef.json" not in report.removed
        assert cache_stats(tmp_path).total_bytes == 0

    def test_prune_skips_job_whose_run_lock_is_held(self, tmp_path):
        job = populated(tmp_path)
        assert not job_in_use(job.directory)
        with JobRunLock(job.directory):
            assert job_in_use(job.directory)
            report = prune_cache(0, tmp_path)
            name = f"jobs/{job.job_id}"
            assert name in report.skipped
            assert report.skip_reasons[name] == "in use"
            assert "(in use)" in report.render()
            assert job.directory.exists()
            assert (job.directory / "journal.jsonl").exists()
        # Lock released: the same prune now evicts the job.
        report = prune_cache(0, tmp_path)
        assert f"jobs/{job.job_id}" in report.removed
        assert not job.directory.exists()

    def test_submit_job_holds_run_lock_while_executing(self, tmp_path):
        """prune racing a live submit_job must not delete the journal."""
        cache = ResultCache(tmp_path, persist=True)
        job = create_job("locked", tiny_cells(), cache_dir=tmp_path)
        seen = {}

        def probe(_cell_result):
            seen["in_use"] = job_in_use(job.directory)

        submit_job(job, cache=cache, on_cell=probe)
        assert seen["in_use"] is True
        assert not job_in_use(job.directory)

    def test_freed_bytes_honest_on_partial_rmtree(
        self, tmp_path, monkeypatch
    ):
        """A writer racing rmtree leaves files behind; freed_bytes must
        count only what is really gone and the dir lands in skipped."""
        job = populated(tmp_path)
        import repro.jobs.storage as storage

        journal = job.directory / "journal.jsonl"
        journal_size = journal.stat().st_size

        def partial_rmtree(path, ignore_errors=False):
            for p in path.iterdir():  # everything except the journal
                if p.name != "journal.jsonl":
                    p.unlink()

        monkeypatch.setattr(storage.shutil, "rmtree", partial_rmtree)
        total_before = cache_stats(tmp_path).total_bytes
        report = prune_cache(0, tmp_path)
        name = f"jobs/{job.job_id}"
        assert name in report.skipped
        assert report.skip_reasons[name] == "partially removed"
        assert name not in report.removed
        assert journal.exists()
        # Exactly the surviving journal's bytes are *not* freed.
        assert report.freed_bytes == total_before - journal_size
        assert report.remaining_bytes == journal_size

    def test_min_age_floor_protects_fresh_entries(self, tmp_path):
        populated(tmp_path)
        report = prune_cache(0, tmp_path, min_age_seconds=3600.0)
        assert report.removed == []
        assert report.freed_bytes == 0
        assert report.skipped  # everything was a candidate, all too young
        assert set(report.skip_reasons.values()) == {"too recent"}
        assert cache_stats(tmp_path).total_bytes > 0

    def test_prune_min_age_cli_flag(self, tmp_path, capsys):
        populated(tmp_path)
        code = main(
            [
                "cache",
                "--cache-dir",
                str(tmp_path),
                "prune",
                "--max-bytes",
                "0",
                "--min-age",
                "3600",
            ]
        )
        assert code == 0
        assert "skipped" in capsys.readouterr().out
        assert cache_stats(tmp_path).total_bytes > 0


class TestClear:
    def test_clear_single_kind(self, tmp_path):
        populated(tmp_path)
        removed = clear_cache(tmp_path, results=False, traces=False)
        assert removed.jobs.count == 1
        stats = cache_stats(tmp_path)
        assert stats.jobs.count == 0
        assert stats.results.count == 2  # untouched

    def test_clear_everything(self, tmp_path):
        populated(tmp_path)
        clear_cache(tmp_path)
        assert cache_stats(tmp_path).total_bytes == 0


class TestCliVerbs:
    def test_cache_stats_and_prune_and_clear(self, tmp_path, capsys):
        populated(tmp_path)
        assert main(["cache", "--cache-dir", str(tmp_path), "stats"]) == 0
        assert "results" in capsys.readouterr().out
        assert (
            main(
                [
                    "cache",
                    "--cache-dir",
                    str(tmp_path),
                    "prune",
                    "--max-bytes",
                    "0",
                ]
            )
            == 0
        )
        assert "pruned" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(tmp_path), "clear"]) == 0

    def test_cache_prune_rejects_garbage_size(self, tmp_path, capsys):
        code = main(
            [
                "cache",
                "--cache-dir",
                str(tmp_path),
                "prune",
                "--max-bytes",
                "lots",
            ]
        )
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_jobs_list_show_rm(self, tmp_path, capsys):
        job = populated(tmp_path)
        assert main(["jobs", "--cache-dir", str(tmp_path), "list"]) == 0
        assert job.job_id in capsys.readouterr().out
        assert (
            main(["jobs", "--cache-dir", str(tmp_path), "show", job.job_id])
            == 0
        )
        out = capsys.readouterr().out
        assert "done" in out and "no-cache" in out
        assert (
            main(["jobs", "--cache-dir", str(tmp_path), "rm", job.job_id])
            == 0
        )
        capsys.readouterr()
        assert main(["jobs", "--cache-dir", str(tmp_path), "list"]) == 0
        assert "no jobs" in capsys.readouterr().out

    def test_jobs_show_unknown_ref(self, tmp_path, capsys):
        code = main(["jobs", "--cache-dir", str(tmp_path), "show", "ghost"])
        assert code == 2
        assert "no job" in capsys.readouterr().err

    def test_sweep_job_then_resume(self, tmp_path, capsys):
        common = [
            "sweep",
            "--designs",
            "alloy",
            "--benchmarks",
            "sphinx",
            "--reads",
            "200",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main([*common, "--job", "cli-job"]) == 0
        first = capsys.readouterr().out
        assert "job cli-job-" in first
        assert main([*common, "--resume", "cli-job"]) == 0
        resumed = capsys.readouterr().out
        assert "resuming job cli-job-" in resumed
        assert "2/2 cells journaled" in resumed
        assert "cache 2 hit / 0 miss" in resumed

    def test_sweep_job_and_resume_conflict(self, capsys):
        code = main(["sweep", "--job", "a", "--resume", "b"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_explore_writes_payload(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out_path = tmp_path / "explore.json"
        code = main(
            [
                "explore",
                "--strategy",
                "halving",
                "--designs",
                "alloy,sram-tag",
                "--benchmarks",
                "sphinx",
                "--page-policies",
                "open",
                "--line-bursts",
                "4",
                "--cache-mbs",
                "128",
                "--timings",
                "paper,fast",
                "--capacity-scales",
                "4096",
                "--reads",
                "150",
                "--eta",
                "2",
                "--keep",
                "2",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "Pareto frontier" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "repro-explore"
        assert payload["frontier"]
