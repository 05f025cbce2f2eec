"""Tests for the parallel sweep executor and the persistent result cache."""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.dram.timings import STACKED_DRAM, DramTimings
from repro.jobs.manager import Job, cell_to_dict, job_id_for
from repro.sim import parallel
from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    ResultCache,
    SweepCell,
    cell_key,
    default_workers,
    make_cells,
    run_sweep,
)
from repro.sim.results import SimResult

DESIGNS = ("no-cache", "alloy-map-i")
BENCHMARKS = ("sphinx_r", "gcc_r")


def tiny_config() -> SystemConfig:
    return SystemConfig(capacity_scale=4096)


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache", persist=True)


def tiny_cells(reads=300, warmup=0.25, config=None):
    return make_cells(
        DESIGNS,
        BENCHMARKS,
        config=config or tiny_config(),
        reads_per_core=reads,
        warmup_fraction=warmup,
    )


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_exactly(self, tmp_path):
        """max_workers=4 must return identical SimResult fields to the
        serial path for a 2-design x 2-benchmark grid."""
        serial = run_sweep(
            tiny_cells(),
            max_workers=1,
            cache=ResultCache(tmp_path / "serial", persist=True),
        )
        parallel = run_sweep(
            tiny_cells(),
            max_workers=4,
            cache=ResultCache(tmp_path / "parallel", persist=True),
        )
        assert len(serial.cells) == len(parallel.cells) == 4
        for design in DESIGNS:
            for benchmark in BENCHMARKS:
                a = serial.result(design, benchmark)
                b = parallel.result(design, benchmark)
                assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_grid_and_speedups(self, cache):
        report = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        speedups = report.speedups("no-cache")
        for benchmark in BENCHMARKS:
            assert speedups[("no-cache", benchmark)] == pytest.approx(1.0)


class TestPersistentCache:
    def test_repeat_sweep_served_entirely_from_cache(self, cache):
        first = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        assert first.cache_misses == 4 and first.cache_hits == 0
        again = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        assert again.cache_hits == 4 and again.cache_misses == 0
        for design in DESIGNS:
            for benchmark in BENCHMARKS:
                assert dataclasses.asdict(
                    first.result(design, benchmark)
                ) == dataclasses.asdict(again.result(design, benchmark))

    def test_cache_survives_process_state(self, cache):
        """A fresh ResultCache over the same directory (a new process after
        a crash) serves the completed cells from disk."""
        run_sweep(tiny_cells(), max_workers=1, cache=cache)
        resumed = ResultCache(cache.directory, persist=True)
        report = run_sweep(tiny_cells(), max_workers=1, cache=resumed)
        assert report.cache_hits == 4 and report.cache_misses == 0

    def test_round_trip_preserves_every_field(self, cache):
        cell = SweepCell(
            "alloy-map-i", "sphinx_r", tiny_config(), reads_per_core=300
        )
        direct = run_sweep([cell], max_workers=1, cache=cache).cells[0].result
        cached = ResultCache(cache.directory, persist=True).get(cell.key())
        assert dataclasses.asdict(cached) == dataclasses.asdict(direct)

    def test_warmup_fraction_changes_key(self):
        config = tiny_config()
        default = cell_key("alloy-map-i", "mcf_r", config, 300, 0.25, 1)
        other = cell_key("alloy-map-i", "mcf_r", config, 300, 0.5, 1)
        assert default != other

    def test_any_config_field_changes_key(self):
        """Every SystemConfig field participates in the content key."""
        base = tiny_config()
        overrides = {
            "num_cores": 4,
            "l3_latency": 30,
            "sram_tag_latency": 12,
            "missmap_latency": 12,
            "predictor_latency": 2,
            "cache_size_bytes": base.cache_size_bytes // 2,
            "capacity_scale": 2048,
            "write_issue_cycles": 2,
            "mshrs_per_core": 2,
            "offchip_page_policy": "closed",
            "stacked_page_policy": "closed",
            "offchip": base.offchip.scaled(t_cas=40),
            "stacked": base.stacked.scaled(t_cas=20),
        }
        reference = cell_key("alloy-map-i", "mcf_r", base, 300, 0.25, 1)
        for field_name, value in overrides.items():
            changed = dataclasses.replace(base, **{field_name: value})
            assert cell_key(
                "alloy-map-i", "mcf_r", changed, 300, 0.25, 1
            ) != reference, field_name

    def test_config_change_invalidates_disk_entry(self, cache):
        """Runs under a modified config must not be served from entries
        written under the original config (and vice versa)."""
        run_sweep(tiny_cells(), max_workers=1, cache=cache)
        changed = dataclasses.replace(tiny_config(), l3_latency=48)
        report = run_sweep(
            tiny_cells(config=changed), max_workers=1, cache=cache
        )
        assert report.cache_hits == 0 and report.cache_misses == 4

    def test_warmup_change_invalidates_disk_entry(self, cache):
        run_sweep(tiny_cells(warmup=0.25), max_workers=1, cache=cache)
        report = run_sweep(
            tiny_cells(warmup=0.4), max_workers=1, cache=cache
        )
        assert report.cache_hits == 0 and report.cache_misses == 4

    def test_corrupt_cache_file_is_a_miss(self, cache):
        cell = tiny_cells()[0]
        run_sweep([cell], max_workers=1, cache=cache)
        path = cache.directory / f"{cell.key()}.json"
        path.write_text("{not json")
        fresh = ResultCache(cache.directory, persist=True)
        assert fresh.get(cell.key()) is None
        report = run_sweep([cell], max_workers=1, cache=fresh)
        assert report.cache_misses == 1

    def test_no_cache_mode_never_writes(self, tmp_path):
        cache = ResultCache(tmp_path / "off", persist=False)
        run_sweep(tiny_cells(), max_workers=1, cache=cache, use_cache=False)
        assert not (tmp_path / "off").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_cache_sweep_keeps_traces_in_memory(
        self, tmp_path, monkeypatch, workers
    ):
        """A cache that writes nothing leaves no ``.npz`` trace arena
        anywhere: not in the working directory, not under
        ``REPRO_CACHE_DIR``, not in the cache's own directory."""
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        cells = make_cells(
            DESIGNS, BENCHMARKS, config=tiny_config(), reads_per_core=200,
            seed=61 + workers,
        )
        report = run_sweep(
            cells,
            max_workers=workers,
            cache=ResultCache(tmp_path / "given", persist=False),
            use_cache=False,
        )
        assert report.cache_misses == len(cells)
        assert report.workloads_built == len(BENCHMARKS)
        assert sorted(tmp_path.rglob("*.npz")) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trace_arenas_live_under_the_given_cache_dir(
        self, tmp_path, monkeypatch, workers
    ):
        """A sweep given a cache directory keeps its trace arenas there,
        where ``repro cache stats``, ``prune`` and ``clear`` look, not
        under ``REPRO_CACHE_DIR``."""
        from repro.jobs.storage import cache_stats

        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(elsewhere))
        given = ResultCache(tmp_path / "given", persist=True)
        run_sweep(tiny_cells(), max_workers=workers, cache=given)
        assert cache_stats(given.directory).traces.count == len(BENCHMARKS)
        assert not (elsewhere / "traces").exists()

    def test_duplicate_cells_simulated_once(self, cache):
        cell = tiny_cells()[0]
        report = run_sweep([cell, cell], max_workers=1, cache=cache)
        assert report.cache_misses == 1 and report.cache_hits == 1
        assert dataclasses.asdict(report.cells[0].result) == dataclasses.asdict(
            report.cells[1].result
        )
        duplicate = report.cells[1]
        assert duplicate.trace_source == ""
        assert duplicate.trace_build_seconds == 0.0

    def test_remember_populates_memory_tier_only(self, cache):
        """The public adoption API for worker-persisted results: visible
        to lookups, but never re-written to disk by the parent."""
        cell = tiny_cells()[0]
        result = run_sweep([cell], max_workers=1, cache=cache).cells[0].result
        other = ResultCache(cache.directory / "elsewhere", persist=True)
        other.remember(cell.key(), result, {"wall_seconds": 1.5})
        assert other.get_entry(cell.key()) == (result, {"wall_seconds": 1.5})
        assert not (cache.directory / "elsewhere").exists()


class TestCellKeyMemo:
    """``SweepCell.key()`` hashes once per instance, invisibly to the
    dataclass fields."""

    @pytest.fixture
    def cell_key_calls(self, monkeypatch):
        calls = []
        real = parallel.cell_key

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(parallel, "cell_key", counting)
        return calls

    @staticmethod
    def fields_key(cell):
        return cell_key(
            cell.design,
            cell.benchmark,
            cell.config,
            cell.reads_per_core,
            cell.warmup_fraction,
            cell.seed,
        )

    def test_key_equals_cell_key_of_fields(self, cell_key_calls):
        from repro.perf.golden import golden_grid
        from repro.sim.batch import BATCH_DESIGNS

        cells = [
            SweepCell(
                c.design,
                c.benchmark,
                reads_per_core=c.reads_per_core,
                warmup_fraction=c.warmup_fraction,
                seed=c.seed,
            )
            for c in golden_grid()
        ]
        cells += make_cells(BATCH_DESIGNS, BENCHMARKS, config=tiny_config())
        for cell in cells:
            assert cell.key() == self.fields_key(cell) == cell.key()
        assert len(cell_key_calls) == len(cells)

    def test_pickle_and_copy_carry_the_key(self, cell_key_calls):
        cell = tiny_cells()[0]
        key = cell.key()
        for clone in (
            pickle.loads(pickle.dumps(cell)),
            copy.copy(cell),
            copy.deepcopy(cell),
        ):
            assert clone == cell
            assert clone.key() == key
        assert len(cell_key_calls) == 1

    def test_replace_hashes_afresh(self, cell_key_calls):
        cell = tiny_cells()[0]
        cell.key()
        other = dataclasses.replace(cell, seed=2)
        assert other.key() == self.fields_key(other) != cell.key()
        assert len(cell_key_calls) == 2

    def test_key_leaves_fields_equality_and_hash_alone(self):
        cell, twin = tiny_cells()[0], tiny_cells()[0]
        before = (dataclasses.asdict(cell), cell_to_dict(cell), hash(cell))
        cell.key()
        assert (
            dataclasses.asdict(cell),
            cell_to_dict(cell),
            hash(cell),
        ) == before
        assert cell == twin and hash(cell) == hash(twin)


#: Configs whose flattening must equal ``asdict``: the defaults, the
#: suite's small scale, MLP cores, closed pages and custom timings.
FLATTENED_CONFIGS = {
    "default": SystemConfig(),
    "scale-4096": tiny_config(),
    "mshrs-4": SystemConfig(mshrs_per_core=4),
    "closed-pages": SystemConfig(
        offchip_page_policy="closed", stacked_page_policy="closed"
    ),
    "custom-timings": SystemConfig(
        offchip=DramTimings(
            name="custom-offchip",
            t_act=40,
            t_cas=30,
            t_rp=12,
            line_burst=16,
            bus_bytes=8,
            channels=1,
            banks_per_channel=16,
            row_bytes=4096,
        ),
        stacked=STACKED_DRAM.scaled(t_cas=20, t_rp=4),
    ),
}


class TestConfigFlattening:
    """``SystemConfig.to_dict`` stands in for ``dataclasses.asdict``
    without moving a key, a job id or a manifest byte."""

    @pytest.mark.parametrize(
        "config", FLATTENED_CONFIGS.values(), ids=FLATTENED_CONFIGS.keys()
    )
    def test_to_dict_equals_asdict(self, config):
        flat = config.to_dict()
        reference = dataclasses.asdict(config)
        assert flat == reference
        assert json.dumps(flat) == json.dumps(reference)  # same key order
        assert SystemConfig.from_dict(flat) == config
        assert type(flat["offchip"]) is dict and type(flat["stacked"]) is dict

    def test_keys_ids_and_manifests_match_an_asdict_reference(
        self, monkeypatch
    ):
        cells = [
            SweepCell(design, "mcf_r", config=config, reads_per_core=300)
            for config in FLATTENED_CONFIGS.values()
            for design in ("alloy-map-i", "sram-tag")
        ]

        def surfaces():
            # Fresh instances: a cell keeps its key once hashed.
            fresh = [dataclasses.replace(cell) for cell in cells]
            return (
                [TestCellKeyMemo.fields_key(cell) for cell in fresh],
                [job_id_for(name, fresh) for name in ("", "nightly")],
                Job("nightly", fresh).job_id,
                [json.dumps(cell_to_dict(cell), sort_keys=True) for cell in fresh],
            )

        walked = surfaces()
        monkeypatch.setattr(SystemConfig, "to_dict", dataclasses.asdict)
        assert surfaces() == walked
        assert len(set(walked[0])) == len(cells)


class TestResultSchema:
    """SimResult's on-disk shape: round-trips exactly, and changing the
    shape (or the schema version) invalidates every cached entry."""

    def test_json_round_trip_bit_identical(self, cache):
        cell = tiny_cells()[0]
        direct = run_sweep([cell], max_workers=1, cache=cache).cells[0].result
        wire = json.loads(json.dumps(direct.to_dict()))
        assert dataclasses.asdict(SimResult.from_dict(wire)) == (
            dataclasses.asdict(direct)
        )

    def test_stage_fields_survive_cache(self, cache):
        cell = SweepCell(
            "alloy-map-i", "sphinx_r", tiny_config(), reads_per_core=300
        )
        direct = run_sweep([cell], max_workers=1, cache=cache).cells[0].result
        cached = ResultCache(cache.directory, persist=True).get(cell.key())
        assert direct.stage_latency_means  # populated, not defaulted
        assert cached.stage_latency_means == direct.stage_latency_means
        assert cached.stage_latency_p95 == direct.stage_latency_p95
        assert cached.unattributed_cycles == direct.unattributed_cycles == 0.0

    def test_from_dict_defaults_missing_stage_fields(self):
        """Entries written before the lifecycle fields existed still load."""
        legacy = SimResult.from_dict(
            {"workload": "w", "design": "d", "cycles": 1.0}
        )
        assert legacy.stage_latency_means == {}
        assert legacy.stage_latency_p95 == {}
        assert legacy.unattributed_cycles == 0.0

    def test_result_shape_participates_in_key(self, monkeypatch):
        """Adding/removing a SimResult field must change every cell key, so
        stale cache entries can never satisfy a sweep expecting new fields."""
        import repro.sim.parallel as parallel

        config = tiny_config()
        reference = cell_key("alloy-map-i", "mcf_r", config, 300, 0.25, 1)
        monkeypatch.setattr(
            parallel, "result_signature", lambda: ("some_other_shape",)
        )
        assert cell_key("alloy-map-i", "mcf_r", config, 300, 0.25, 1) != (
            reference
        )

    def test_schema_version_participates_in_key(self, monkeypatch):
        import repro.sim.parallel as parallel

        config = tiny_config()
        reference = cell_key("alloy-map-i", "mcf_r", config, 300, 0.25, 1)
        monkeypatch.setattr(parallel, "CACHE_SCHEMA", parallel.CACHE_SCHEMA + 1)
        assert cell_key("alloy-map-i", "mcf_r", config, 300, 0.25, 1) != (
            reference
        )


class TestTelemetry:
    def test_cells_report_events_and_wall(self, cache):
        report = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        for cell in report.cells:
            assert cell.heap_events > 0
            assert cell.wall_seconds > 0
            assert cell.events_per_sec > 0
        assert report.total_heap_events == sum(
            c.heap_events for c in report.cells
        )
        assert report.elapsed_seconds > 0

    def test_warm_resweep_reports_only_its_own_cost(self, cache):
        """A cell served from the result cache cost this run nothing: its
        wall_seconds/events_per_sec are zero, and the run that produced it
        reports its seconds in cached_wall_seconds."""
        first = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        again = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        assert again.cache_hits == 4
        for ran, served in zip(first.cells, again.cells):
            assert not ran.from_cache
            assert ran.cached_wall_seconds == 0.0
            assert served.from_cache
            assert served.wall_seconds == 0.0
            assert served.events_per_sec == 0.0
            assert served.trace_source == ""
            assert served.trace_build_seconds == 0.0
            assert served.cached_wall_seconds == ran.wall_seconds > 0
        assert again.simulated_seconds == 0.0

    def test_cached_wall_seconds_round_trips_the_wire(self, cache):
        from repro.serve.protocol import (
            cell_result_from_dict,
            cell_result_to_dict,
        )

        run_sweep(tiny_cells(), max_workers=1, cache=cache)
        served = run_sweep(tiny_cells(), max_workers=1, cache=cache).cells[0]
        wire = cell_result_to_dict(served)
        back = cell_result_from_dict(json.loads(json.dumps(wire)))
        assert back.cached_wall_seconds == served.cached_wall_seconds > 0
        assert back.wall_seconds == 0.0
        del wire["cached_wall_seconds"]  # a payload from before the field
        assert cell_result_from_dict(wire).cached_wall_seconds == 0.0

    def test_render_mentions_cache_and_events(self, cache):
        report = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        rendered = report.render()
        assert "events/sec" in rendered
        assert "4 cells" in rendered
        assert "miss" in rendered

    def test_serial_sweep_builds_each_workload_once(self, cache):
        """2 designs x 2 benchmarks: the arena memoizes, so only the first
        cell of each benchmark runs the generators."""
        report = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        assert report.workloads_unique == 2
        # Either built fresh here or loaded from an arena persisted by an
        # earlier test in this session — never more than one build each.
        assert report.workloads_built <= 2
        sources = {c.trace_source for c in report.cells}
        assert sources <= {"built", "memo", "npz"}
        assert report.trace_build_seconds >= 0.0
        assert "unique workloads" in report.render()

    def test_parallel_sweep_builds_each_workload_once(self, tmp_path):
        """The fabric's acceptance telemetry: the parent materializes each
        unique workload exactly once and workers attach it shared."""
        report = run_sweep(
            tiny_cells(),
            max_workers=2,
            cache=ResultCache(tmp_path / "cache", persist=True),
        )
        assert report.workloads_unique == 2
        assert report.workloads_built <= 2
        for cell in report.cells:
            assert cell.trace_source in ("shared", "shared-memo")

    def test_cached_sweep_builds_no_workloads(self, cache):
        run_sweep(tiny_cells(), max_workers=1, cache=cache)
        again = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        assert again.cache_hits == 4
        assert again.workloads_unique == 0
        assert again.workloads_built == 0


class TestWorkerConfiguration:
    def test_default_workers_parses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_workers() == 3

    def test_default_workers_floors_at_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        assert default_workers() == 1

    def test_default_workers_warns_on_garbage(self, monkeypatch, capsys):
        """An unparseable REPRO_JOBS must be named, not swallowed."""
        monkeypatch.setenv("REPRO_JOBS", "four")
        assert default_workers() == 1
        captured = capsys.readouterr()
        assert "REPRO_JOBS" in captured.err and "four" in captured.err
        # Regression: the warning once went to stdout, corrupting piped
        # machine-readable sweep output. stdout must stay clean.
        assert captured.out == ""

    def test_cache_file_contains_cell_echo(self, cache):
        cell = tiny_cells()[0]
        run_sweep([cell], max_workers=1, cache=cache)
        data = json.loads(
            (cache.directory / f"{cell.key()}.json").read_text()
        )
        assert data["cell"]["design"] == cell.design
        assert data["cell"]["warmup_fraction"] == cell.warmup_fraction
        assert data["telemetry"]["heap_events"] > 0
        assert SimResult.from_dict(data["result"]).design


class TestRunnerCacheIntegration:
    def test_baseline_respects_warmup_fraction(self, monkeypatch, tmp_path):
        """The old module-global baseline cache ignored warmup_fraction;
        the persistent cache must not serve a 0.25-warmup baseline to a
        0.5-warmup speedup computation."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.sim.runner import baseline_result

        config = tiny_config()
        default = baseline_result(
            "sphinx_r", config, reads_per_core=300, warmup_fraction=0.25
        )
        halved = baseline_result(
            "sphinx_r", config, reads_per_core=300, warmup_fraction=0.5
        )
        assert default.cycles != halved.cycles

    def test_speedup_threads_warmup(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.sim.runner import speedup

        config = tiny_config()
        s, result = speedup(
            "perfect-l3",
            "sphinx_r",
            config,
            reads_per_core=300,
            warmup_fraction=0.5,
        )
        assert s > 1.0


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            run_sweep([], max_workers=0)

    def test_missing_cell_raises(self, cache):
        report = run_sweep(tiny_cells(), max_workers=1, cache=cache)
        with pytest.raises(KeyError):
            report.result("sram-tag", "sphinx_r")
