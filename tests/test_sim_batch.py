"""Tests for the batch simulation engine (``repro.sim.batch``).

The engine's entire contract is *bit-exactness*: for every configuration
inside its envelope, ``SystemConfig(engine="auto")`` must run the batch
engine and produce a :class:`~repro.sim.results.SimResult` whose fields
render to the same canonical JSON as the interpreter's (value *and* type:
an int counter must not turn into an equal float), while configurations
outside the envelope must fall back to the interpreter
(``System.engine_used == "interp"``) rather than approximate. These tests
pin both halves, plus the engine-selection plumbing (config field,
``REPRO_ENGINE``), the bench/sweep integration and the fold of the
kernels' read records.
"""

import dataclasses
import math

import pytest

from repro.dramcache.base import ATTRIBUTION_EPSILON
from repro.perf.golden import canonical_dumps
from repro.sim.batch import BATCH_DESIGNS
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.spec import build_workload

#: Designs the engine must decline (no kernel: the L3-filter design is
#: the only factory design left outside the envelope).
FALLBACK_DESIGNS = ("perfect-l3",)


def _config(**overrides):
    base = dict(num_cores=2, capacity_scale=4096)
    base.update(overrides)
    return SystemConfig(**base)


def _workload(config, benchmark="mcf_r", reads=250, seed=7):
    return build_workload(
        benchmark,
        num_cores=config.num_cores,
        reads_per_core=reads,
        capacity_scale=config.capacity_scale,
        seed=seed,
    )


def _pair(design, config, benchmark="mcf_r", reads=250):
    """Run one cell through both engines; return (interp, batch) systems
    and their results."""
    workload = _workload(config, benchmark=benchmark, reads=reads)
    interp = System(
        dataclasses.replace(config, engine="interp"), design, workload
    )
    batch = System(
        dataclasses.replace(config, engine="auto"), design, workload
    )
    return interp, interp.run(), batch, batch.run()


def assert_identical(got, want):
    """Every field renders to the same canonical JSON: ``5`` and ``5.0``
    compare equal but would change a cached result file."""
    g = got.to_dict()
    w = want.to_dict()
    diff = {
        k: (g[k], w[k])
        for k in g
        if canonical_dumps(g[k]) != canonical_dumps(w[k])
    }
    assert not diff, f"batch diverged from interpreter: {diff}"


class TestBitExactness:
    @pytest.mark.parametrize("design", BATCH_DESIGNS)
    def test_every_kernel_matches_interpreter(self, design):
        interp, want, batch, got = _pair(design, _config())
        assert interp.engine_used == "interp"
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    @pytest.mark.parametrize("design", ["lh-cache", "sram-tag", "no-cache"])
    def test_matches_under_closed_page_policies(self, design):
        _, want, batch, got = _pair(
            design,
            _config(
                stacked_page_policy="closed", offchip_page_policy="closed"
            ),
        )
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    def test_matches_on_write_heavy_benchmark(self):
        _, want, batch, got = _pair(
            "lh-cache", _config(), benchmark="milc_r"
        )
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    @pytest.mark.parametrize(
        "design", ["alloy-map-i", "lh-cache", "alloy-victim16", "alloy-2way"]
    )
    @pytest.mark.parametrize("mshrs", [2, 4])
    def test_matches_with_mlp_cores(self, design, mshrs):
        _, want, batch, got = _pair(design, _config(mshrs_per_core=mshrs))
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    def test_victim_buffer_matches_on_write_heavy_benchmark(self):
        _, want, batch, got = _pair(
            "alloy-victim64", _config(), benchmark="milc_r"
        )
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    # Each flag combination is a kernel of its own: the matrices below
    # reach every combination a factory design or config can.
    @pytest.mark.parametrize(
        "design",
        ["alloy-map-i", "alloy-2way", "alloy-victim16", "ideal-lo",
         "lh-cache", "sram-tag"],
    )
    @pytest.mark.parametrize("closed", ["stacked", "offchip"])
    def test_matches_with_one_device_closed(self, design, closed):
        _, want, batch, got = _pair(
            design, _config(**{f"{closed}_page_policy": "closed"})
        )
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    @pytest.mark.parametrize("design", BATCH_DESIGNS)
    def test_every_kernel_matches_with_mlp_cores(self, design):
        _, want, batch, got = _pair(design, _config(mshrs_per_core=4))
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    @pytest.mark.parametrize("policy", ["lru", "dip", "random"])
    @pytest.mark.parametrize(
        "family,ways", [("sram", 32), ("sram", 1), ("lh", 29), ("lh", 1)]
    )
    def test_set_associative_designs_match_under_each_policy(
        self, family, ways, policy
    ):
        from repro.cache.replacement import make_policy
        from repro.dramcache.lh_cache import LHCacheDesign
        from repro.dramcache.sram_tag import SramTagDesign

        cls = SramTagDesign if family == "sram" else LHCacheDesign

        def build(config, stacked, memory, schedule):
            return cls(
                config, stacked, memory, schedule, ways=ways,
                policy=make_policy(policy),
            )

        # Enough of mcf_r's footprint to fill sets and evict from them, so
        # the policy's victim choice (and its RNG draws) is exercised.
        _, want, batch, got = _pair(build, _config(), reads=1500)
        assert batch.engine_used == "batch"
        assert batch.design.tags.stats.counter("evictions").value > 0
        assert_identical(got, want)


class TestFallback:
    @pytest.mark.parametrize("design", FALLBACK_DESIGNS)
    def test_unkerneled_designs_fall_back(self, design):
        config = _config(engine="auto")
        system = System(config, design, _workload(config))
        system.run()
        assert system.engine_used == "interp"

    def test_non_lru_multiway_alloy_falls_back(self):
        # The multi-way kernels inline LRU transitions specifically; a
        # replaced policy must make the engine decline, not approximate.
        from repro.cache.replacement import RandomPolicy
        from repro.sim import batch

        config = _config(engine="auto")
        system = System(config, "alloy-2way", _workload(config))
        system.design.cache._store.policy = RandomPolicy()
        assert batch.run(system) is None

    def test_verify_runs_fall_back(self):
        config = _config(engine="auto", verify=True)
        system = System(config, "alloy-map-i", _workload(config))
        system.run()
        assert system.engine_used == "interp"

    def test_fallback_is_still_bit_exact(self):
        config = _config()
        workload = _workload(config)
        want = System(
            dataclasses.replace(config, engine="interp"), "alloy-2way", workload
        ).run()
        got = System(
            dataclasses.replace(config, engine="auto"), "alloy-2way", workload
        ).run()
        assert_identical(got, want)


class TestEngineSelection:
    def test_invalid_explicit_engine_raises(self):
        config = _config(engine="vectorized")
        with pytest.raises(ValueError, match="unknown engine"):
            System(config, "no-cache", _workload(config)).run()

    def test_explicit_batch_engine_raises(self):
        # "auto" is the only way to ask for the batch engine.
        config = _config(engine="batch")
        with pytest.raises(ValueError, match="unknown engine 'batch'"):
            System(config, "no-cache", _workload(config)).run()

    def test_bare_system_runs_batch(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        config = _config()
        system = System(config, "no-cache", _workload(config))
        system.run()
        assert system.engine_used == "batch"

    def test_env_interp_pins_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        config = _config()
        system = System(config, "alloy-map-i", _workload(config))
        system.run()
        assert system.engine_used == "interp"

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        config = _config(engine="interp")
        system = System(config, "no-cache", _workload(config))
        system.run()
        assert system.engine_used == "interp"

    def test_auto_selects_batch_when_eligible(self):
        config = _config(engine="auto")
        system = System(config, "alloy-victim16", _workload(config))
        system.run()
        assert system.engine_used == "batch"

    def test_auto_falls_back_outside_envelope(self):
        config = _config(engine="auto")
        system = System(config, "perfect-l3", _workload(config))
        system.run()
        assert system.engine_used == "interp"

    def test_env_auto_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        config = _config()
        system = System(config, "no-cache", _workload(config))
        system.run()
        assert system.engine_used == "batch"

    @pytest.mark.parametrize("value", ["warp", "batch"])
    def test_invalid_env_warns_and_runs_auto(self, monkeypatch, capsys, value):
        import repro.sim.system as system_mod

        monkeypatch.setattr(system_mod, "_warned_engines", set())
        monkeypatch.setenv("REPRO_ENGINE", value)
        config = _config()
        system = System(config, "no-cache", _workload(config))
        system.run()
        assert system.engine_used == "batch"
        err = capsys.readouterr().err
        assert f"ignoring invalid REPRO_ENGINE={value!r}" in err

    def test_invalid_env_warning_dedupes_per_process(
        self, monkeypatch, capsys
    ):
        import repro.sim.system as system_mod

        monkeypatch.setattr(system_mod, "_warned_engines", set())
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        config = _config()
        workload = _workload(config)
        for _ in range(3):
            System(config, "no-cache", workload).run()
        err = capsys.readouterr().err
        assert err.count("ignoring invalid REPRO_ENGINE='turbo'") == 1

    def test_env_parity_with_interpreter(self, monkeypatch):
        config = _config()
        workload = _workload(config)
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        want = System(config, "sram-tag", workload).run()
        monkeypatch.delenv("REPRO_ENGINE")
        system = System(config, "sram-tag", workload)
        got = system.run()
        assert system.engine_used == "batch"
        assert_identical(got, want)


class TestIntegration:
    def test_bench_cell_id_ignores_engine(self):
        from repro.perf.bench import BenchCell

        a = BenchCell("lh-cache", "mcf_r")
        b = BenchCell("lh-cache", "mcf_r", engine="interp")
        assert a.cell_id == b.cell_id

    def test_time_cell_reports_engine_used(self):
        from repro.perf.bench import BenchCell, time_cell

        timing = time_cell(
            BenchCell(
                "no-cache", "mcf_r", reads_per_core=60, engine="auto"
            ),
            repeats=1,
            discard=0,
        )
        assert timing.engine_used == "batch"
        payload_engine = timing.cell.engine
        assert payload_engine == "auto"

    def test_bench_cli_times_engine_auto(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            [
                "bench", "--engine", "auto", "--designs", "no-cache",
                "--benchmarks", "mcf", "--reads", "100", "--repeats", "1",
                "--discard", "0", "--no-write",
            ]
        )
        assert code == 0
        assert "no-cache/mcf_r/r100" in capsys.readouterr().out

    def test_time_cell_rejects_auto_fallback(self):
        from repro.perf.bench import BenchCell, BenchDeterminismError, time_cell

        # perfect-l3 has no kernel: an "auto" cell would time the
        # interpreter while claiming the batch engine.
        with pytest.raises(BenchDeterminismError, match="wrong engine"):
            time_cell(
                BenchCell(
                    "perfect-l3", "mcf_r", reads_per_core=60, engine="auto"
                ),
                repeats=1,
                discard=0,
            )

    def test_sweep_cache_key_ignores_engine(self):
        from repro.sim.parallel import cell_key

        base = _config()
        batch = dataclasses.replace(base, engine="interp")
        args = ("lh-cache", "mcf_r")
        assert cell_key(*args, base, 250, 0.25, 7) == cell_key(
            *args, batch, 250, 0.25, 7
        )

    def test_fuzzer_covers_batch_engine(self):
        from repro.verify.fuzzer import fuzz_system_pair

        assert fuzz_system_pair(0, reads_per_core=120) == []

    def test_fuzzer_rotation_draws_every_kernel_design(self):
        """``repro check``'s system tier rotates through BATCH_DESIGNS, so
        one seed per design walks every kernel design once — and those are
        every factory design but the fallbacks."""
        from repro.dramcache.factory import DESIGN_NAMES
        from repro.verify.fuzzer import system_design

        assert len(set(BATCH_DESIGNS)) == len(BATCH_DESIGNS) == 20
        assert set(BATCH_DESIGNS) | set(FALLBACK_DESIGNS) == set(DESIGN_NAMES)
        drawn = [system_design(seed) for seed in range(len(BATCH_DESIGNS))]
        assert sorted(drawn) == sorted(BATCH_DESIGNS)

    def test_execute_cell_defaults_to_auto_and_reports_engine(
        self, monkeypatch
    ):
        from repro.sim.parallel import SweepCell, _execute_cell

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        cell = SweepCell(
            design="alloy-map-i",
            benchmark="mcf_r",
            config=_config(),
            reads_per_core=120,
            seed=7,
        )
        workload = _workload(_config(), reads=120)
        _, telemetry = _execute_cell(cell, workload=workload)
        assert telemetry["engine_used"] == "batch"

    def test_execute_cell_respects_env_pin(self, monkeypatch):
        from repro.sim.parallel import SweepCell, _execute_cell

        monkeypatch.setenv("REPRO_ENGINE", "interp")
        cell = SweepCell(
            design="alloy-map-i",
            benchmark="mcf_r",
            config=_config(),
            reads_per_core=120,
            seed=7,
        )
        workload = _workload(_config(), reads=120)
        _, telemetry = _execute_cell(cell, workload=workload)
        assert telemetry["engine_used"] == "interp"

    def test_sweep_report_counts_engines(self, monkeypatch):
        from repro.sim.parallel import run_sweep

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        config = _config()
        from repro.sim.parallel import SweepCell, SweepReport

        cells = [
            SweepCell(
                design=d,
                benchmark="mcf_r",
                config=config,
                reads_per_core=80,
                seed=7,
            )
            for d in ("alloy-map-i", "perfect-l3")
        ]
        report = run_sweep(cells, use_cache=False)
        assert isinstance(report, SweepReport)
        counts = report.engine_counts
        assert counts.get("batch") == 1
        assert counts.get("interp") == 1
        assert "-- engines:" in report.render()


class TestNoWorkloadMutation:
    """Kernels must never write into workload arrays: on the single-core
    path ``_flatten`` hands back the trace's own (possibly arena/shared-
    memory-backed) numpy arrays without a copy."""

    @pytest.mark.parametrize(
        "design", ["alloy-map-i", "lh-cache", "alloy-victim16", "ideal-lo"]
    )
    def test_single_core_arrays_unchanged(self, design):
        import numpy as np

        config = _config(num_cores=1, mshrs_per_core=4)
        workload = _workload(config)
        trace = workload.cores[0]
        before = {
            "addresses": trace.addresses.copy(),
            "is_write": trace.is_write.copy(),
            "pcs": trace.pcs.copy(),
            "gaps": trace.gaps.copy(),
        }
        system = System(
            dataclasses.replace(config, engine="auto"), design, workload
        )
        system.run()
        assert system.engine_used == "batch"
        for name, want in before.items():
            got = getattr(trace, name)
            assert np.array_equal(got, want), f"kernel mutated trace.{name}"


def _run_calls(design, mshrs, reads):
    """Python-level function calls (``sys.setprofile`` "call" events) made
    inside one ``System.run()``."""
    import sys

    config = _config(mshrs_per_core=mshrs)
    system = System(config, design, _workload(config, reads=reads))
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        system.run()
    finally:
        sys.setprofile(None)
    assert system.engine_used == "batch"
    return calls[0]


class TestNoPerRecordCalls:
    """The batch path (warmup, precompute, kernel, collect) makes a fixed
    number of Python-level calls whatever the trace length: everything per
    record is inline. The slack covers counters and stat groups a longer
    run creates on first use (evictions, victim reads, ...)."""

    SLACK = 24

    @pytest.mark.parametrize("mshrs", [1, 4])
    @pytest.mark.parametrize("design", BATCH_DESIGNS)
    def test_calls_do_not_grow_with_the_trace(self, design, mshrs):
        _run_calls(design, mshrs, 200)  # generate the kernel and warmup
        short = _run_calls(design, mshrs, 200)
        long = _run_calls(design, mshrs, 2000)
        assert long - short <= self.SLACK, (short, long)


def _variant(design, **overrides):
    from repro.sim import batch

    config = _config(**overrides)
    system = System(config, design, _workload(config, reads=20))
    return batch._kernel(batch._family(system.design), system)


class TestGeneration:
    def test_import_generates_nothing(self):
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.sim.system, repro.sim.parallel\n"
            "assert 'repro.sim.batch' not in sys.modules\n"
            "from repro.sim import batch\n"
            "assert batch._KERNELS == {}, batch._KERNELS\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_repeated_key_reuses_its_kernel(self):
        assert _variant("alloy-map-i") is _variant("alloy-map-i")

    @pytest.mark.parametrize(
        "design,change",
        [
            ("alloy-map-i", dict(mshrs_per_core=4)),
            ("alloy-map-i", dict(stacked_page_policy="closed")),
            ("alloy-map-i", dict(offchip_page_policy="closed")),
        ],
    )
    def test_one_flag_apart_means_another_kernel(self, design, change):
        assert _variant(design) is not _variant(design, **change)

    @pytest.mark.parametrize(
        "a,b",
        [
            ("alloy-map-i", "alloy-map-g"),
            ("alloy-map-i", "alloy-2way"),
            ("alloy-map-i", "alloy-victim16"),
            ("lh-cache", "lh-cache-rand"),
            ("lh-cache", "lh-cache-1way"),
        ],
    )
    def test_designs_one_flag_apart_get_different_kernels(self, a, b):
        assert _variant(a) is not _variant(b)

    def test_same_flags_share_a_kernel_across_designs(self):
        # alloy-burst8 differs from alloy-map-i only in burst data, which
        # the kernel reads at run time.
        assert _variant("alloy-map-i") is _variant("alloy-burst8")

    def test_filename_names_the_variant(self):
        import linecache

        code = _variant("lh-cache-rand", mshrs_per_core=4).__code__
        name = code.co_filename
        assert "kernel_lh" in name and "policy=random" in name
        assert "mlp=True" in name
        assert linecache.getline(name, code.co_firstlineno).startswith(
            "def kernel_lh("
        )


class TestRandbelow:
    """The inline draw the templates use for ``Random.randrange(n)``."""

    def test_matches_randrange_in_values_and_state(self):
        import random

        from repro.sim import batch

        draw = batch._generate(
            "\ndef $name(getrandbits, n, count):\n"
            "    k = n.bit_length()\n"
            "    out = []\n"
            "    for _ in range(count):\n"
            "        @randbelow(n=n, k=k, out=x)\n"
            "        out.append(x)\n"
            "    return out\n",
            "draws",
            {"family": "test"},
        )
        for seed in range(5):
            for n in range(1, 130):
                ref = random.Random(seed * 1000 + n)
                dut = random.Random(seed * 1000 + n)
                want = [ref.randrange(n) for _ in range(200)]
                assert draw(dut.getrandbits, n, 200) == want
                assert dut.getstate() == ref.getstate()


def _float_flush(group, name, count):
    """``batch._flush`` with one deliberate fault: counters become floats,
    equal in value to the ints the interpreter keeps."""
    if count:
        group.counter(name).value += float(count)


class TestTypeStrictGates:
    """A kernel that turns int counters into equal floats passes ``==``, but
    changes every cached result file and perfbench digest. Each of the three
    bit-exactness gates must refuse it."""

    def test_engine_parity_assert(self, monkeypatch):
        from repro.sim import batch

        monkeypatch.setattr(batch, "_flush", _float_flush)
        _, want, batch_system, got = _pair("alloy-map-i", _config())
        assert batch_system.engine_used == "batch"
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        with pytest.raises(AssertionError, match="memory_reads"):
            assert_identical(got, want)

    def test_differential_fuzzer(self, monkeypatch):
        from repro.sim import batch
        from repro.verify.fuzzer import fuzz_system_pair, system_design

        assert system_design(0) == "alloy-map-i"
        monkeypatch.setattr(batch, "_flush", _float_flush)
        divergences = fuzz_system_pair(0, reads_per_core=120, check_invariants=False)
        assert any("SimResult.memory_reads" in d for d in divergences), divergences

    def test_golden_check(self, monkeypatch, tmp_path):
        from repro.perf import golden
        from repro.perf.bench import BenchCell
        from repro.sim import batch

        cell = BenchCell("alloy-map-i", "mcf_r", reads_per_core=golden.GOLDEN_READS)
        path = tmp_path / "scorecard.json"
        path.write_text(golden.canonical_dumps(golden.golden_payload([cell])))
        assert golden.check_golden(path) == []
        monkeypatch.setattr(batch, "_flush", _float_flush)
        reads = batch_reads = None
        for line in golden.check_golden(path):
            if ".design_stats.memory_reads: " in line:
                batch_reads, reads = line.split(": ")[1].split(" != golden ")
        assert reads is not None and batch_reads == f"{float(reads)!r}"


def _fresh_design():
    config = _config()
    return System(config, "no-cache", _workload(config, reads=20)).design


def _folded(records):
    """A fresh design after ``_fold_reads`` over ``records`` packed into one
    buffer the way the kernels write it."""
    from repro.sim import batch

    design = _fresh_design()
    buf = bytearray(b"".join(batch._RECORD.pack(*r) for r in records))
    batch._fold_reads(design, buf)
    return design


def _stat_state(design):
    """Every counter, accumulator and histogram of a design's read stats,
    rendered with ``repr`` so types and signed zeros count."""

    def group(stats):
        return (
            sorted((k, c.value) for k, c in stats.counters.items()),
            sorted(
                (k, (a.total, a.count, a.min, a.max))
                for k, a in stats.accumulators.items()
            ),
            sorted((k, h.counts) for k, h in stats.histograms.items()),
        )

    return repr(
        (
            group(design.stats),
            group(design.stage_stats),
            design.hit_latency_hist.counts,
            design.read_latency_hist.counts,
        )
    )


EPS = ATTRIBUTION_EPSILON
ABOVE_EPS = math.nextafter(EPS, 1.0)

#: Hand-built demand-read records: (hit, latency, queue, predictor, tag,
#: data, memory).
RECORD_CASES = {
    "negative-zero-gap": [(1.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 7.5, 1.5, 0, 2, 0, 4)],
    "gap-at-epsilon": [(1.0, EPS, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 30.0, 6, 1, 3, 0, 20)],
    "gap-above-epsilon": [(0.0, ABOVE_EPS, 0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 64.0, 0, 0, 24, 40, 0)],
    "negative-gap": [(1.0, 100.0, 50.0, 0.0, 0.0, 60.0, 0.0), (0.0, 10.0, 0, 0, 0, 0, 12.25)],
    "interleaved": [
        (1.0, 61.0, 3.0, 1.0, 0.0, 57.0, 0.0),
        (0.0, 232.125, 12.5, 1.0, 0.0, 0.0, 218.625),
        (1.0, 80.0, 10.0, 24.0, 46.0, 0.0, 0.0),
        (0.0, 530.75, 310.25, 1.0, 18.0, 0.0, 201.5),
        (1.0, 12.0, 0.0, 0.0, 0.0, 12.0, 0.0),
        (1.0, 0.1 + 0.2, 0.1, 0.0, 0.0, 0.2, 0.0),
        # A gap above the epsilon whose last bits depend on the stage order.
        (0.0, 1.0, 0.1, 0.2, 0.3, 0.0, 0.0),
    ],
    "all-miss": [(0.0, 140.0, 20.0, 0, 0, 0, 120.0), (0.0, 301.5, 180.5, 1, 0, 0, 120.0)],
}


class TestReadRecordFold:
    """``_fold_reads`` over a hand-built buffer leaves exactly the stats a
    per-read replay through the interpreter's ``_record_read`` and
    ``_record_stages`` (``Accumulator.sample``, ``Histogram.sample``) does."""

    @pytest.mark.parametrize("case", sorted(RECORD_CASES))
    def test_fold_matches_per_read_replay(self, case):
        from repro.lifecycle import STAGES, LatencyBreakdown

        records = RECORD_CASES[case]
        folded, replayed = _folded(records), _fresh_design()
        for hit, latency, *stages in records:
            replayed._record_read(bool(hit), latency)
            breakdown = LatencyBreakdown(dict(zip(STAGES, map(float, stages))))
            replayed._record_stages(breakdown, latency)
        assert _stat_state(folded) == _stat_state(replayed)

    @pytest.mark.parametrize(
        "case,cycles",
        [
            ("gap-at-epsilon", 0.0),
            ("gap-above-epsilon", ABOVE_EPS),
            ("negative-gap", 10.0 + 2.25),
            ("negative-zero-gap", 0.0),
        ],
    )
    def test_unattributed_gap(self, case, cycles):
        assert repr(_folded(RECORD_CASES[case]).unattributed_cycles) == repr(cycles)

    def test_all_miss_creates_no_hit_stats(self):
        design = _folded(RECORD_CASES["all-miss"])
        assert "read_hits" not in design.stats.counters
        assert "hit_latency" not in design.stats.accumulators
        assert design.stats.counters["read_misses"].value == 2

    def test_empty_buffer_creates_nothing(self):
        design = _folded([])
        assert not design.stats.counters and not design.stats.accumulators
        assert not design.stage_stats.accumulators
        assert not any(design.read_latency_hist.counts)


class TestOneRecordPerRead:
    @pytest.mark.parametrize("design", ["alloy-victim16", "lh-cache", "no-cache"])
    def test_unfilled_buffer_raises(self, design, monkeypatch):
        """The buffer holds one record per demand read and the kernel checks
        it filled it: a read count one too high leaves a record unwritten."""
        from repro.sim import batch

        flatten = batch._flatten

        def overcount(system, starts, need_pcs):
            out = flatten(system, starts, need_pcs)
            out[6][0] += 1  # n_reads of core 0
            return out

        monkeypatch.setattr(batch, "_flatten", overcount)
        config = _config()
        system = System(config, design, _workload(config))
        with pytest.raises(RuntimeError, match="read records for"):
            system.run()
