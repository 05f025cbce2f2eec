"""Tests for the batch simulation engine (``repro.sim.batch``).

The engine's entire contract is *bit-exactness*: for every configuration
inside its envelope, ``SystemConfig(engine="auto")`` must run the batch
engine and produce a :class:`~repro.sim.results.SimResult` field-identical
to the interpreter's, while configurations outside the envelope must fall
back to the interpreter (``System.engine_used == "interp"``) rather than
approximate. These tests pin both halves, plus the engine-selection
plumbing (config field, ``REPRO_ENGINE``) and the bench/sweep integration.
"""

import dataclasses

import pytest

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
    g = dataclasses.asdict(got)
    w = dataclasses.asdict(want)
    diff = {k: (g[k], w[k]) for k in g if g[k] != w[k]}
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
