"""Tests for the correctness subsystem: fuzzer and invariant layer.

The batch kernels' device template, compiled into callables, must stay
bit-identical to the plain ``DramDevice`` (``PriorityTimeline.reserve`` +
``Accumulator.sample``). These tests pin (a) that the callables and the
device agree, (b) that the fuzzer *detects* a template whose mirror is
broken, and (c) that the
invariant layer is installed only when asked for and actually rejects
corrupted results.
"""

import dataclasses

import pytest

from repro.cli import main as cli_main
from repro.dram.device import AccessResult, DramDevice
from repro.dram.mapping import RowLocation
from repro.dram.timings import OFFCHIP_DDR3, STACKED_DRAM
from repro.sim import batch
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.verify import InvariantChecker, InvariantViolation, run_check
from repro.verify.fuzzer import fuzz_device_pair, fuzz_system_pair
from repro.workloads.spec import build_workload

LOC = RowLocation(channel=0, bank=0, row=0)
OTHER_BANK = RowLocation(channel=0, bank=1, row=2)


def _small_workload(num_cores=1, reads=150, seed=3):
    return build_workload(
        "mcf_r", num_cores=num_cores, reads_per_core=reads, seed=seed
    )


class TestOracleDevice:
    """The plain ``DramDevice`` is the oracle: the batch kernels' device
    template must reproduce its ``access`` exactly."""

    def test_scripted_stream_bit_identical(self):
        ref = DramDevice(STACKED_DRAM)
        dut = DramDevice(STACKED_DRAM)
        demand, background, flush = batch.device_fns(dut)
        script = [
            (0.0, LOC, None, False, False),
            (0.0, LOC, None, False, True),
            (0.0, OTHER_BANK, 5, True, True),
            (10.5, LOC, None, False, False),
            (10.5, OTHER_BANK, 1, False, False),
            (500.0, LOC, None, True, False),
        ]
        for now, loc, burst, w, b in script:
            want = ref.access(now, loc, burst, is_write=w, background=b)
            args = (
                now,
                ref._bank_index(loc),
                loc.channel,
                loc.row,
                burst or STACKED_DRAM.line_burst,
                w,
            )
            if b:
                assert background(*args) == want.done
            else:
                assert demand(*args) == (
                    want.done,
                    want.row_hit,
                    want.queue_delay + want.bus_queue_delay,
                    want.act_cycles + want.cas_cycles + want.burst_cycles,
                )
        flush()
        for a, r in zip(dut._banks + dut._buses, ref._banks + ref._buses):
            assert (a.demand_free, a.all_free) == (r.demand_free, r.all_free)
        assert dut._open_row == ref._open_row
        counts = {k: c.value for k, c in ref.stats.counters.items()}
        assert {k: c.value for k, c in dut.stats.counters.items()} == counts

    def test_oracle_watermarks_match_production_policy(self):
        dev = DramDevice(OFFCHIP_DDR3)
        consts = batch._device_consts(dev)
        assert consts[5] == dev._block_cap()
        assert consts[6] == dev._watermark()
        assert consts[7] == dev._bus_watermark()
        assert consts[4] == dev._bus_block_cap()


def _break_consts(monkeypatch, mutate):
    """Make the compiled device template read constants edited by
    ``mutate``."""
    original = batch._device_consts

    def broken(dev):
        consts = list(original(dev))
        mutate(consts)
        return tuple(consts)

    monkeypatch.setattr(batch, "_device_consts", broken)


class TestDeviceFuzzer:
    @pytest.mark.parametrize("page_policy", ["open", "closed"])
    @pytest.mark.parametrize("timings", [STACKED_DRAM, OFFCHIP_DDR3])
    def test_healthy_device_has_no_divergences(self, timings, page_policy):
        for seed in range(3):
            assert (
                fuzz_device_pair(timings, page_policy, seed, accesses=250)
                == []
            )

    def test_streams_are_deterministic_per_seed(self):
        # Same seed twice: identical outcome (no PYTHONHASHSEED leakage).
        a = fuzz_device_pair(STACKED_DRAM, "open", 7, accesses=100)
        b = fuzz_device_pair(STACKED_DRAM, "open", 7, accesses=100)
        assert a == b

    def test_detects_broken_bus_watermark_mirror(self, monkeypatch):
        """The fuzzer must flag a bus drain threshold sized in
        bank-service units (a bug the differential once adjudicated)."""

        def bank_sized_bus_watermark(consts):
            consts[7] = consts[6]

        _break_consts(monkeypatch, bank_sized_bus_watermark)
        found = sum(
            len(fuzz_device_pair(STACKED_DRAM, "open", seed, accesses=400))
            for seed in range(5)
        )
        assert found > 0

    def test_detects_broken_timing_mirror(self, monkeypatch):
        def skewed_block_cap(consts):
            consts[5] += 1  # bank block_cap off by one

        _break_consts(monkeypatch, skewed_block_cap)
        found = sum(
            len(fuzz_device_pair(STACKED_DRAM, "open", seed, accesses=400))
            for seed in range(5)
        )
        assert found > 0


class TestSystemFuzzer:
    def test_paired_system_runs_identical(self):
        assert fuzz_system_pair(0, reads_per_core=150) == []

    def test_run_check_small_matrix(self):
        report = run_check(
            seeds=2, accesses=120, system_seeds=1, reads_per_core=150
        )
        assert report.ok
        assert report.device_streams == 2 * 4  # seeds x DEVICE_MATRIX
        assert report.device_accesses == 2 * 4 * 120
        assert report.system_runs == 1
        assert "OK" in report.render()


class TestInvariantChecker:
    def _result(self, **overrides):
        base = dict(
            start=5.0,
            data_ready=23.0,
            done=27.0,
            row_hit=True,
            queue_delay=5.0,
            bus_queue_delay=0.0,
            act_cycles=0.0,
            cas_cycles=18.0,
            burst_cycles=4.0,
        )
        base.update(overrides)
        return AccessResult(**base)

    def test_clean_access_passes(self):
        checker = InvariantChecker()
        checker.check_access("dev", 0.0, self._result())
        assert checker.accesses_checked == 1

    def test_time_order_violation(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="out of order"):
            checker.check_access("dev", 0.0, self._result(done=20.0))

    def test_queue_delay_mismatch(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="queue_delay"):
            checker.check_access("dev", 0.0, self._result(queue_delay=4.0))

    def test_decomposition_gap(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="stage fields"):
            checker.check_access("dev", 0.0, self._result(cas_cycles=17.0))

    def test_counter_conservation_violation(self):
        device = DramDevice(STACKED_DRAM)
        device.access(0.0, LOC)
        device.stats.counter("row_hits").add(5)  # corrupt the books
        with pytest.raises(InvariantViolation, match="activations"):
            InvariantChecker().check_device_totals(device)

    def test_outcome_breakdown_must_cover_latency(self):
        from repro.dramcache.base import AccessOutcome
        from repro.lifecycle import LatencyBreakdown

        checker = InvariantChecker()
        bad = AccessOutcome(
            done=100.0,
            cache_hit=True,
            served_by_memory=False,
            breakdown=LatencyBreakdown({"data": 40.0}),
        )
        with pytest.raises(InvariantViolation, match="breakdown total"):
            checker.check_outcome("design", 0.0, False, bad)

    def test_outcome_missing_breakdown(self):
        from repro.dramcache.base import AccessOutcome

        checker = InvariantChecker()
        bad = AccessOutcome(done=1.0, cache_hit=True, served_by_memory=False)
        with pytest.raises(InvariantViolation, match="no latency breakdown"):
            checker.check_outcome("design", 0.0, False, bad)

    def test_writes_are_not_audited(self):
        from repro.dramcache.base import AccessOutcome

        checker = InvariantChecker()
        posted = AccessOutcome(done=0.0, cache_hit=False, served_by_memory=True)
        checker.check_outcome("design", 0.0, True, posted)
        assert checker.reads_checked == 0


class TestSystemWiring:
    def test_default_config_installs_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        system = System(
            SystemConfig(num_cores=1), "alloy-map-i", _small_workload()
        )
        assert system.checker is None
        # No instance-level wrappers shadowing the class methods.
        assert "access" not in vars(system.stacked)
        assert "handle" not in vars(system.design)

    def test_config_flag_installs_and_run_passes(self):
        system = System(
            SystemConfig(num_cores=1, verify=True),
            "alloy-map-i",
            _small_workload(),
        )
        assert system.checker is not None
        assert "access" in vars(system.stacked)
        result = system.run()
        assert system.checker.accesses_checked > 0
        assert system.checker.reads_checked > 0
        assert result.unattributed_cycles == 0.0

    def test_env_flag_installs(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        system = System(
            SystemConfig(num_cores=1), "sram-tag", _small_workload()
        )
        assert system.checker is not None

    def test_env_flag_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "0")
        system = System(
            SystemConfig(num_cores=1), "sram-tag", _small_workload()
        )
        assert system.checker is None

    def test_verified_run_matches_unverified_run(self):
        workload = _small_workload()
        plain = System(
            SystemConfig(num_cores=1), "lh-cache", workload
        ).run()
        checked = System(
            SystemConfig(num_cores=1, verify=True), "lh-cache", workload
        ).run()
        assert dataclasses.asdict(plain) == dataclasses.asdict(checked)


class TestCheckCli:
    def test_check_verb_passes(self, capsys):
        code = cli_main(
            [
                "check",
                "--seeds",
                "1",
                "--accesses",
                "120",
                "--system-seeds",
                "1",
                "--reads",
                "150",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK: zero batch-vs-reference divergences" in out

    def test_check_rejects_bad_seeds(self, capsys):
        assert cli_main(["check", "--seeds", "0"]) == 2

    def test_check_listed_as_verb(self, capsys):
        cli_main(["--list"])
        assert "check" in capsys.readouterr().out
