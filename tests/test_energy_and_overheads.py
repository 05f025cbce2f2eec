"""Tests for the Section 5.6 energy model and Section 6.1 overhead analysis."""

import pytest

from repro.analysis.overheads import (
    MAP_I_BYTES_PER_CORE,
    map_overhead,
    missmap_overhead_dense,
    missmap_overhead_sparse,
    overhead_table,
    sram_tag_overhead,
)
from repro.dram.device import DramDevice
from repro.dram.energy import (
    OFFCHIP_ENERGY,
    STACKED_ENERGY,
    EnergyParams,
    device_energy,
    system_energy,
)
from repro.dram.mapping import RowLocation
from repro.dram.timings import OFFCHIP_DDR3, STACKED_DRAM
from repro.units import GB, MB


class TestEnergyParams:
    def test_access_energy_components(self):
        params = EnergyParams(activate_nj=10.0, transfer_pj_per_bit=5.0)
        # 2 activations + 64 bytes: 20 nJ + 64*8*5/1000 = 22.56 nJ.
        assert params.access_energy_nj(2, 64) == pytest.approx(22.56)

    def test_stacked_io_much_cheaper_per_bit(self):
        assert STACKED_ENERGY.transfer_pj_per_bit < OFFCHIP_ENERGY.transfer_pj_per_bit / 3


class TestDeviceEnergy:
    def test_counts_track_accesses(self):
        device = DramDevice(OFFCHIP_DDR3)
        loc = RowLocation(0, 0, 0)
        device.access(0.0, loc)          # activation + 64 B
        device.access(1000.0, loc)       # row hit + 64 B
        breakdown = device_energy(device, OFFCHIP_ENERGY)
        assert breakdown.activations == 1
        assert breakdown.bytes_on_bus == 128
        assert breakdown.activation_nj == pytest.approx(22.0)
        assert breakdown.total_nj > breakdown.activation_nj

    def test_tad_burst_bytes(self):
        device = DramDevice(STACKED_DRAM)
        device.access(0.0, RowLocation(0, 0, 0), burst_cycles=5)  # 80 B TAD
        breakdown = device_energy(device, STACKED_ENERGY)
        assert breakdown.bytes_on_bus == 80

    def test_idle_device_zero_energy(self):
        device = DramDevice(STACKED_DRAM)
        assert device_energy(device, STACKED_ENERGY).total_nj == 0.0

    def test_system_energy_keys(self):
        memory = DramDevice(OFFCHIP_DDR3, name="memory")
        stacked = DramDevice(STACKED_DRAM, name="stacked")
        memory.access(0.0, RowLocation(0, 0, 0))
        out = system_energy(memory, stacked)
        assert out["memory"].total_nj > 0
        assert out["stacked"].total_nj == 0


class TestEnergyInResults:
    def test_simulation_reports_energy(self):
        from repro.sim.config import SystemConfig
        from repro.sim.runner import run_benchmark

        config = SystemConfig(capacity_scale=2048)
        result = run_benchmark("alloy-map-i", "sphinx_r", config, reads_per_core=300)
        assert result.memory_energy_nj > 0
        assert result.stacked_energy_nj > 0
        assert result.total_dram_energy_nj == pytest.approx(
            result.memory_energy_nj + result.stacked_energy_nj
        )
        assert result.energy_per_instruction_nj() > 0

    def test_pam_uses_more_memory_energy_than_perfect(self):
        from repro.sim.config import SystemConfig
        from repro.sim.runner import run_benchmark

        config = SystemConfig(capacity_scale=2048)
        pam = run_benchmark("alloy-pam", "sphinx_r", config, reads_per_core=600)
        perfect = run_benchmark(
            "alloy-perfect", "sphinx_r", config, reads_per_core=600
        )
        assert pam.memory_energy_nj > 1.3 * perfect.memory_energy_nj


class TestOverheads:
    def test_sram_matches_paper_progression(self):
        """Section 6.1: 6/12/24/48/96 MB for 64 MB..1 GB."""
        assert sram_tag_overhead(64 * MB) == 6 * MB
        assert sram_tag_overhead(128 * MB) == 12 * MB
        assert sram_tag_overhead(256 * MB) == 24 * MB
        assert sram_tag_overhead(512 * MB) == 48 * MB
        assert sram_tag_overhead(1 * GB) == 96 * MB

    def test_map_overhead_under_1kb(self):
        assert MAP_I_BYTES_PER_CORE == 96
        assert map_overhead(8) == 768

    def test_missmap_bounds_ordering(self):
        for size in (64 * MB, 256 * MB, 1 * GB):
            dense = missmap_overhead_dense(size)
            sparse = missmap_overhead_sparse(size)
            assert 0 < dense < sparse

    def test_missmap_megabyte_regime(self):
        # Section 2.2: "multi-megabyte storage overhead".
        assert missmap_overhead_sparse(256 * MB) > 10 * MB
        assert missmap_overhead_dense(1 * GB) > 3 * MB

    def test_table_scales_linearly(self):
        rows = overhead_table()
        assert len(rows) == 5
        assert rows[-1].sram_tag_bytes == 16 * rows[0].sram_tag_bytes
        # MAP-I does not grow with cache size.
        assert rows[0].map_i_bytes == rows[-1].map_i_bytes

    def test_overheads_experiment(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("overheads")
        row = result.row_by_key("256MB")
        assert row[1] == row[2] == "24MB"  # ours and the paper's
        assert row[-1] == "768B"
