"""Tests for the extension experiments (quick mode)."""

import pytest

from repro.experiments.extensions import (
    run_lh_replacement,
    run_mact_sweep,
    run_psl_sweep,
)


class TestPslSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_psl_sweep(quick=True)

    def test_has_zero_and_paper_points(self, result):
        psls = result.column("psl_cycles")
        assert 0 in psls and 24 in psls

    def test_latency_grows_with_psl(self, result):
        latencies = result.column("hit_latency")
        assert latencies == sorted(latencies)
        assert latencies[0] < latencies[-1]

    def test_performance_shrinks_with_psl(self, result):
        improvements = result.column("improvement_pct")
        assert improvements[0] > improvements[-1]


class TestMactSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_mact_sweep(quick=True)

    def test_storage_column(self, result):
        by_entries = {row[0]: row[1] for row in result.rows}
        assert by_entries[256] == 96.0  # the paper's 96 bytes per core

    def test_bigger_tables_never_less_accurate(self, result):
        accuracy = result.column("accuracy_pct")
        assert accuracy[-1] >= accuracy[0] - 0.5


class TestLhReplacement:
    @pytest.fixture(scope="class")
    def result(self):
        return run_lh_replacement(quick=True)

    def test_all_policies_present(self, result):
        assert result.column("policy") == ["dip", "lru", "nru", "random"]

    def test_random_has_lowest_hit_latency(self, result):
        latencies = {row[0]: row[3] for row in result.rows}
        assert latencies["random"] == min(latencies.values())
