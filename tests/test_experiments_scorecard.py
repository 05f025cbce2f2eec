"""Tests for the reproduction scorecard (criterion logic, cheap paths)."""

import pytest

from repro.experiments.report import ExperimentResult
from repro.experiments.scorecard import (
    CRITERIA,
    _fig4_ordering,
    _gap_shrinks_with_size,
    _hit_latency_ordering,
    _improvement_ladder,
    _twoway_not_worth_it,
)


def fake(experiment_id, headers, rows):
    return ExperimentResult(experiment_id, "t", headers=headers, rows=rows)


def one(experiment_id, headers, *rows):
    """A results dict holding one fake experiment."""
    return {experiment_id: fake(experiment_id, headers, [list(r) for r in rows])}


FIG4 = ["workload", "lh-cache", "sram-tag", "ideal-lo"]
FIG6 = ["workload", "alloy-nopred", "alloy-missmap", "alloy-perfect", "sram-tag"]
FIG8 = ["workload", "sam", "pam", "map-g", "map-i", "perfect"]
FIG9 = ["size", "lh-cache", "sram-tag", "alloy-map-i", "ideal-lo"]
LH_SRAM_ALLOY = ["workload", "lh-cache", "sram-tag", "alloy-map-i"]
TABLE1 = ["configuration", "improvement_pct", "hit_rate_pct", "hit_latency"]
TABLE3 = ["workload", "perfect_l3_speedup", "paper_speedup", "mpki", "paper_mpki"]
TABLE5 = ["predictor", "a", "b", "c", "d", "accuracy_pct"]
TABLE6 = ["size", "lh29_pct", "alloy_pct", "delta_pct"]
TABLE7 = ["design", "improvement_pct", "paper_pct"]
TWOWAY = ["design", "improvement_pct", "hit_rate_pct", "hit_latency"]
ENERGY = ["model", "memory_reads", "reads_vs_sam"]
VICTIM = ["design", "improvement_pct", "hit_rate_pct", "hit_latency", "sram_bytes"]
PAGE = ["policy", "improvement_pct", "hit_latency", "row_hit_rate_pct"]
MLP = ["mshrs", "lh_cache", "sram_tag", "alloy_map_i"]

#: criterion -> (results it passes, results it fails). Each criterion or
#: clause folded in from a former paper-shape test has a case, and every
#: failing case breaks only the folded clause.
FOLDED_CASES = {
    "lh-beats-baseline": (
        one("fig4", FIG4, ["gmean", 1.01, 1.21, 1.37]),
        one("fig4", FIG4, ["gmean", 0.994, 1.213, 1.370]),
    ),
    "hit-latency-ordering": (
        one("fig10", LH_SRAM_ALLOY, ["average", 122.8, 62.6, 34.9]),
        one("fig10", LH_SRAM_ALLOY, ["average", 110.0, 62.0, 56.0]),
    ),
    "missmap-psl-tax": (
        one("fig6", FIG6, ["gmean", 1.243, 1.173, 1.338, 1.213]),
        one("fig6", FIG6, ["gmean", 1.243, 1.173, 1.200, 1.213]),
    ),
    "predictor-ranking": (
        one("fig8", FIG8, ["gmean", 1.243, 1.193, 1.276, 1.278, 1.338]),
        one("fig8", FIG8, ["gmean", 1.243, 1.193, 1.276, 1.230, 1.338]),
    ),
    "map-i-most-accurate": (
        one("table5", TABLE5, ["SAM", 0, 0, 0, 0, 53.9], ["PAM", 0, 0, 0, 0, 46.2],
            ["MAP-I", 0, 0, 0, 0, 85.3], ["Perfect", 0, 0, 0, 0, 100.0]),
        one("table5", TABLE5, ["SAM", 0, 0, 0, 0, 53.9], ["PAM", 0, 0, 0, 0, 46.2],
            ["MAP-I", 0, 0, 0, 0, 50.0], ["Perfect", 0, 0, 0, 0, 100.0]),
    ),
    "pam-doubles-traffic": (
        one("energy", ENERGY, ["SAM", 0, 1.0], ["PAM", 0, 2.169],
            ["MAP-I", 0, 1.114], ["Perfect", 0, 1.001]),
        one("energy", ENERGY, ["SAM", 0, 1.0], ["PAM", 0, 1.2],
            ["MAP-I", 0, 1.114], ["Perfect", 0, 1.001]),
    ),
    "associativity-gap-shrinks": (
        one("table6", TABLE6, ["256MB", 59.6, 53.9, 5.7], ["1GB", 61.8, 60.6, 1.2]),
        one("table6", TABLE6, ["256MB", 59.6, 53.9, 5.7], ["1GB", 60.0, 61.0, -1.0]),
    ),
    "capacity-monotone": (
        one("fig9", FIG9, ["64MB", 0, 0, 1.114, 0], ["1GB", 0, 0, 1.364, 0]),
        # Every step falls by under the 0.01 step tolerance, yet 1 GB ends
        # below 64 MB.
        one("fig9", FIG9, ["64MB", 0, 0, 1.114, 0], ["128MB", 0, 0, 1.106, 0],
            ["256MB", 0, 0, 1.098, 0]),
    ),
    "ideal-lo-bounds-sizes": (
        one("fig9", FIG9, ["64MB", 0.990, 1.108, 1.114, 1.194],
            ["1GB", 0.996, 1.226, 1.364, 1.459]),
        one("fig9", FIG9, ["64MB", 0.990, 1.108, 1.114, 1.194],
            ["1GB", 0.996, 1.226, 1.500, 1.459]),
    ),
    "other-workloads-ordering": (
        one("fig11", LH_SRAM_ALLOY, ["gmean", 0.932, 1.089, 1.212]),
        one("fig11", LH_SRAM_ALLOY, ["gmean", 0.932, 1.089, 1.050]),
    ),
    "lh-deoptimization-trade": (
        one("table1", TABLE1, ["lh-cache", -0.6, 59.6, 122.8],
            ["lh-cache-rand", 2.0, 57.5, 110.4], ["lh-cache-1way", 1.05, 54.3, 116.6]),
        one("table1", TABLE1, ["lh-cache", -0.6, 59.6, 122.8],
            ["lh-cache-rand", 2.0, 57.5, 110.4], ["lh-cache-1way", 1.05, 60.0, 116.6]),
    ),
    "workloads-calibrated": (
        one("table3", TABLE3, ["mcf_r", 4.66, 4.9, 52.0, 52.0],
            ["lbm_r", 3.13, 3.8, 31.8, 31.8]),
        one("table3", TABLE3, ["mcf_r", 4.66, 4.9, 52.0, 52.0],
            ["lbm_r", 3.13, 3.8, 36.0, 31.8]),
    ),
    "twoway-not-worth-it": (
        one("twoway", TWOWAY, ["alloy-map-i", 27.8, 53.9, 34.9],
            ["alloy-2way", 27.3, 56.1, 41.6]),
        one("twoway", TWOWAY, ["alloy-map-i", 27.8, 53.9, 34.9],
            ["alloy-2way", 27.3, 52.0, 41.6]),
    ),
    "room-ladder": (
        one("table7", TABLE7, ["alloy-map-i", 27.8, 0], ["alloy-perfect", 33.8, 0],
            ["ideal-lo", 37.0, 0], ["ideal-lo-notag", 39.4, 0]),
        # Within the ladder's 0.5-point slack, but over Perfect x 1.02 + 1.
        one("table7", TABLE7, ["alloy-map-i", -29.55, 0], ["alloy-perfect", -30.0, 0],
            ["ideal-lo", -29.0, 0], ["ideal-lo-notag", -28.0, 0]),
    ),
    "victim-buffer-cheap": (
        one("victim-cache", VICTIM, ["alloy-map-i", 38.8, 70.54, 34.8, 0],
            ["alloy-victim64", 39.4, 70.66, 34.7, 4608]),
        one("victim-cache", VICTIM, ["alloy-map-i", 38.8, 70.54, 34.8, 0],
            ["alloy-victim64", 39.4, 70.66, 34.7, 64 * 64]),
    ),
    "open-page-row-hits": (
        one("page-policy", PAGE, ["open", 38.8, 34.8, 60.4], ["closed", 30.1, 46.7, 0.0]),
        one("page-policy", PAGE, ["open", 38.8, 50.0, 60.4], ["closed", 30.1, 46.7, 0.0]),
    ),
    "mlp-keeps-lh": (
        one("mlp-sweep", MLP, [1, 0.957, 0, 0], [8, 0.928, 0, 0]),
        one("mlp-sweep", MLP, [1, 0.957, 0, 0], [8, 0.900, 0, 0]),
    ),
}


class TestCriterionLogic:
    def test_fig4_ordering(self):
        good = {"fig4": fake("fig4", ["w", "lh", "sram", "ideal"],
                             [["gmean", 1.0, 1.2, 1.3]])}
        bad = {"fig4": fake("fig4", ["w", "lh", "sram", "ideal"],
                            [["gmean", 1.4, 1.2, 1.3]])}
        assert _fig4_ordering(good)
        assert not _fig4_ordering(bad)

    def test_hit_latency_window(self):
        headers = ["w", "lh", "sram", "alloy"]
        good = {"fig10": fake("fig10", headers, [["average", 110.0, 62.0, 34.0]])}
        too_fast_lh = {"fig10": fake("fig10", headers, [["average", 70.0, 62.0, 34.0]])}
        assert _hit_latency_ordering(good)
        assert not _hit_latency_ordering(too_fast_lh)

    def test_gap_shrinks(self):
        headers = ["size", "lh", "alloy", "delta_pct"]
        good = {"table6": fake("table6", headers,
                               [["256MB", 0, 0, 8.0], ["1GB", 0, 0, 2.0]])}
        bad = {"table6": fake("table6", headers,
                              [["256MB", 0, 0, 2.0], ["1GB", 0, 0, 8.0]])}
        assert _gap_shrinks_with_size(good)
        assert not _gap_shrinks_with_size(bad)

    def test_improvement_ladder(self):
        headers = ["design", "improvement_pct", "paper"]
        good = {"table7": fake("table7", headers,
                               [["a", 23.0, 0], ["b", 28.0, 0], ["c", 31.0, 0]])}
        bad = {"table7": fake("table7", headers,
                              [["a", 31.0, 0], ["b", 23.0, 0]])}
        assert _improvement_ladder(good)
        assert not _improvement_ladder(bad)

    def test_twoway(self):
        headers = ["design", "improvement_pct", "hit", "hit_latency"]
        tie = {"twoway": fake("twoway", headers,
                              [["alloy-map-i", 27.0, 48.0, 34.0],
                               ["alloy-2way", 27.5, 56.0, 41.0]])}
        big_win = {"twoway": fake("twoway", headers,
                                  [["alloy-map-i", 20.0, 48.0, 34.0],
                                   ["alloy-2way", 30.0, 56.0, 41.0]])}
        assert _twoway_not_worth_it(tie)
        assert not _twoway_not_worth_it(big_win)


@pytest.mark.parametrize("name", sorted(FOLDED_CASES))
def test_folded_claim(name):
    check = next(c.check for c in CRITERIA if c.name == name)
    passing, failing = FOLDED_CASES[name]
    assert check(passing)
    assert not check(failing)


class TestCriteriaCatalog:
    def test_names_unique(self):
        names = [c.name for c in CRITERIA]
        assert len(names) == len(set(names))

    def test_every_criterion_names_experiments(self):
        from repro.experiments.registry import EXPERIMENTS

        for criterion in CRITERIA:
            assert criterion.experiments
            for experiment_id in criterion.experiments:
                assert experiment_id in EXPERIMENTS

    def test_claim_count(self):
        assert len(CRITERIA) == 23

    def test_title_claim_present(self):
        assert any(c.name == "alloy-beats-sram" for c in CRITERIA)
