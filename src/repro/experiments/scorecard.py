"""Reproduction scorecard: one PASS/FAIL verdict per paper claim.

Runs the experiments behind each of the paper's claims and checks the
*shape* criteria this reproduction promises (see EXPERIMENTS.md). It is the
one statement of every simulation-backed shape claim: a verdict that reads
FAIL here is a recorded deviation, not a skipped check. ``repro all`` ends
with this table, and its full-mode output is the committed record
(``experiments_full.txt``); ``repro scorecard --quick`` is a fast
end-to-end health check on short traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.experiments.report import ExperimentResult


@dataclass(frozen=True)
class Criterion:
    """One paper claim and the check that verifies it."""

    name: str
    claim: str
    experiments: tuple
    check: Callable[[Dict[str, ExperimentResult]], bool]


def _fig4_ordering(results):
    gmean = results["fig4"].row_by_key("gmean")
    lh, sram, ideal = gmean[1], gmean[2], gmean[3]
    return lh < sram < ideal


def _lh_beats_baseline(results):
    return 1.0 < results["fig4"].row_by_key("gmean")[1]


def _alloy_beats_sram(results):
    alloy = results["fig8"].row_by_key("gmean")[4]  # MAP-I column
    sram = results["fig4"].row_by_key("gmean")[2]
    return alloy > sram


def _hit_latency_ordering(results):
    avg = results["fig10"].row_by_key("average")
    lh, sram, alloy = avg[1], avg[2], avg[3]
    return alloy < sram < lh and 85 <= lh <= 135 and alloy < 0.5 * lh


def _missmap_worse_than_nopred(results):
    gmean = results["fig6"].row_by_key("gmean")
    nopred, missmap, perfect = gmean[1], gmean[2], gmean[3]
    return missmap < nopred < perfect


def _map_i_near_perfect(results):
    gmean = results["fig8"].row_by_key("gmean")
    map_i, perfect = gmean[4], gmean[5]
    return map_i > perfect * 0.9


def _predictor_ranking(results):
    sam, pam, map_g, map_i, perfect = results["fig8"].row_by_key("gmean")[1:6]
    return perfect >= max(sam, pam, map_g) * 0.99 and map_i > sam


def _map_i_most_accurate(results):
    accuracy = {row[0]: row[5] for row in results["table5"].rows}
    return (
        accuracy["Perfect"] == 100.0
        and accuracy["MAP-I"] > accuracy["SAM"]
        and accuracy["MAP-I"] > accuracy["PAM"]
    )


def _pam_wastes_bandwidth(results):
    pam = results["table5"].row_by_key("PAM")
    return pam[2] > 25.0  # % of misses wastefully sent to memory


def _pam_doubles_traffic(results):
    ratios = {row[0]: row[2] for row in results["energy"].rows}  # reads vs SAM
    return (
        ratios["PAM"] > 1.3
        and ratios["MAP-I"] < ratios["PAM"]
        and ratios["Perfect"] <= 1.05
    )


def _gap_shrinks_with_size(results):
    rows = results["table6"].rows
    gap = all(lh >= alloy and delta >= 0 for _, lh, alloy, delta, *_ in rows)
    deltas = [row[3] for row in rows]
    return gap and all(b <= a + 0.5 for a, b in zip(deltas, deltas[1:]))


def _capacity_monotone(results):
    rows = results["fig9"].rows
    alloy = [row[3] for row in rows]
    steps = all(b >= a - 0.01 for a, b in zip(alloy, alloy[1:]))
    return steps and alloy[-1] >= alloy[0]


def _ideal_lo_bounds_sizes(results):
    return all(
        lh < ideal and alloy <= ideal * 1.02
        for _, lh, _, alloy, ideal in results["fig9"].rows
    )


def _other_workloads_ordering(results):
    gmean = results["fig11"].row_by_key("gmean")
    lh, sram, alloy = gmean[1], gmean[2], gmean[3]
    return alloy >= sram * 0.98 and alloy > lh


def _lh_deoptimization_trade(results):
    lh = results["table1"].row_by_key("lh-cache")
    rand = results["table1"].row_by_key("lh-cache-rand")
    one_way = results["table1"].row_by_key("lh-cache-1way")
    return rand[3] < lh[3] and one_way[3] < lh[3] and one_way[2] <= lh[2]


def _workloads_calibrated(results):
    rows = results["table3"].rows
    calibrated = all(
        speedup > 1.0 and abs(mpki - paper_mpki) / paper_mpki < 0.1
        for _, speedup, _, mpki, paper_mpki, *_ in rows
    )
    speedups = [row[1] for row in rows]
    return calibrated and speedups[0] == max(speedups)  # mcf_r, the first row


def _burst8_cheap(results):
    base = results["burst8"].row_by_key("alloy-map-i")[1]
    burst8 = results["burst8"].row_by_key("alloy-burst8")[1]
    return base - 6.0 < burst8 <= base + 1.0


def _twoway_not_worth_it(results):
    one = results["twoway"].row_by_key("alloy-map-i")
    two = results["twoway"].row_by_key("alloy-2way")
    latency_worse = two[3] > one[3]
    no_big_win = two[1] < one[1] + 5.0
    keeps_hit_rate = two[2] >= one[2] - 1.0
    return latency_worse and no_big_win and keeps_hit_rate


def _improvement_ladder(results):
    improvements = results["table7"].column("improvement_pct")
    ladder = all(b >= a - 0.5 for a, b in zip(improvements, improvements[1:]))
    map_i, perfect = improvements[0], improvements[1]
    return ladder and map_i <= perfect * 1.02 + 1.0


def _victim_buffer_cheap(results):
    base = results["victim-cache"].row_by_key("alloy-map-i")
    v64 = results["victim-cache"].row_by_key("alloy-victim64")
    return v64[2] >= base[2] - 0.2 and v64[4] == 64 * 72


def _open_page_row_hits(results):
    open_row = results["page-policy"].row_by_key("open")
    closed = results["page-policy"].row_by_key("closed")
    return open_row[3] > closed[3] and open_row[2] <= closed[2]


def _mlp_keeps_lh(results):
    lh = results["mlp-sweep"].column("lh_cache")
    return lh[-1] >= lh[0] - 0.05


def _fig3_exact(results):
    for row in results["fig3"].rows:
        _, _, _, cycles, paper = row
        if paper != "-" and cycles != paper:
            return False
    return True


CRITERIA = (
    Criterion(
        "fig3-cycle-exact",
        "isolated-access latencies match the paper cycle-for-cycle",
        ("fig3",),
        _fig3_exact,
    ),
    Criterion(
        "potential-ordering",
        "LH-Cache < SRAM-Tag < IDEAL-LO (Figure 4)",
        ("fig4",),
        _fig4_ordering,
    ),
    Criterion(
        "lh-beats-baseline",
        "LH-Cache beats no DRAM cache, gmean > 1.0 (Figure 4; paper 1.087)",
        ("fig4",),
        _lh_beats_baseline,
    ),
    Criterion(
        "alloy-beats-sram",
        "Alloy+MAP-I outperforms impractical SRAM-Tags (the title claim)",
        ("fig4", "fig8"),
        _alloy_beats_sram,
    ),
    Criterion(
        "hit-latency-ordering",
        "hit latency Alloy < SRAM-Tag < LH-Cache, LH near 107, "
        "Alloy under half of LH (Figure 10)",
        ("fig10",),
        _hit_latency_ordering,
    ),
    Criterion(
        "missmap-psl-tax",
        "MissMap < no prediction < perfect prediction (Figure 6)",
        ("fig6",),
        _missmap_worse_than_nopred,
    ),
    Criterion(
        "map-i-near-perfect",
        "MAP-I lands within 10% of the perfect predictor (Figure 8)",
        ("fig8",),
        _map_i_near_perfect,
    ),
    Criterion(
        "predictor-ranking",
        "Perfect bounds SAM, PAM and MAP-G within 1%; MAP-I beats SAM "
        "(Figure 8)",
        ("fig8",),
        _predictor_ranking,
    ),
    Criterion(
        "map-i-most-accurate",
        "MAP-I predicts better than SAM and PAM; Perfect is 100% (Table 5)",
        ("table5",),
        _map_i_most_accurate,
    ),
    Criterion(
        "pam-bandwidth-waste",
        "PAM wastefully sends a large share of hits to memory (Table 5)",
        ("table5",),
        _pam_wastes_bandwidth,
    ),
    Criterion(
        "pam-doubles-traffic",
        "PAM reads > 1.3x SAM's, MAP-I fewer than PAM, Perfect <= 1.05x "
        "(Section 5.6)",
        ("energy",),
        _pam_doubles_traffic,
    ),
    Criterion(
        "associativity-gap-shrinks",
        "29-way LH-Cache out-hits 1-way Alloy by a gap that shrinks "
        "with capacity (Table 6)",
        ("table6",),
        _gap_shrinks_with_size,
    ),
    Criterion(
        "capacity-monotone",
        "Alloy Cache speedup grows with cache size (Figure 9)",
        ("fig9",),
        _capacity_monotone,
    ),
    Criterion(
        "ideal-lo-bounds-sizes",
        "IDEAL-LO bounds LH-Cache, and Alloy within 2%, at every size "
        "(Figure 9)",
        ("fig9",),
        _ideal_lo_bounds_sizes,
    ),
    Criterion(
        "other-workloads-ordering",
        "Alloy >= 0.98x SRAM-Tag and > LH-Cache on other workloads "
        "(Figure 11)",
        ("fig11",),
        _other_workloads_ordering,
    ),
    Criterion(
        "lh-deoptimization-trade",
        "random and 1-way LH-Cache cut hit latency; 1-way does not raise "
        "hit rate (Table 1)",
        ("table1",),
        _lh_deoptimization_trade,
    ),
    Criterion(
        "workloads-calibrated",
        "perfect L3 helps every workload, mcf_r most; MPKI within 10% "
        "(Table 3)",
        ("table3",),
        _workloads_calibrated,
    ),
    Criterion(
        "burst8-cheap",
        "power-of-two burst restriction costs only a little (Section 6.5)",
        ("burst8",),
        _burst8_cheap,
    ),
    Criterion(
        "twoway-not-worth-it",
        "two-way Alloy pays in latency without a decisive win (Section 6.7)",
        ("twoway",),
        _twoway_not_worth_it,
    ),
    Criterion(
        "room-ladder",
        "MAP-I <= Perfect <= IDEAL-LO <= NoTagOverhead (Table 7)",
        ("table7",),
        _improvement_ladder,
    ),
    Criterion(
        "victim-buffer-cheap",
        "a 64-entry victim buffer keeps the hit rate for 4.5 KB of SRAM "
        "(extension)",
        ("victim-cache",),
        _victim_buffer_cheap,
    ),
    Criterion(
        "open-page-row-hits",
        "open pages give row hits and no slower hits than closed "
        "(extension)",
        ("page-policy",),
        _open_page_row_hits,
    ),
    Criterion(
        "mlp-keeps-lh",
        "more MSHRs cost LH-Cache at most 0.05 speedup (extension)",
        ("mlp-sweep",),
        _mlp_keeps_lh,
    ),
)


def run(quick: bool = False) -> ExperimentResult:
    # Imported here to avoid a registry <-> scorecard import cycle.
    from repro.experiments.registry import run_experiment

    needed = sorted({e for c in CRITERIA for e in c.experiments})
    results = {e: run_experiment(e, quick=quick) for e in needed}

    card = ExperimentResult(
        experiment_id="scorecard",
        title="Reproduction scorecard (paper-claim shape checks)",
        headers=["criterion", "verdict", "claim"],
    )
    passed = 0
    for criterion in CRITERIA:
        ok = criterion.check(results)
        passed += ok
        card.add_row(criterion.name, "PASS" if ok else "FAIL", criterion.claim)
    card.add_note(f"{passed}/{len(CRITERIA)} criteria passed")
    if quick:
        card.add_note(
            "quick mode uses short traces; borderline criteria can flip — "
            "full mode is the committed record, experiments_full.txt"
        )
    return card
