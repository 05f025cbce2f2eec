"""Extension studies beyond the paper's figures.

Three sensitivity sweeps that probe the design choices DESIGN.md calls out:

* ``psl-sweep`` — how expensive may a miss predictor's lookup be before it
  stops paying? Sweeps the Alloy+MissMap serialization latency from 0 to 48
  cycles. At 0 it behaves like a perfect predictor; at the paper's 24-cycle
  L3 embedding it loses to no-prediction (generalizes Figure 6).
* ``mact-sweep`` — MAP-I accuracy and performance vs MACT size (16 to 1024
  entries), justifying the paper's 256-entry / 96-bytes-per-core choice.
* ``lh-replacement`` — the LH-Cache under DIP / LRU / NRU / random
  replacement, extending Table 1's replacement de-optimization.
* ``mlp-sweep`` — sensitivity to the core's memory-level parallelism
  (MSHRs per core). Our default core blocks on reads, which compresses
  absolute speedups relative to the paper's out-of-order model; this sweep
  brackets the effect. Dependent (pointer-chase) reads serialize even with
  free MSHRs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cache.missmap import MissMap
from repro.cache.replacement import make_policy
from repro.core.predictors import MapIPredictor
from repro.dramcache.alloy import AlloyCacheDesign
from repro.dramcache.lh_cache import LHCacheDesign
from repro.experiments.common import design_geomean, improvement_pct, reads_for, sweep
from repro.experiments.report import ExperimentResult
from repro.sim.config import SystemConfig
from repro.sim.runner import baseline_result, geometric_mean, run_design
from repro.workloads.spec import build_workload

#: Workloads used by the extension sweeps (a representative subset keeps
#: three-way sweeps affordable).
SWEEP_BENCHMARKS = ("mcf_r", "omnetpp_r", "sphinx_r", "libquantum_r")


def _sweep_custom(builder, config: SystemConfig, quick: bool):
    """Geomean speedup + mean stats of a custom design over the subset."""
    reads = reads_for(quick)
    speedups = []
    results = []
    for benchmark in SWEEP_BENCHMARKS:
        base = baseline_result(benchmark, config, reads)
        workload = build_workload(
            benchmark,
            num_cores=config.num_cores,
            reads_per_core=reads,
            capacity_scale=config.capacity_scale,
        )
        result = run_design(builder, workload, config)
        speedups.append(result.speedup_vs(base))
        results.append(result)
    return geometric_mean(speedups), results


def run_psl_sweep(quick: bool = False) -> ExperimentResult:
    """Miss-predictor serialization latency sweep (Alloy + MissMap)."""
    result = ExperimentResult(
        experiment_id="psl-sweep",
        title="Alloy+MissMap vs predictor serialization latency (extension)",
        headers=["psl_cycles", "improvement_pct", "hit_latency"],
    )
    latencies = (0, 24) if quick else (0, 8, 16, 24, 36, 48)
    for psl in latencies:
        config = replace(SystemConfig(), missmap_latency=psl)

        def builder(cfg, stacked, memory, schedule):
            return AlloyCacheDesign(cfg, stacked, memory, schedule, predictor=MissMap())

        gmean, results = _sweep_custom(builder, config, quick)
        lat = sum(r.avg_hit_latency for r in results) / len(results)
        result.add_row(psl, improvement_pct(gmean), lat)
    result.add_note(
        "expected shape: monotone decrease with PSL; a perfect-information "
        "predictor is only worth having if its lookup is nearly free"
    )
    return result


def run_mact_sweep(quick: bool = False) -> ExperimentResult:
    """MAP-I table-size sweep."""
    result = ExperimentResult(
        experiment_id="mact-sweep",
        title="MAP-I accuracy and speedup vs MACT entries (extension)",
        headers=["entries", "bytes_per_core", "accuracy_pct", "improvement_pct"],
    )
    sizes = (2, 256) if quick else (2, 8, 64, 256, 1024)
    config = SystemConfig()
    for entries in sizes:

        def builder(cfg, stacked, memory, schedule, entries=entries):
            predictor = MapIPredictor(cfg.num_cores, entries=entries)
            return AlloyCacheDesign(
                cfg, stacked, memory, schedule, predictor=predictor
            )

        gmean, results = _sweep_custom(builder, config, quick)
        accuracies = [r.predictor_accuracy() or 0.0 for r in results]
        result.add_row(
            entries,
            entries * 3 / 8,
            100.0 * sum(accuracies) / len(accuracies),
            improvement_pct(gmean),
        )
    result.add_note(
        "expected shape: accuracy saturates well before 1024 entries — the "
        "paper's 256-entry (96 B/core) table captures the PC correlation"
    )
    return result


def run_lh_replacement(quick: bool = False) -> ExperimentResult:
    """LH-Cache replacement-policy ablation."""
    result = ExperimentResult(
        experiment_id="lh-replacement",
        title="LH-Cache replacement policies (extension of Table 1)",
        headers=["policy", "improvement_pct", "hit_rate_pct", "hit_latency"],
    )
    config = SystemConfig()
    for policy_name in ("dip", "lru", "nru", "random"):

        def builder(cfg, stacked, memory, schedule, policy_name=policy_name):
            return LHCacheDesign(
                cfg, stacked, memory, schedule, policy=make_policy(policy_name)
            )

        gmean, results = _sweep_custom(builder, config, quick)
        hit = sum(r.read_hit_rate for r in results) / len(results)
        lat = sum(r.avg_hit_latency for r in results) / len(results)
        result.add_row(policy_name, improvement_pct(gmean), hit * 100.0, lat)
    result.add_note(
        "expected shape: random replacement trades a few hit-rate points "
        "for lower hit latency (no update traffic) and comes out ahead — "
        "Table 1's counterintuitive result"
    )
    return result


def run_mlp_sweep(quick: bool = False) -> ExperimentResult:
    """Core memory-level-parallelism sweep (MSHRs per core)."""
    result = ExperimentResult(
        experiment_id="mlp-sweep",
        title="Sensitivity to core MLP: speedups vs MSHRs per core (extension)",
        headers=["mshrs", "lh_cache", "sram_tag", "alloy_map_i"],
    )
    mshr_values = (1, 4) if quick else (1, 2, 4, 8)
    designs = ("lh-cache", "sram-tag", "alloy-map-i")
    for mshrs in mshr_values:
        config = replace(SystemConfig(), mshrs_per_core=mshrs)
        results = sweep(designs, SWEEP_BENCHMARKS, quick=quick, config=config)
        result.add_row(mshrs, *(design_geomean(results, d) for d in designs))
    result.add_note(
        "interpretation: blocking cores (mshrs=1) make hit latency dominate "
        "(the Alloy Cache's regime); idealized MLP hides latency and lets "
        "hit rate dominate (SRAM-Tag catches up). The paper's out-of-order "
        "cores behave between these extremes: dependent chains and finite "
        "windows keep latency relevant, which is why its Alloy lead is "
        "larger than our blocking-core result and persists under OoO"
    )
    return result


def run_victim_cache(quick: bool = False) -> ExperimentResult:
    """Victim-buffer extension: recovering conflict misses without latency.

    The paper's closing invitation (Section 6.7): reduce the direct-mapped
    cache's conflict misses while "paying close attention to the impact on
    hit latency". A small SRAM victim buffer does exactly that.
    """
    result = ExperimentResult(
        experiment_id="victim-cache",
        title="Alloy Cache with an SRAM victim buffer (extension)",
        headers=[
            "design",
            "improvement_pct",
            "hit_rate_pct",
            "hit_latency",
            "sram_bytes",
        ],
    )
    variants = (("alloy-map-i", 0), ("alloy-victim16", 16), ("alloy-victim64", 64))
    results = sweep([name for name, _ in variants], SWEEP_BENCHMARKS, quick=quick)
    for name, entries in variants:
        runs = [results[(name, benchmark)][1] for benchmark in SWEEP_BENCHMARKS]
        result.add_row(
            name,
            improvement_pct(design_geomean(results, name)),
            100.0 * sum(r.read_hit_rate for r in runs) / len(runs),
            sum(r.avg_hit_latency for r in runs) / len(runs),
            entries * 72,
        )
    result.add_note(
        "expected shape: the buffer absorbs ping-ponging conflict pairs — "
        "hit rate rises at nearly unchanged hit latency, unlike the 2-way "
        "variant which pays a longer burst on every access"
    )
    return result


def run_page_policy(quick: bool = False) -> ExperimentResult:
    """Row-buffer policy ablation: is open-page load-bearing for the Alloy?

    The Alloy Cache's 28-consecutive-sets-per-row layout only pays off
    because the stacked DRAM keeps rows open (CAS-only re-access). Closing
    the page after every access removes that benefit without touching
    anything else.
    """
    result = ExperimentResult(
        experiment_id="page-policy",
        title="Stacked-DRAM page policy ablation (extension)",
        headers=["policy", "improvement_pct", "hit_latency", "row_hit_rate_pct"],
    )
    for policy in ("open", "closed"):
        config = replace(SystemConfig(), stacked_page_policy=policy)
        results = sweep(["alloy-map-i"], SWEEP_BENCHMARKS, quick=quick, config=config)
        runs = [results[("alloy-map-i", benchmark)][1] for benchmark in SWEEP_BENCHMARKS]
        result.add_row(
            policy,
            improvement_pct(design_geomean(results, "alloy-map-i")),
            sum(r.avg_hit_latency for r in runs) / len(runs),
            100.0 * sum(r.stacked_row_hit_rate for r in runs) / len(runs),
        )
    result.add_note(
        "expected shape: closed-page forfeits the direct-mapped layout's "
        "row-buffer hits (Table 1's indirect benefit), raising hit latency "
        "toward the ACT+CAS floor"
    )
    return result
