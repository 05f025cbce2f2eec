"""Table 3: workload characteristics (perfect-L3 speedup, MPKI, footprint)."""

from __future__ import annotations

from repro.experiments.common import reads_for, sweep
from repro.experiments.report import ExperimentResult
from repro.sim.config import SystemConfig
from repro.units import pretty_size
from repro.workloads.spec import PRIMARY_BENCHMARKS, build_workload


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table3",
        title="Benchmark characteristics (rate-8)",
        headers=[
            "workload",
            "perfect_l3_speedup",
            "paper_speedup",
            "mpki",
            "paper_mpki",
            "footprint",
            "paper_footprint",
        ],
    )
    config = SystemConfig()
    reads = reads_for(quick)
    # perfect-l3 has no batch kernel: its cells run on the interpreter.
    speedups = sweep(["perfect-l3"], PRIMARY_BENCHMARKS, quick=quick, config=config)
    for name, spec in PRIMARY_BENCHMARKS.items():
        s, _ = speedups[("perfect-l3", name)]
        workload = build_workload(
            name,
            num_cores=config.num_cores,
            reads_per_core=reads,
            capacity_scale=config.capacity_scale,
        )
        result.add_row(
            name,
            s,
            spec.paper_perfect_l3_speedup,
            workload.mpki,
            spec.paper_mpki,
            pretty_size(
                sum(c.region_bytes for c in spec.pattern.components)
                * config.num_cores
            ),
            pretty_size(spec.paper_footprint_bytes),
        )
    result.add_note(
        "footprint column is the nominal (unscaled) region each rate-8 "
        "workload would touch given unbounded trace length"
    )
    return result
