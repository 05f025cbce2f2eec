"""Shared sweep machinery for the experiment modules.

``quick`` mode shortens traces so a full experiment run (or the quick
scorecard) stays fast; full mode uses the calibration-length traces behind
the committed record, ``experiments_full.txt``, and EXPERIMENTS.md.

Every experiment's (design x benchmark) grid goes through the parallel
sweep executor in :mod:`repro.sim.parallel`: set ``REPRO_JOBS=N`` (or pass
``max_workers``) to fan cells out over N worker processes, and completed
cells persist in the on-disk result cache so re-running a figure resumes
instead of resimulating.

When the registry runs an experiment it wraps the call in
:func:`experiment_job`, so every grid lands as a *named, journaled job*
(``fig4``, ``table1-quick``, …) under ``.repro_cache/jobs/`` — a killed
figure run resumes from its journal, and ``repro jobs list`` shows which
paper artifacts have complete result sets.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.config import SystemConfig
from repro.sim.parallel import default_workers, make_cells, run_sweep
from repro.sim.results import SimResult
from repro.sim.runner import geometric_mean
from repro.workloads.spec import PRIMARY_BENCHMARKS, SECONDARY_BENCHMARKS

#: Reads per core in full / quick experiment modes.
FULL_READS = 6000
QUICK_READS = 1500


def reads_for(quick: bool) -> int:
    return QUICK_READS if quick else FULL_READS


#: The job name experiment sweeps run under (None = plain ephemeral sweep).
_EXPERIMENT_JOB: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_experiment_job", default=None
)


@contextmanager
def experiment_job(name: str) -> Iterator[None]:
    """Route every :func:`sweep` inside the block through a named job.

    Job ids are content-keyed, so one experiment issuing several distinct
    grids under the same name yields several distinct (resumable) jobs.
    """
    token = _EXPERIMENT_JOB.set(name)
    try:
        yield
    finally:
        _EXPERIMENT_JOB.reset(token)


def current_experiment_job() -> Optional[str]:
    return _EXPERIMENT_JOB.get()


def primary_names() -> List[str]:
    return list(PRIMARY_BENCHMARKS)


def secondary_names() -> List[str]:
    return list(SECONDARY_BENCHMARKS)


def sweep(
    designs: Iterable[str],
    benchmarks: Iterable[str],
    quick: bool = False,
    config: Optional[SystemConfig] = None,
    max_workers: Optional[int] = None,
    warmup_fraction: float = 0.25,
) -> Dict[Tuple[str, str], Tuple[float, SimResult]]:
    """Run every (design, benchmark) pair; returns speedups + raw results.

    Cells fan out over ``max_workers`` processes (default: ``REPRO_JOBS``
    env var, or 1). The ``no-cache`` baseline each speedup normalizes
    against joins the grid so it is simulated (or cache-served) exactly
    once per benchmark.
    """
    config = config or SystemConfig()
    reads = reads_for(quick)
    designs = list(designs)
    benchmarks = list(benchmarks)
    grid = designs if "no-cache" in designs else ["no-cache", *designs]
    cells = make_cells(
        grid,
        benchmarks,
        config=config,
        reads_per_core=reads,
        warmup_fraction=warmup_fraction,
    )
    workers = max_workers or default_workers()
    job_name = _EXPERIMENT_JOB.get()
    if job_name:
        from repro.jobs import create_job, submit_job

        report = submit_job(create_job(job_name, cells), max_workers=workers)
    else:
        report = run_sweep(cells, max_workers=workers)
    out: Dict[Tuple[str, str], Tuple[float, SimResult]] = {}
    for benchmark in benchmarks:
        base = report.result("no-cache", benchmark)
        for design in designs:
            result = report.result(design, benchmark)
            out[(design, benchmark)] = (result.speedup_vs(base), result)
    return out


def design_geomean(
    results: Dict[Tuple[str, str], Tuple[float, SimResult]],
    design: str,
) -> float:
    """Geometric-mean speedup of one design across all swept benchmarks."""
    values = [s for (d, _), (s, _) in results.items() if d == design]
    return geometric_mean(values)


def improvement_pct(speedup_value: float) -> float:
    """Speedup expressed as the paper's percentage improvement."""
    return (speedup_value - 1.0) * 100.0
