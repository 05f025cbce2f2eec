"""Experiment registry: paper artifact id -> runner, plus the batch executor
used by the CLI (whole experiments fan out over worker processes; each
experiment's inner (design x benchmark) grid additionally goes through
:func:`repro.sim.parallel.run_sweep`)."""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Tuple

from repro.experiments import (
    ablations,
    energy,
    extensions,
    overheads,
    scorecard,
    fig1,
    fig3,
    fig4,
    fig6,
    fig8,
    fig9,
    fig10,
    fig11,
    table1,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.report import ExperimentResult

Runner = Callable[[bool], ExperimentResult]

EXPERIMENTS: Dict[str, Runner] = {
    "fig1": fig1.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig6": fig6.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "table1": table1.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "burst8": ablations.run_burst8,
    "twoway": ablations.run_twoway,
    "psl-sweep": extensions.run_psl_sweep,
    "mact-sweep": extensions.run_mact_sweep,
    "lh-replacement": extensions.run_lh_replacement,
    "mlp-sweep": extensions.run_mlp_sweep,
    "victim-cache": extensions.run_victim_cache,
    "page-policy": extensions.run_page_policy,
    "energy": energy.run,
    "overheads": overheads.run,
    "scorecard": scorecard.run,
}


def get_experiment(experiment_id: str) -> Runner:
    """Look up a runner; raises ``KeyError`` with the known ids."""
    key = experiment_id.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(experiment_id: str, quick: bool = False) -> ExperimentResult:
    """Run one experiment by paper artifact id.

    The run is wrapped in :func:`repro.experiments.common.experiment_job`,
    so its sweeps land as named, journaled jobs (``fig4``,
    ``table1-quick``, …) that a killed run resumes from.
    """
    from repro.experiments.common import experiment_job

    name = experiment_id.lower() + ("-quick" if quick else "")
    with experiment_job(name):
        return get_experiment(experiment_id)(quick)


def _run_one(args: Tuple[str, bool]) -> Tuple[str, ExperimentResult, float]:
    """Worker entry point: run one experiment, return (id, result, seconds)."""
    experiment_id, quick = args
    started = time.time()
    result = run_experiment(experiment_id, quick=quick)
    return experiment_id, result, time.time() - started


def _run_in_worker(args: Tuple[str, bool]) -> Tuple[str, ExperimentResult, float]:
    """Executor entry point: :func:`_run_one`, then shut down the sweep pool
    the experiment may have started. A worker process exits only once its
    children have, and the pool's own ``atexit`` hook runs after that wait.
    """
    from repro.sim.parallel import shutdown_worker_pool

    try:
        return _run_one(args)
    finally:
        shutdown_worker_pool()


def run_experiments(
    experiment_ids: Iterable[str],
    quick: bool = False,
    jobs: int = 1,
) -> List[Tuple[str, ExperimentResult, float]]:
    """Run several experiments, serially or over a process pool.

    Returns ``(id, result, seconds)`` triples in the requested order.
    Experiment-level parallelism composes with the per-sweep executor:
    each worker's inner sweeps still consult the shared on-disk cache.
    """
    work = [(experiment_id, quick) for experiment_id in experiment_ids]
    if jobs <= 1 or len(work) == 1:
        return [_run_one(item) for item in work]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Executor workers are not daemonic, so an experiment can still fan
    # its own sweeps out over a pool (REPRO_JOBS > 1).
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(work)),
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        return list(pool.map(_run_in_worker, work))
