"""The job executor: one fan-out loop for every way the simulator runs.

This is the machinery that used to live inside
:func:`repro.sim.parallel.run_sweep`, factored out so that *all* execution
— ad-hoc sweeps, figure/table experiments, ``repro explore`` rounds — goes
through one resumable entry point:

* :func:`submit_job` — execute a :class:`~repro.jobs.manager.Job`. Cells
  already checkpointed in the job's journal are served without simulation;
  remaining cells are consulted against the persistent result cache and
  then executed (in-process when ``max_workers=1``, else on the shared
  persistent process pool from :mod:`repro.sim.parallel`, with the
  zero-copy shared-workload fan-out). Every completion is appended to the
  journal *before* the loop moves on, so a crash — including a hard
  ``SIGKILL`` of a worker that poisons the pool — loses at most in-flight
  cells. The returned :class:`~repro.sim.parallel.SweepReport` is
  bit-identical (modulo wall-clock telemetry) whether the job ran
  uninterrupted or across any number of resumes.
* :func:`resume_job` — reopen a job by id or name and finish it.

Crash-injection hook (tests + the CI interrupted-resume smoke): setting
``REPRO_TEST_KILL_CELL=<design>/<benchmark>`` makes the pool worker that
picks up that cell ``SIGKILL`` itself, which surfaces to the parent as
:class:`~concurrent.futures.process.BrokenProcessPool` — the exact failure
mode the journal exists to survive.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.jobs.journal import JobJournal
from repro.jobs.manager import Job, JobRunLock, cell_to_dict, open_job
from repro.sim import parallel as _par
from repro.sim.parallel import CellResult, ResultCache, SweepCell, SweepReport
from repro.sim.results import SimResult
from repro.workloads.arena import (
    SharedWorkloadHandle,
    acquire_shared_workload,
    get_workload_arena,
    release_shared_workload,
)

#: Optional per-cell callback: called with each newly-executed CellResult
#: (not journal/cache hits), after it has been journaled.
Progress = Callable[[CellResult], None]


def submit_job(
    job: Job,
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    progress: Optional[Progress] = None,
    on_cell: Optional[Progress] = None,
) -> SweepReport:
    """Execute (or finish) a job; see the module docstring.

    While a journaled job runs, its directory holds a shared advisory run
    lock (:class:`repro.jobs.manager.JobRunLock`), so a concurrent
    ``repro cache prune`` cannot delete the journal mid-resume.
    ``on_cell`` (unlike ``progress``) fires for *every* completed cell —
    journal replays and cache hits included — in completion order; the
    serve layer streams these to clients incrementally.
    """
    journal = job.journal()
    lock = (
        JobRunLock(job.directory).acquire()
        if job.directory is not None
        else None
    )
    try:
        return _execute_cells(
            job.cells,
            max_workers=max_workers,
            cache=cache,
            use_cache=use_cache,
            journal=journal,
            progress=progress,
            on_cell=on_cell,
        )
    finally:
        if lock is not None:
            lock.release()
        if journal is not None:
            journal.close()


def resume_job(
    ref: str,
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    progress: Optional[Progress] = None,
    cache_dir=None,
    on_cell: Optional[Progress] = None,
) -> SweepReport:
    """Reopen a job by id or name and run whatever its journal is missing."""
    return submit_job(
        open_job(ref, cache_dir=cache_dir),
        max_workers=max_workers,
        cache=cache,
        use_cache=use_cache,
        progress=progress,
        on_cell=on_cell,
    )


def _execute_cells(
    cells: Sequence[SweepCell],
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    journal: Optional[JobJournal] = None,
    progress: Optional[Progress] = None,
    on_cell: Optional[Progress] = None,
) -> SweepReport:
    """The fan-out loop behind :func:`submit_job` (and ``run_sweep``).

    Serving order per cell: journal -> result cache -> execute. Cells the
    journal already covers are *not* re-journaled; cache hits and fresh
    executions are appended so the journal converges to a complete record
    of the job. Duplicate cells (same content key) are simulated once and
    fanned back to every occurrence, exactly as before the refactor.
    """
    cells = list(cells)
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if cache is None:
        cache = _par.get_result_cache()
    started = time.perf_counter()

    def _emit(slot: CellResult) -> None:
        if on_cell is not None:
            on_cell(slot)

    completed: Dict[str, tuple] = journal.load() if journal is not None else {}
    journaled = set(completed)
    slots: List[Optional[CellResult]] = [None] * len(cells)
    pending: Dict[str, List[int]] = {}
    cell_by_key: Dict[str, SweepCell] = {}

    def _checkpoint(key: str, result: SimResult, telemetry: Dict) -> None:
        if journal is not None and key not in journaled:
            journal.record(
                key,
                result,
                telemetry,
                cell=_brief(cell_by_key[key]),
            )
            journaled.add(key)

    for index, cell in enumerate(cells):
        key = cell.key()
        cell_by_key.setdefault(key, cell)
        entry = completed.get(key)
        if entry is None:
            entry = cache.get_entry(key) if use_cache else None
            if entry is not None:
                _checkpoint(key, entry[0], entry[1])
        if entry is not None:
            result, telemetry = entry
            slots[index] = _par._cell_result(
                cell, result, telemetry, from_cache=True
            )
            _emit(slots[index])
        else:
            pending.setdefault(key, []).append(index)

    def _finish(key: str, result: SimResult, telemetry: Dict) -> None:
        _checkpoint(key, result, telemetry)
        first = True
        for index in pending[key]:
            slots[index] = _par._cell_result(
                cells[index], result, telemetry, from_cache=not first
            )
            first = False
            _emit(slots[index])
        if progress is not None:
            progress(slots[pending[key][0]])

    workloads_unique = len(
        {
            cells[indices[0]].workload_params().key()
            for indices in pending.values()
        }
    )
    parent_builds = 0
    parent_trace_seconds = 0.0

    if pending and max_workers == 1:
        for key, indices in pending.items():
            cell = cells[indices[0]]
            result, telemetry = _par._execute_cell(
                cell, trace_dir=cache.trace_dir
            )
            if use_cache:
                cache.put(key, result, telemetry, _par._cell_describe(cell))
            _finish(key, result, telemetry)
    elif pending:
        persist = use_cache and cache.persist
        handles: Dict[str, SharedWorkloadHandle] = {}
        acquired: List[str] = []
        futures: Dict[Future, str] = {}
        remaining: Set[Future] = set()

        def _collect(done) -> None:
            for future in done:
                remaining.discard(future)
                key = futures[future]
                result, telemetry = future.result()
                if use_cache:
                    # Workers persisted to disk already; adopt into the
                    # parent's memory tier without a re-read.
                    cache.remember(key, result, telemetry)
                _finish(key, result, telemetry)

        try:
            pool = _par._get_pool(max_workers)
            arena = get_workload_arena(cache.trace_dir)
            for key, indices in pending.items():
                # Report cells that finished while the parent was
                # building later rows' traces.
                _collect([f for f in remaining if f.done()])
                cell = cells[indices[0]]
                params = cell.workload_params()
                wkey = params.key()
                handle = handles.get(wkey)
                if handle is None:
                    workload, trace_tel = arena.fetch(params)
                    parent_trace_seconds += trace_tel["trace_build_seconds"]
                    if trace_tel["trace_source"] == "built":
                        parent_builds += 1
                    handle = acquire_shared_workload(wkey, workload)
                    handles[wkey] = handle
                    acquired.append(wkey)
                future = pool.submit(
                    _par._worker,
                    cell,
                    str(cache.directory),
                    persist,
                    handle,
                )
                futures[future] = key
                remaining.add(future)
            while remaining:
                done, _ = wait(remaining, return_when=FIRST_COMPLETED)
                _collect(done)
        except BrokenProcessPool:
            # A worker died mid-flight; the pool is poisoned. Drop it so
            # the next sweep starts clean. Cells journaled before the
            # crash survive; a resume replays them and re-runs the rest.
            _par.shutdown_worker_pool()
            raise
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        finally:
            for wkey in acquired:
                release_shared_workload(wkey)

    executed = [slot for slot in slots if slot is not None]
    workloads_built = parent_builds + sum(
        1
        for c in executed
        if not c.from_cache and c.trace_source == "built"
    )
    return SweepReport(
        cells=executed,
        max_workers=max_workers,
        elapsed_seconds=time.perf_counter() - started,
        workloads_unique=workloads_unique if pending else 0,
        workloads_built=workloads_built,
        parent_trace_seconds=parent_trace_seconds,
    )


def _brief(cell: SweepCell) -> Dict:
    """Compact cell echo for journal records (config omitted: the manifest
    has it in full and the key pins it)."""
    data = cell_to_dict(cell)
    data.pop("config", None)
    return data
