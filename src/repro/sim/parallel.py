"""Parallel sweep executor: persistent result cache + shared-workload fabric.

Every paper artifact is a sweep over (design x benchmark x config) cells.
This module turns that grid into an explicit work list and provides:

* :class:`SweepCell` — one fully-specified simulation: design name,
  benchmark, frozen :class:`~repro.sim.config.SystemConfig`, trace length,
  warmup fraction and seed.
* :class:`ResultCache` — a two-tier cache. The in-memory tier replaces the
  old module-global baseline dict in :mod:`repro.sim.runner`; the on-disk
  tier persists every completed cell as JSON under ``.repro_cache/`` so a
  crashed or repeated sweep resumes from completed cells. Keys are a SHA-256
  over the *content* of the cell — design, benchmark, seed, reads_per_core,
  warmup_fraction and every field of the frozen ``SystemConfig`` (timings
  included) — plus a schema version and the package version, so changing any
  knob or upgrading the model invalidates the entry.
* :func:`run_sweep` — a thin client of the resumable job layer
  (:mod:`repro.jobs`): cells are wrapped in an ephemeral (journal-less)
  job and executed by :func:`repro.jobs.engine.submit_job`, the single
  fan-out loop shared with named jobs and ``repro explore``. Cells fan
  out over a lazily-created **persistent** process pool (``max_workers=1``
  runs in-process through the *same* cell function, so serial and
  parallel paths are bit-identical). The pool is reused across
  ``run_sweep`` calls in one process — ``repro report`` issues dozens of
  sweeps and pays pool startup once.
* **Shared-workload fabric** — all designs in a grid row consume the same
  workload, so the parent materializes each unique workload exactly once
  (through the content-keyed :mod:`repro.workloads.arena`), packs its
  arrays into a ``multiprocessing.shared_memory`` segment, and ships
  workers a small picklable handle instead of regenerating — or pickling —
  megabytes of trace arrays per cell. Workers memoize attachments, so a
  workload crosses the process boundary once per worker, not once per
  cell. Segments are torn down in a ``finally`` (plus an ``atexit``
  backstop in the arena module), so nothing survives in ``/dev/shm`` on
  success, exception, or Ctrl-C.
* :class:`SweepReport` — per-cell telemetry (sim wall seconds, trace-build
  seconds, trace source, heap events, events/sec, cache hit/miss) plus
  sweep-level amortization: unique workloads vs generator runs vs cells.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default ``.repro_cache`` in the
  current working directory).
* ``REPRO_CACHE=0`` — disable the on-disk result tier (memory tier stays
  on); sweeps through such a cache keep their traces in memory too.
* ``REPRO_TRACE_CACHE=0`` — disable the on-disk ``.npz`` trace arenas
  (see :mod:`repro.workloads.arena`).
* ``REPRO_JOBS`` — default worker count for the experiment-layer sweeps.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.fileio import atomic_write
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.workloads.arena import (
    TRACE_SUBDIR,
    SharedWorkloadHandle,
    WorkloadArena,
    WorkloadParams,
    attach_workload,
    get_workload_arena,
)

#: Bump when the cache file layout (not the simulated content) changes.
#: 2: per-stage latency attribution fields on SimResult (ISSUE 2).
CACHE_SCHEMA = 2


#: The sorted :class:`SimResult` field names. Part of every cache key, so
#: any change to the result shape — new breakdown fields, renames —
#: automatically invalidates stale ``.repro_cache/`` entries instead of
#: deserializing into wrong-shaped results via ``from_dict``'s lenient
#: unknown/missing-key handling.
RESULT_SIGNATURE: Tuple[str, ...] = tuple(sorted(f.name for f in fields(SimResult)))

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


def default_cache_dir() -> Path:
    """Cache directory honouring the ``REPRO_CACHE_DIR`` override."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def cache_enabled() -> bool:
    """Whether the on-disk tier is enabled (``REPRO_CACHE=0`` disables)."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def shared_traces_enabled() -> bool:
    """Always True: parallel sweeps always share workloads through memory.
    Kept for the benchmark's knob report (``perfbench/common.py``'s
    ``resolved_knobs``), which still reads it."""
    return True


def default_workers() -> int:
    """Worker count for experiment sweeps (``REPRO_JOBS``, default 1)."""
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        print(
            f"repro: REPRO_JOBS={raw!r} is not an integer; using 1 worker",
            file=sys.stderr,
        )
        return 1


# ----------------------------------------------------------------------
# Sweep cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One fully-specified simulation in a sweep grid."""

    design: str
    benchmark: str
    config: SystemConfig = field(default_factory=SystemConfig)
    reads_per_core: int = 12000
    warmup_fraction: float = 0.25
    seed: int = 1

    def key(self) -> str:
        """Content hash identifying this cell in the persistent cache.

        Hashed once per instance: every field is frozen, and a job reads
        each cell's key several times (journal, cache, in-flight claims,
        its job id). The digest lives in the instance ``__dict__``, not in
        a field, so ``==``, ``hash``, ``asdict`` and ``replace`` ignore it,
        while ``copy`` and pickling (a cell shipped to a pool worker)
        carry it along.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = cell_key(
                self.design,
                self.benchmark,
                self.config,
                self.reads_per_core,
                self.warmup_fraction,
                self.seed,
            )
            object.__setattr__(self, "_key", key)
        return key

    def workload_params(self) -> WorkloadParams:
        """The content-keyed workload this cell consumes.

        The workload name is resolved (``gcc`` and ``gcc_r`` share one
        arena entry; mixes and ``trace:`` specs pass through validated),
        so every design in a grid row maps to the same key.
        """
        from repro.workloads.spec import resolve_workload

        return WorkloadParams(
            benchmark=resolve_workload(self.benchmark),
            num_cores=self.config.num_cores,
            reads_per_core=self.reads_per_core,
            capacity_scale=self.config.capacity_scale,
            seed=self.seed,
        )


def make_cells(
    designs: Iterable[str],
    benchmarks: Iterable[str],
    config: Optional[SystemConfig] = None,
    reads_per_core: int = 12000,
    warmup_fraction: float = 0.25,
    seed: int = 1,
) -> List[SweepCell]:
    """The full (design x benchmark) grid as a list of cells."""
    config = config or SystemConfig()
    return [
        SweepCell(
            design=design,
            benchmark=benchmark,
            config=config,
            reads_per_core=reads_per_core,
            warmup_fraction=warmup_fraction,
            seed=seed,
        )
        for benchmark in benchmarks
        for design in designs
    ]


def _config_dict(config: SystemConfig) -> Dict:
    """The frozen config flattened to JSON-safe primitives (recursively).

    ``engine`` is dropped: the batch engine is bit-exact with the
    interpreter, so cached results are valid regardless of which engine
    produced them and the cache key must not fragment on it.
    """
    flat = config.to_dict()
    flat.pop("engine", None)
    return flat


def cell_key(
    design: str,
    benchmark: str,
    config: SystemConfig,
    reads_per_core: int,
    warmup_fraction: float,
    seed: int,
) -> str:
    """SHA-256 content key over everything that determines a ``SimResult``.

    Includes every ``SystemConfig`` field (a partial key once caused stale
    baselines when sweeping ``mshrs_per_core``), ``warmup_fraction`` (the old
    in-memory baseline cache omitted it — see ISSUE 1), the package version
    so model changes invalidate old entries, and the sorted ``SimResult``
    field names (:data:`RESULT_SIGNATURE`) so result-shape changes do too.
    """
    from repro import __version__

    payload = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "result_fields": list(RESULT_SIGNATURE),
        "design": design.lower(),
        "benchmark": benchmark,
        "seed": seed,
        "reads_per_core": reads_per_core,
        "warmup_fraction": warmup_fraction,
        "config": _config_dict(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Persistent result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Two-tier (memory + JSON-on-disk) cache of completed simulation cells.

    Disk writes are atomic (write to a unique temp file, then ``os.replace``)
    so concurrent workers never expose torn files. Each entry stores the
    serialized :class:`SimResult` plus the telemetry of the run that produced
    it, so cache hits still report heap events.
    """

    def __init__(
        self,
        directory: Optional[Path] = None,
        persist: Optional[bool] = None,
    ) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.persist = cache_enabled() if persist is None else persist
        self._memory: Dict[str, Tuple[SimResult, Dict]] = {}

    # -- paths ----------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def arena(self) -> WorkloadArena:
        """The workload arena of sweeps through this cache.

        Its ``.npz`` trace arenas sit next to the cells, so ``repro cache``
        stats, prune and clear see them. A cache that writes nothing gets
        the process's memory-only arena and leaves every directory
        untouched.
        """
        if self.persist:
            return get_workload_arena(self.directory / TRACE_SUBDIR)
        return get_workload_arena(persist=False)

    # -- lookup ---------------------------------------------------------
    def in_memory(self, key: str) -> bool:
        """Whether ``key`` is in the memory tier: a lookup reading no file."""
        return key in self._memory

    def get(self, key: str) -> Optional[SimResult]:
        """Cached result for ``key`` (memory first, then disk), else None."""
        entry = self.get_entry(key)
        return entry[0] if entry else None

    def get_entry(self, key: str) -> Optional[Tuple[SimResult, Dict]]:
        """(result, telemetry-of-original-run) for ``key``, else None."""
        if key in self._memory:
            return self._memory[key]
        if self.persist:
            path = self._path(key)
            if path.exists():
                try:
                    data = json.loads(path.read_text())
                    result = SimResult.from_dict(data["result"])
                except (OSError, ValueError, KeyError, TypeError):
                    # Torn/stale file — or one a concurrent pruner deleted
                    # between exists() and read — is a miss; recompute.
                    return None
                telemetry = data.get("telemetry", {})
                self._memory[key] = (result, telemetry)
                return result, telemetry
        return None

    # -- store ----------------------------------------------------------
    def put(
        self,
        key: str,
        result: SimResult,
        telemetry: Optional[Dict] = None,
        describe: Optional[Dict] = None,
    ) -> None:
        """Store a completed cell in both tiers."""
        telemetry = telemetry or {}
        self._memory[key] = (result, telemetry)
        if self.persist:
            _write_cache_file(
                self._path(key), result, telemetry, describe or {}
            )

    def remember(
        self, key: str, result: SimResult, telemetry: Optional[Dict] = None
    ) -> None:
        """Adopt a completed cell into the memory tier only.

        For results another process already persisted (pool workers write
        their own cells to disk before returning) — the parent mirrors
        them without a redundant disk write or re-read.
        """
        self._memory[key] = (result, telemetry or {})

    def clear(self, disk: bool = True) -> None:
        """Drop the memory tier and (optionally) every on-disk entry."""
        self._memory.clear()
        if disk and self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing cleanup
                    pass

    def __len__(self) -> int:
        return len(self._memory)

    def __bool__(self) -> bool:
        # An empty cache must still be truthy: ``cache or default`` would
        # otherwise silently swap a caller's fresh cache for the shared one.
        return True


def _write_cache_file(
    path: Path, result: SimResult, telemetry: Dict, describe: Dict
) -> None:
    """Atomically persist one completed cell (concurrent-worker safe)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": CACHE_SCHEMA,
        "cell": describe,
        "telemetry": telemetry,
        "result": result.to_dict(),
    }
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=1))


_shared_caches: Dict[Tuple[str, bool], ResultCache] = {}


def get_result_cache() -> ResultCache:
    """The process-wide shared cache for the current env configuration.

    One instance per (directory, persist) pair so tests that repoint
    ``REPRO_CACHE_DIR`` get a fresh memory tier automatically.
    """
    key = (str(default_cache_dir()), cache_enabled())
    if key not in _shared_caches:
        _shared_caches[key] = ResultCache()
    return _shared_caches[key]


# ----------------------------------------------------------------------
# Cell execution (shared by the serial path and pool workers)
# ----------------------------------------------------------------------
def _execute_cell(
    cell: SweepCell,
    workload=None,
    trace_telemetry: Optional[Dict] = None,
    arena: Optional[WorkloadArena] = None,
) -> Tuple[SimResult, Dict]:
    """Run one cell and return (result, telemetry). Pure w.r.t. the cell:
    identical cells produce identical results in any process.

    With no prebuilt ``workload``, fetches through the content-keyed
    ``arena`` (memo -> ``.npz`` -> generate; default: the arena under
    ``REPRO_CACHE_DIR``). ``wall_seconds`` covers only the
    simulation; workload materialization is reported separately as
    ``trace_build_seconds`` / ``trace_source``.

    The engine is resolved by :class:`~repro.sim.system.System` like any
    other run. The engine that actually produced the result lands in
    telemetry as ``engine_used``; it never affects the result itself
    (bit-exact) so cache keys ignore the engine entirely.
    """
    from repro.sim.system import System

    if workload is None:
        if arena is None:
            arena = get_workload_arena()
        workload, trace_telemetry = arena.fetch(cell.workload_params())
    trace_telemetry = trace_telemetry or {
        "trace_source": "caller",
        "trace_build_seconds": 0.0,
    }
    started = time.perf_counter()
    system = System(
        cell.config,
        cell.design,
        workload,
        warmup_fraction=cell.warmup_fraction,
    )
    result = system.run()
    wall = time.perf_counter() - started
    telemetry = {
        "wall_seconds": wall,
        "heap_events": result.heap_events,
        "events_per_sec": result.heap_events / wall if wall > 0 else 0.0,
        "engine_used": system.engine_used,
        "trace_build_seconds": float(
            trace_telemetry.get("trace_build_seconds", 0.0)
        ),
        "trace_source": str(trace_telemetry.get("trace_source", "")),
    }
    return result, telemetry


def _cell_describe(cell: SweepCell) -> Dict:
    """Human-readable echo of the cell stored alongside cached results."""
    return {
        "design": cell.design,
        "benchmark": cell.benchmark,
        "seed": cell.seed,
        "reads_per_core": cell.reads_per_core,
        "warmup_fraction": cell.warmup_fraction,
        "config": _config_dict(cell.config),
    }


# -- worker side -------------------------------------------------------
#: Per-worker memo of attached shared workloads, by workload content key.
#: Entries hold (workload, segment) so the mapping outlives the parent's
#: unlink: on Linux the memory stays valid while mapped, which is what
#: lets a persistent pool reuse attachments across run_sweep calls.
_worker_attachments: Dict[str, Tuple[object, object]] = {}

#: FIFO cap on the attachment memo. Evicted segments are closed — safe
#: because the single-threaded worker only touches the entry it just
#: looked up, never an evicted one.
_WORKER_MEMO_CAP = 32


def _attach_cached(handle: SharedWorkloadHandle):
    """Worker-side attach with per-key memoization.

    Returns (workload, trace_telemetry). A memo hit costs nothing — the
    arrays are already mapped into this worker from a previous cell (or a
    previous sweep; content keys make reuse safe across segment names).
    """
    cached = _worker_attachments.get(handle.key)
    if cached is not None:
        return cached[0], {
            "trace_source": "shared-memo",
            "trace_build_seconds": 0.0,
        }
    started = time.perf_counter()
    workload, shm = attach_workload(handle)
    elapsed = time.perf_counter() - started
    while len(_worker_attachments) >= _WORKER_MEMO_CAP:
        _, old_shm = _worker_attachments.pop(next(iter(_worker_attachments)))
        try:
            old_shm.close()
        except OSError:  # pragma: no cover - racing cleanup
            pass
    _worker_attachments[handle.key] = (workload, shm)
    return workload, {
        "trace_source": "shared",
        "trace_build_seconds": elapsed,
    }


def _worker(
    cell: SweepCell,
    cache_dir: str,
    persist: bool,
    handle: SharedWorkloadHandle,
) -> Tuple[SimResult, Dict]:
    """Pool entry point: run the cell on the workload in the parent's
    shared-memory segment (zero-copy) and persist it before returning, so
    a crashed parent still finds the completed cell on the next run. The
    explicit ``cache_dir`` keeps forked workers honest when tests repoint
    ``REPRO_CACHE_DIR`` after the pool was spawned.
    """
    kill = os.environ.get("REPRO_TEST_KILL_CELL")
    if kill and kill == f"{cell.design}/{cell.benchmark}":
        # Crash-injection hook for the resume tests and the CI
        # interrupted-resume smoke: die exactly like a hard worker crash,
        # which the parent observes as BrokenProcessPool.
        os.kill(os.getpid(), signal.SIGKILL)
    workload, trace_telemetry = _attach_cached(handle)
    result, telemetry = _execute_cell(cell, workload, trace_telemetry)
    if persist:
        cache = ResultCache(Path(cache_dir), persist=True)
        cache.put(cell.key(), result, telemetry, _cell_describe(cell))
    return result, telemetry


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------
_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0
#: Serializes pool create/teardown: serve runs concurrent jobs on worker
#: threads, and an unguarded double-create would leak a whole pool.
_pool_lock = threading.Lock()


def _get_pool(max_workers: int) -> ProcessPoolExecutor:
    """The lazily-created pool, reused across ``run_sweep`` calls.

    Recreated only when the requested size changes (never shrunk while
    other threads may hold it — growth wins, so concurrent jobs requesting
    different sizes share the largest). Workers spawn on demand
    (ProcessPoolExecutor grows the pool per submit), so asking for 4
    workers to run 2 cells forks 2 processes.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is not None and _pool_size < max_workers:
            _pool.shutdown(wait=True, cancel_futures=True)
            _pool = None
            _pool_size = 0
        if _pool is None:
            _pool = ProcessPoolExecutor(max_workers=max_workers)
            _pool_size = max_workers
        return _pool


def shutdown_worker_pool() -> None:
    """Tear down the persistent pool (idempotent; atexit backstop).

    Also the recovery path after :class:`BrokenProcessPool` — the next
    sweep gets a fresh pool instead of the poisoned one.
    """
    global _pool, _pool_size
    with _pool_lock:
        pool, _pool, _pool_size = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_worker_pool)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """One executed (or cache-served) sweep cell plus its telemetry."""

    cell: SweepCell
    result: SimResult
    #: Wall-clock seconds this run spent simulating the cell: 0.0 when
    #: served from cache (see ``cached_wall_seconds``). Excludes trace build.
    wall_seconds: float
    heap_events: int
    #: This run's simulation rate (0.0 when served from cache).
    events_per_sec: float
    from_cache: bool
    #: Seconds this cell's executor spent materializing its workload
    #: (generator run, ``.npz`` load, or shared-memory attach); 0.0 when
    #: served from cache.
    trace_build_seconds: float = 0.0
    #: Where the workload came from: ``built`` (generators ran), ``memo``,
    #: ``npz``, ``shared`` (attached parent segment), ``shared-memo``
    #: (worker reused a prior attachment), or ``""`` for cache hits.
    trace_source: str = ""
    #: Engine that produced ``result``: ``"batch"`` or ``"interp"``
    #: (``""`` for cache entries written before engines were recorded).
    #: Purely telemetry — both engines are bit-exact, so the result and
    #: its cache key are engine-independent.
    engine_used: str = ""
    #: Wall-clock seconds of the original run that produced a cached
    #: ``result`` (0.0 for a cell simulated by this run).
    cached_wall_seconds: float = 0.0


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` learned about a grid of cells."""

    cells: List[CellResult]
    max_workers: int
    #: End-to-end wall-clock of the whole sweep (not the per-cell sum).
    elapsed_seconds: float
    #: Unique workload keys consumed by cells that actually ran.
    workloads_unique: int = 0
    #: How many times trace generators actually ran, anywhere (parent or
    #: workers). The fabric's whole point: equals ``workloads_unique`` on
    #: a cold cache, 0 on a warm one.
    workloads_built: int = 0
    #: Parent-side seconds spent materializing workloads before fan-out
    #: (zero on the serial path, where builds are attributed per cell).
    parent_trace_seconds: float = 0.0

    # -- aggregate telemetry -------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.from_cache)

    @property
    def cache_misses(self) -> int:
        return sum(1 for c in self.cells if not c.from_cache)

    @property
    def total_heap_events(self) -> int:
        return sum(c.heap_events for c in self.cells)

    @property
    def simulated_seconds(self) -> float:
        """Sum of per-cell simulation time (exceeds ``elapsed_seconds``
        when cells ran in parallel; counts only cells actually run)."""
        return sum(c.wall_seconds for c in self.cells if not c.from_cache)

    @property
    def trace_build_seconds(self) -> float:
        """Total workload-materialization time: parent-side builds plus
        whatever executors spent building/loading/attaching per cell."""
        return self.parent_trace_seconds + sum(
            c.trace_build_seconds for c in self.cells if not c.from_cache
        )

    @property
    def events_per_sec(self) -> float:
        simulated = self.simulated_seconds
        events = sum(c.heap_events for c in self.cells if not c.from_cache)
        return events / simulated if simulated > 0 else 0.0

    @property
    def engine_counts(self) -> Dict[str, int]:
        """Engine -> number of cells it produced (``""`` -> "unknown").

        Cache hits keep the engine of the run that populated the cache;
        entries persisted before engines were recorded count as unknown.
        """
        counts: Dict[str, int] = {}
        for c in self.cells:
            key = c.engine_used or "unknown"
            counts[key] = counts.get(key, 0) + 1
        return counts

    # -- grid accessors -------------------------------------------------
    def result(self, design: str, benchmark: str) -> SimResult:
        """The :class:`SimResult` for one grid cell (raises KeyError)."""
        for c in self.cells:
            if c.cell.design == design and c.cell.benchmark == benchmark:
                return c.result
        raise KeyError(f"no cell for ({design!r}, {benchmark!r})")

    def results(self) -> Dict[Tuple[str, str], SimResult]:
        """(design, benchmark) -> result for the whole grid."""
        return {
            (c.cell.design, c.cell.benchmark): c.result for c in self.cells
        }

    def speedups(
        self, baseline_design: str = "no-cache"
    ) -> Dict[Tuple[str, str], float]:
        """Per-cell speedup vs ``baseline_design`` on the same benchmark.

        Only defined when the baseline design is part of the sweep grid.
        """
        bases = {
            c.cell.benchmark: c.result
            for c in self.cells
            if c.cell.design == baseline_design
        }
        out: Dict[Tuple[str, str], float] = {}
        for c in self.cells:
            base = bases.get(c.cell.benchmark)
            if base is not None:
                out[(c.cell.design, c.cell.benchmark)] = c.result.speedup_vs(
                    base
                )
        return out

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """Telemetry table + summary lines (the ``repro sweep`` output)."""
        lines = [
            f"{'design':<16} {'benchmark':<12} {'cycles':>12} "
            f"{'hit_rate':>8} {'events':>9} {'ev/s':>10} "
            f"{'wall_s':>8} {'trace':>11} {'cache':>6}"
        ]
        for c in self.cells:
            lines.append(
                f"{c.cell.design:<16} {c.cell.benchmark:<12} "
                f"{c.result.cycles:>12.1f} "
                f"{c.result.read_hit_rate:>8.3f} "
                f"{c.heap_events:>9d} {c.events_per_sec:>10.0f} "
                f"{c.wall_seconds:>8.3f} "
                f"{c.trace_source or '-':>11} "
                f"{'hit' if c.from_cache else 'miss':>6}"
            )
        lines.append(
            f"-- {len(self.cells)} cells | workers={self.max_workers} | "
            f"cache {self.cache_hits} hit / {self.cache_misses} miss | "
            f"{self.total_heap_events} events | "
            f"{self.events_per_sec:,.0f} events/sec simulated | "
            f"{self.elapsed_seconds:.2f}s elapsed"
        )
        if self.cache_misses:
            lines.append(
                f"-- traces: {self.workloads_unique} unique workloads, "
                f"{self.workloads_built} generator runs | "
                f"{self.trace_build_seconds:.2f}s trace build vs "
                f"{self.simulated_seconds:.2f}s simulation"
            )
        counts = self.engine_counts
        lines.append(
            "-- engines: "
            + ", ".join(
                f"{name} {counts[name]}" for name in sorted(counts)
            )
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def run_sweep(
    cells: Sequence[SweepCell],
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
) -> SweepReport:
    """Execute every cell, fanning out across ``max_workers`` processes.

    A thin client of the resumable job layer: the cells become an
    ephemeral (journal-less) :class:`repro.jobs.Job` and run through
    :func:`repro.jobs.engine.submit_job` — the same fan-out loop behind
    named jobs, experiment sweeps and ``repro explore``. Cached cells are
    served without simulation; missing cells are executed (in-process
    when ``max_workers=1``, else on the persistent process pool) through
    the same :func:`_execute_cell` function, so the serial and parallel
    paths produce bit-identical :class:`SimResult`\\ s. Workers persist
    each cell as it completes, so an interrupted sweep resumes from
    completed cells; for journaled resume (surviving killed runs even
    with the result cache disabled), name the work via
    :func:`repro.jobs.create_job`/``repro sweep --job``.

    Duplicate cells (same content key) are simulated once and fanned back
    to every occurrence. On the parallel path the parent materializes
    each unique workload once and fans it out over shared memory (see the
    module docstring); workloads for grid rows are built incrementally as
    their cells are submitted, so workers start on the first row while
    the parent is still building later ones.
    """
    from repro.jobs import ephemeral_job, submit_job

    return submit_job(
        ephemeral_job(cells),
        max_workers=max_workers,
        cache=cache,
        use_cache=use_cache,
    )


def _cell_result(
    cell: SweepCell, result: SimResult, telemetry: Dict, from_cache: bool
) -> CellResult:
    """Assemble one CellResult from executor (or cached-run) telemetry.

    Telemetry is the run that produced ``result``; for a cell served from
    the result cache, a journal or a duplicate cell of the same job, that
    run's seconds move to ``cached_wall_seconds`` and this run's cost —
    simulation and trace build alike — is zero.
    """
    wall = float(telemetry.get("wall_seconds", 0.0))
    this_run = {} if from_cache else telemetry
    return CellResult(
        cell=cell,
        result=result,
        wall_seconds=float(this_run.get("wall_seconds", 0.0)),
        heap_events=int(telemetry.get("heap_events", result.heap_events)),
        events_per_sec=float(this_run.get("events_per_sec", 0.0)),
        from_cache=from_cache,
        trace_build_seconds=float(this_run.get("trace_build_seconds", 0.0)),
        trace_source=str(this_run.get("trace_source", "")),
        engine_used=str(telemetry.get("engine_used", "")),
        cached_wall_seconds=wall if from_cache else 0.0,
    )
