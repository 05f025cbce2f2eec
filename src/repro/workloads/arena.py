"""Content-keyed workload arena: build each trace once, share it everywhere.

Every cell of a (design x benchmark x config) sweep grid consumes the same
handful of workloads, but the generators in :mod:`repro.workloads.patterns`
are expensive enough that regenerating them per cell — and per worker
process — dominates once the simulator itself is fast. This module is the
shared-workload fabric's storage layer:

* :class:`WorkloadParams` — everything that determines a generated
  :class:`~repro.workloads.trace.Workload`, hashed into a content key that
  includes the generator version, so persisted traces from an older
  generator are invalidated automatically.
* :class:`WorkloadArena` — a two-tier cache. The in-process memo replaces
  the old ``lru_cache`` on ``build_workload``; the on-disk tier persists
  each workload as an ``.npz`` trace arena under
  ``.repro_cache/traces/`` so repeated runs (and repeated CLI invocations)
  load arrays instead of re-running the generators.
* :func:`share_workload` / :func:`attach_workload` — pack a workload's
  arrays into one ``multiprocessing.shared_memory`` segment and rebuild it
  as zero-copy numpy views in another process. The parent that created a
  segment owns it: segments are registered module-wide and
  :func:`release_all_segments` (also installed via ``atexit``) guarantees
  nothing survives in ``/dev/shm`` after a sweep, an exception, or Ctrl-C.
* :func:`acquire_shared_workload` / :func:`release_shared_workload` — a
  refcounted pool over those primitives for long-running, multi-client
  processes (``repro serve``): concurrent sweeps needing the same workload
  share one segment instead of duplicating it, and released segments are
  either unlinked immediately (the default, preserving the one-shot sweep
  contract that nothing outlives ``run_sweep``) or parked in a bounded
  idle LRU (:func:`set_idle_segment_cap`) for reuse by the next job. All
  pool operations are thread-safe — the serve layer runs jobs on worker
  threads.

Environment knobs:

* ``REPRO_TRACE_CACHE=0`` — disable the on-disk ``.npz`` tier (the
  in-process memo stays on).
* ``REPRO_CACHE_DIR`` — relocates ``.repro_cache`` (traces live in the
  ``traces/`` subdirectory, next to the result cache's JSON cells).
"""

from __future__ import annotations

import atexit
import hashlib
import io
import json
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fileio import atomic_write
from repro.workloads.patterns import GENERATOR_VERSION
from repro.workloads.trace import CoreTrace, Workload

#: Bump when the ``.npz`` arena layout (not the generated content) changes.
TRACE_SCHEMA = 1

#: Subdirectory of the result cache holding persisted trace arenas.
TRACE_SUBDIR = "traces"

#: The per-core arrays packed into arenas, in on-disk/in-segment order.
_ARRAY_FIELDS = ("gaps", "addresses", "is_write", "pcs", "is_dependent")


def trace_cache_enabled() -> bool:
    """Whether the on-disk tier is enabled (``REPRO_TRACE_CACHE=0`` off)."""
    return os.environ.get("REPRO_TRACE_CACHE", "1") != "0"


def default_trace_dir() -> Path:
    """``<cache-dir>/traces`` honouring ``REPRO_CACHE_DIR``.

    Mirrors :func:`repro.sim.parallel.default_cache_dir` without importing
    it (``parallel`` imports this module).
    """
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache")) / TRACE_SUBDIR


@dataclass(frozen=True)
class WorkloadParams:
    """Everything that determines a generated rate-mode workload."""

    benchmark: str
    num_cores: int = 8
    reads_per_core: int = 12000
    capacity_scale: int = 256
    seed: int = 1

    def key(self) -> str:
        """SHA-256 content key for this workload.

        Covers every generation input plus :data:`GENERATOR_VERSION` (a
        generator change invalidates persisted arenas) and
        :data:`TRACE_SCHEMA` (a layout change invalidates the files). For
        mixes the mix-table revision is folded in, so recomposing a mix
        invalidates its persisted arenas; for external traces the
        benchmark string is a ``trace:`` spec whose embedded content
        digest keys the file's bytes.
        """
        from repro.workloads.mixes import MIX_REVISION, is_mix

        payload = {
            "schema": TRACE_SCHEMA,
            "generator": GENERATOR_VERSION,
            "benchmark": self.benchmark,
            "num_cores": self.num_cores,
            "reads_per_core": self.reads_per_core,
            "capacity_scale": self.capacity_scale,
            "seed": self.seed,
        }
        if is_mix(self.benchmark):
            payload["mix_revision"] = MIX_REVISION
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Two-tier workload cache
# ----------------------------------------------------------------------
#: Guards every arena's memo and counters, and the process-wide arena
#: map. ``repro serve`` runs jobs on threads that share one arena.
_arena_lock = threading.Lock()


class WorkloadArena:
    """Memo + ``.npz``-on-disk cache of generated workloads.

    Disk writes are atomic (unique temp file + ``os.replace``), so
    concurrent processes sharing one cache directory never read torn
    arenas. The memo is FIFO-capped: workloads are a few MB each and a
    long ``repro all`` session touches dozens. The memo and the counters
    are thread-safe; two threads missing on one key may both build it
    (identically), and the generator runs outside the lock.
    """

    def __init__(
        self,
        directory: Optional[Path] = None,
        persist: Optional[bool] = None,
        memo_capacity: int = 64,
    ) -> None:
        self.directory = Path(directory) if directory else None
        self.persist = persist
        self.memo_capacity = memo_capacity
        self._memory: Dict[str, Workload] = {}
        #: Lifetime telemetry (the sweep layer aggregates per-sweep deltas).
        self.builds = 0
        self.build_seconds = 0.0
        self.memo_hits = 0
        self.disk_hits = 0

    def _dir(self) -> Path:
        # Resolved lazily so tests repointing REPRO_CACHE_DIR take effect.
        return self.directory if self.directory else default_trace_dir()

    def _persist(self) -> bool:
        return trace_cache_enabled() if self.persist is None else self.persist

    def _path(self, key: str) -> Path:
        return self._dir() / f"{key}.npz"

    def fetch(self, params: WorkloadParams) -> Tuple[Workload, Dict]:
        """The workload for ``params`` plus telemetry.

        Telemetry: ``{"trace_source": "memo"|"npz"|"built",
        "trace_build_seconds": float}`` — seconds are the generator time
        for builds, the load time for disk hits, ~0 for memo hits.
        """
        key = params.key()
        with _arena_lock:
            workload = self._memory.get(key)
            if workload is not None:
                self.memo_hits += 1
                return workload, {"trace_source": "memo", "trace_build_seconds": 0.0}
        if self._persist():
            started = time.perf_counter()
            workload = load_arena(self._path(key), params)
            if workload is not None:
                elapsed = time.perf_counter() - started
                with _arena_lock:
                    self.disk_hits += 1
                    self._remember(key, workload)
                return workload, {
                    "trace_source": "npz",
                    "trace_build_seconds": elapsed,
                }
        started = time.perf_counter()
        workload = _generate(params)
        elapsed = time.perf_counter() - started
        with _arena_lock:
            self.builds += 1
            self.build_seconds += elapsed
            self._remember(key, workload)
        if self._persist():
            save_arena(self._path(key), workload, params)
        return workload, {
            "trace_source": "built",
            "trace_build_seconds": elapsed,
        }

    def adopt(self, params: WorkloadParams, workload: Workload) -> None:
        """Pre-seed both tiers with an externally materialized workload.

        Used by the CLI after decoding an external trace file: the decode
        already happened (to learn the core count for cell construction),
        so adopting it means the subsequent sweep's ``fetch`` is a memo
        hit instead of a second streaming decode of the same file.
        """
        key = params.key()
        with _arena_lock:
            self._remember(key, workload)
        if self._persist() and not self._path(key).exists():
            save_arena(self._path(key), workload, params)

    def _remember(self, key: str, workload: Workload) -> None:
        """Insert into the memo, evicting the oldest; hold ``_arena_lock``."""
        while len(self._memory) >= self.memo_capacity:
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = workload

    def clear(self, disk: bool = False) -> None:
        with _arena_lock:
            self._memory.clear()
        if disk and self._dir().is_dir():
            for path in self._dir().glob("*.npz"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing cleanup
                    pass


def _generate(params: WorkloadParams) -> Workload:
    # Local imports: spec's build_workload delegates here (no import
    # cycle at module load).
    from repro.workloads.mixes import generate_mix_workload, is_mix
    from repro.workloads.tracefile import is_trace_spec, workload_from_spec

    if is_trace_spec(params.benchmark):
        # The file defines length and core count; the remaining params
        # are pinned by the cell-construction path.
        return workload_from_spec(params.benchmark)
    if is_mix(params.benchmark):
        return generate_mix_workload(
            params.benchmark,
            num_cores=params.num_cores,
            reads_per_core=params.reads_per_core,
            capacity_scale=params.capacity_scale,
            seed=params.seed,
        )
    from repro.workloads.spec import generate_workload

    return generate_workload(
        params.benchmark,
        num_cores=params.num_cores,
        reads_per_core=params.reads_per_core,
        capacity_scale=params.capacity_scale,
        seed=params.seed,
    )


_shared_arenas: Dict[Optional[Tuple[str, bool]], WorkloadArena] = {}


def get_workload_arena(
    directory: Optional[Path] = None, persist: bool = True
) -> WorkloadArena:
    """The process-wide shared arena for a trace directory.

    One instance per (directory, persist) pair — mirroring
    ``parallel.get_result_cache`` — so tests that repoint
    ``REPRO_CACHE_DIR`` get a fresh memo tier, and pool workers handed an
    explicit directory are immune to stale forked environments.

    ``persist=False`` gives the process's memory-only arena, which reads
    and writes no ``.npz`` file whatever ``REPRO_TRACE_CACHE`` says: the
    arena of a result cache that writes nothing.
    """
    key = None
    if persist:
        directory = Path(directory) if directory is not None else default_trace_dir()
        key = (str(directory), trace_cache_enabled())
    with _arena_lock:
        if key not in _shared_arenas:
            _shared_arenas[key] = (
                WorkloadArena(directory=directory)
                if persist
                else WorkloadArena(persist=False)
            )
        return _shared_arenas[key]


# ----------------------------------------------------------------------
# .npz persistence
# ----------------------------------------------------------------------
def save_arena(path: Path, workload: Workload, params: WorkloadParams) -> None:
    """Atomically persist a workload as one ``.npz`` trace arena."""
    arrays: Dict[str, np.ndarray] = {}
    meta = {
        "schema": TRACE_SCHEMA,
        "generator": GENERATOR_VERSION,
        "name": workload.name,
        "num_cores": workload.num_cores,
        "instructions": [t.instructions for t in workload.cores],
        "params": {
            "benchmark": params.benchmark,
            "num_cores": params.num_cores,
            "reads_per_core": params.reads_per_core,
            "capacity_scale": params.capacity_scale,
            "seed": params.seed,
        },
    }
    for core_id, trace in enumerate(workload.cores):
        arrays[f"gaps_{core_id}"] = trace.gaps
        arrays[f"addresses_{core_id}"] = trace.addresses
        arrays[f"is_write_{core_id}"] = trace.is_write
        arrays[f"pcs_{core_id}"] = trace.pcs
        arrays[f"is_dependent_{core_id}"] = trace.dependent_flags()
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    np.savez(buffer, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    atomic_write(path, buffer.getvalue())


def load_arena(path: Path, params: WorkloadParams) -> Optional[Workload]:
    """Load a persisted arena; None when missing, torn or stale-shaped."""
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("schema") != TRACE_SCHEMA:
                return None
            if meta.get("generator") != GENERATOR_VERSION:
                return None
            instructions = meta["instructions"]
            cores: List[CoreTrace] = []
            for core_id in range(int(meta["num_cores"])):
                cores.append(
                    CoreTrace(
                        gaps=data[f"gaps_{core_id}"],
                        addresses=data[f"addresses_{core_id}"],
                        is_write=data[f"is_write_{core_id}"],
                        pcs=data[f"pcs_{core_id}"],
                        instructions=int(instructions[core_id]),
                        is_dependent=data[f"is_dependent_{core_id}"],
                    )
                )
        return Workload(name=meta["name"], cores=cores)
    except (OSError, ValueError, KeyError):
        # Torn/corrupt file: treat as a miss and rebuild (the next save
        # atomically replaces it).
        return None


# ----------------------------------------------------------------------
# Shared-memory arenas (zero-copy worker fan-out)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArraySpec:
    """One array inside a shared segment: byte offset + reconstruction."""

    offset: int
    dtype: str
    length: int


@dataclass(frozen=True)
class SharedWorkloadHandle:
    """Picklable descriptor a worker needs to attach a shared workload."""

    key: str
    shm_name: str
    workload_name: str
    #: Per core: field -> array spec (fields from ``_ARRAY_FIELDS``).
    cores: Tuple[Dict[str, SharedArraySpec], ...]
    instructions: Tuple[int, ...]


#: Segments created (and therefore owned) by this process, by shm name.
_owned_segments: Dict[str, shared_memory.SharedMemory] = {}

#: Monotonic suffix so two arenas for one key in one process never collide.
_segment_counter = 0

#: Guards every module-level segment structure. Sweeps from concurrent
#: serve jobs share/release segments from different threads.
_segment_lock = threading.RLock()


def share_workload(key: str, workload: Workload) -> SharedWorkloadHandle:
    """Pack ``workload`` into one owned shared-memory segment.

    The caller must eventually :func:`release_segment` (or rely on
    :func:`release_all_segments` / the ``atexit`` hook) — segments are
    kernel objects, not garbage-collected memory.
    """
    global _segment_counter
    specs: List[Dict[str, SharedArraySpec]] = []
    total = 0
    per_core_arrays: List[Dict[str, np.ndarray]] = []
    for trace in workload.cores:
        arrays = {
            "gaps": trace.gaps,
            "addresses": trace.addresses,
            "is_write": trace.is_write,
            "pcs": trace.pcs,
            "is_dependent": trace.dependent_flags(),
        }
        core_spec: Dict[str, SharedArraySpec] = {}
        for field in _ARRAY_FIELDS:
            arr = np.ascontiguousarray(arrays[field])
            arrays[field] = arr
            core_spec[field] = SharedArraySpec(
                offset=total, dtype=arr.dtype.str, length=len(arr)
            )
            total += arr.nbytes
        specs.append(core_spec)
        per_core_arrays.append(arrays)

    with _segment_lock:
        _segment_counter += 1
        name = f"repro-{os.getpid():x}-{_segment_counter:x}-{key[:12]}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(total, 1)
        )
        _owned_segments[shm.name] = shm
    for core_spec, arrays in zip(specs, per_core_arrays):
        for field in _ARRAY_FIELDS:
            spec = core_spec[field]
            arr = arrays[field]
            view = np.ndarray(
                (spec.length,), dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
            )
            view[:] = arr
    return SharedWorkloadHandle(
        key=key,
        shm_name=shm.name,
        workload_name=workload.name,
        cores=tuple(specs),
        instructions=tuple(t.instructions for t in workload.cores),
    )


def attach_workload(
    handle: SharedWorkloadHandle,
) -> Tuple[Workload, shared_memory.SharedMemory]:
    """Rebuild a shared workload as zero-copy numpy views.

    Returns the workload plus the attached segment: the caller must keep
    the segment object referenced as long as the arrays are in use (its
    finalizer unmaps the buffer). Attachments are untracked — the owning
    process is responsible for unlinking, so the resource tracker of a
    short-lived worker must not (and will not) unlink segments behind the
    owner's back or warn about "leaks" it does not own.
    """
    shm = _attach_untracked(handle.shm_name)
    cores: List[CoreTrace] = []
    for core_spec, instructions in zip(handle.cores, handle.instructions):
        arrays = {
            field: np.ndarray(
                (spec.length,),
                dtype=np.dtype(spec.dtype),
                buffer=shm.buf,
                offset=spec.offset,
            )
            for field, spec in core_spec.items()
        }
        cores.append(
            CoreTrace(
                gaps=arrays["gaps"],
                addresses=arrays["addresses"],
                is_write=arrays["is_write"],
                pcs=arrays["pcs"],
                instructions=int(instructions),
                is_dependent=arrays["is_dependent"],
            )
        )
    return Workload(name=handle.workload_name, cores=cores), shm


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Attachments must not be tracked: forked pool workers share one
    resource-tracker process, so register/unregister pairs from workers
    attaching the *same* segment race in the tracker's name set (cpython
    bpo-39959) and un-tracked-but-registered names produce spurious
    "leaked shared_memory" warnings at exit. Python 3.13 exposes
    ``track=False``; earlier versions need registration suppressed for
    the duration of the constructor (safe: workers are single-threaded,
    so nothing else registers concurrently).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python <= 3.12: no ``track`` parameter yet
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shm(res_name, rtype):
            if rtype != "shared_memory":
                original(res_name, rtype)

        resource_tracker.register = _skip_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def release_segment(shm_name: str) -> None:
    """Close and unlink one owned segment (idempotent)."""
    with _segment_lock:
        shm = _owned_segments.pop(shm_name, None)
    if shm is None:
        return
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - racing cleanup
        pass


def release_all_segments() -> None:
    """Close and unlink every segment this process still owns.

    Called from ``run_sweep``'s ``finally`` and registered via ``atexit``
    as a backstop, so no ``/dev/shm`` entry outlives the process even on
    Ctrl-C between creation and the sweep's own cleanup. Also drops the
    refcounted pool's bookkeeping — the segments it tracks are owned
    segments like any other.
    """
    with _segment_lock:
        _segment_pool.clear()
        names = list(_owned_segments)
    for name in names:
        release_segment(name)


def owned_segment_names() -> Tuple[str, ...]:
    """Names of currently-owned segments (tests assert this drains)."""
    with _segment_lock:
        return tuple(_owned_segments)


# ----------------------------------------------------------------------
# Refcounted segment pool (concurrent sweeps in one process)
# ----------------------------------------------------------------------
@dataclass
class _PooledSegment:
    """Pool bookkeeping for one shared segment, by workload key."""

    handle: SharedWorkloadHandle
    refcount: int
    #: Monotonic timestamp of the last release (LRU order for idle eviction).
    last_used: float


#: Workload content key -> pooled segment. Guarded by ``_segment_lock``.
_segment_pool: Dict[str, _PooledSegment] = {}

#: How many refcount-zero segments to keep mapped for reuse. 0 preserves
#: the one-shot contract: a released segment is unlinked immediately.
_idle_segment_cap = 0


def set_idle_segment_cap(cap: int) -> int:
    """Set how many idle (refcount 0) segments the pool may keep; returns
    the previous cap. ``repro serve`` raises this so back-to-back jobs over
    the same workloads skip the pack-and-copy; 0 restores eager release."""
    global _idle_segment_cap
    if cap < 0:
        raise ValueError(f"idle segment cap must be >= 0, got {cap}")
    with _segment_lock:
        previous = _idle_segment_cap
        _idle_segment_cap = cap
        names = _evict_idle_locked()
    for name in names:
        release_segment(name)
    return previous


def acquire_shared_workload(key: str, workload: Workload) -> SharedWorkloadHandle:
    """A shared segment for ``key``, reusing a live or idle one if present.

    Every acquire must be paired with one :func:`release_shared_workload`.
    Two concurrent sweeps needing the same workload get the same segment
    (refcount 2) instead of packing two copies into ``/dev/shm``.
    """
    with _segment_lock:
        entry = _segment_pool.get(key)
        if entry is not None and entry.handle.shm_name in _owned_segments:
            entry.refcount += 1
            return entry.handle
        handle = share_workload(key, workload)
        _segment_pool[key] = _PooledSegment(
            handle=handle, refcount=1, last_used=time.monotonic()
        )
        return handle


def release_shared_workload(key: str) -> None:
    """Drop one reference to ``key``'s pooled segment (idempotent once the
    refcount reaches zero). Idle segments beyond the cap are unlinked,
    oldest-released first."""
    names: List[str] = []
    with _segment_lock:
        entry = _segment_pool.get(key)
        if entry is None:
            return
        if entry.refcount > 0:
            entry.refcount -= 1
        entry.last_used = time.monotonic()
        names = _evict_idle_locked()
    for name in names:
        release_segment(name)


def _evict_idle_locked() -> List[str]:
    """Evict idle pool entries beyond the cap; returns shm names to unlink.

    Caller holds ``_segment_lock`` and must call :func:`release_segment`
    on the returned names *outside* any long critical section.
    """
    idle = sorted(
        (
            (key, entry)
            for key, entry in _segment_pool.items()
            if entry.refcount == 0
        ),
        key=lambda item: item[1].last_used,
    )
    names: List[str] = []
    while len(idle) > _idle_segment_cap:
        key, entry = idle.pop(0)
        del _segment_pool[key]
        names.append(entry.handle.shm_name)
    return names


def release_idle_segments() -> int:
    """Unlink every idle pooled segment now; returns how many were dropped.

    The serve layer calls this on drain so a stopped server leaves
    ``/dev/shm`` empty without waiting for ``atexit``.
    """
    with _segment_lock:
        idle = [
            (key, entry.handle.shm_name)
            for key, entry in _segment_pool.items()
            if entry.refcount == 0
        ]
        for key, _ in idle:
            del _segment_pool[key]
    for _, name in idle:
        release_segment(name)
    return len(idle)


def segment_pool_stats() -> Dict[str, int]:
    """Pool telemetry: ``{"pooled": n, "active": n, "idle": n}``."""
    with _segment_lock:
        active = sum(1 for e in _segment_pool.values() if e.refcount > 0)
        return {
            "pooled": len(_segment_pool),
            "active": active,
            "idle": len(_segment_pool) - active,
        }


atexit.register(release_all_segments)
