"""Timing spans installed from the benchmark's side, for traced runs only.

:func:`install` replaces layer entry points of the program (module functions
and class methods) with wrappers that time every call. No program file
changes, and an untraced run never calls :func:`install`.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

#: batch kernel function -> metric suffix.
KERNELS = {
    "_run_alloy": "alloy",
    "_run_lh": "lh",
    "_run_sram": "sram",
    "_run_ideal_lo": "ideal_lo",
    "_run_no_cache": "no_cache",
}
#: The batch engine's numpy precompute steps (called from inside kernels).
PRECOMPUTE = ("_flatten", "_mem_decode", "_row_decode", "_mact_indices")

#: Metrics whose spans run inside pool workers in the sweep-cold workload.
WORKER_SIDE = (
    "system.init_s", "system.warm_s", "system.collect_s",
    "batch.precompute_s", "batch.events_per_s", "parallel.cache_put_s",
    "parallel.worker_idle_ratio",
) + tuple(f"batch.kernel_s.{k}" for k in KERNELS.values())


class Tracer:
    """Per-label call counts, total seconds and self seconds.

    Self time is a span's duration minus the spans nested inside it on the
    same thread, so a kernel's self time excludes its precompute calls.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.count: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)

    def add(self, label: str, total: float, self_time: float) -> None:
        with self._lock:
            self.count[label] += 1
            self.total[label] += total
            self.self_time[label] += self_time

    def wrap(self, fn: Callable, label: Union[str, Callable]) -> Callable:
        """``fn`` timed under ``label``, or under ``label(result)``."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            result = None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                name = label(result) if callable(label) else label
                tracer.add(name, elapsed, elapsed - nested)

        return timed

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "count": dict(self.count),
                "total": dict(self.total),
                "self": dict(self.self_time),
            }


def _fetch_label(result) -> str:
    built = result is not None and result[1].get("trace_source") == "built"
    return "workloads.build" if built else "workloads.fetch"


def _get_label(result) -> str:
    return "parallel.cache_miss" if result is None else "parallel.cache_hit"


def install(worker_dir: Optional[Path] = None) -> Tracer:
    """Wrap every layer entry point; returns the tracer collecting spans.

    With ``worker_dir``, forked pool workers write their spans there.
    """
    from repro.jobs import engine as jobs_engine
    from repro.jobs.journal import JobJournal
    from repro.sim import batch, parallel
    from repro.sim.system import System
    from repro.workloads.arena import WorkloadArena

    tracer = Tracer()

    def patch(owner, name: str, label) -> None:
        setattr(owner, name, tracer.wrap(getattr(owner, name), label))

    patch(WorkloadArena, "fetch", _fetch_label)
    # The job engine imported this function by name: its module is the
    # call site that must see the wrapper.
    patch(jobs_engine, "acquire_shared_workload", "workloads.share")
    patch(System, "__init__", "system.init")
    patch(System, "_warm", "system.warm")
    patch(System, "_collect", "system.collect")
    for name in PRECOMPUTE:
        patch(batch, name, "batch.precompute")
    for name, kernel in KERNELS.items():
        patch(batch, name, f"batch.kernel.{kernel}")
    patch(parallel.ResultCache, "get_entry", _get_label)
    patch(parallel.ResultCache, "put", "parallel.cache_put")
    patch(JobJournal, "record", "jobs.journal_append")
    if worker_dir is not None:
        _export_from_workers(tracer, parallel, Path(worker_dir))
    return tracer


def _export_from_workers(tracer: Tracer, parallel, directory: Path) -> None:
    """Make forked pool workers write their spans to ``directory``.

    The pool is created lazily, after :func:`install`, so forked workers
    inherit the wrapped entry points. The replacement ``_worker`` keeps the
    original's module and name, so the pool pickles it by reference to
    itself.
    """
    original = parallel._worker

    def _worker(*args, **kwargs):
        if tracer.pid != os.getpid():
            tracer.reset()  # drop the parent's totals that fork copied
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            tracer.add("parallel.worker", elapsed, elapsed)
            path = directory / f"worker-{os.getpid()}.json"
            part = path.with_suffix(".part")
            part.write_text(json.dumps(tracer.snapshot()))
            os.replace(part, path)

    _worker.__module__ = original.__module__
    _worker.__qualname__ = original.__qualname__
    parallel._worker = _worker


def worker_snapshots(directory: Path) -> List[Dict]:
    return [
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("worker-*.json"))
    ]


def merge(snapshots: Iterable[Optional[Dict]]) -> Dict:
    out: Dict[str, Dict] = {
        "count": defaultdict(int),
        "total": defaultdict(float),
        "self": defaultdict(float),
    }
    for snap in snapshots:
        for kind, values in (snap or {}).items():
            for label, value in values.items():
                out[kind][label] += value
    return {kind: dict(values) for kind, values in out.items()}


def layer_metrics(snap: Dict, heap_events: int) -> Dict[str, float]:
    """Per-layer metrics derived from merged spans."""
    total, self_time, count = snap["total"], snap["self"], snap["count"]
    out = {
        "workloads.build_s": total.get("workloads.build", 0.0),
        "workloads.builds": count.get("workloads.build", 0),
        "workloads.share_s": total.get("workloads.share", 0.0),
        "system.init_s": total.get("system.init", 0.0),
        "system.warm_s": total.get("system.warm", 0.0),
        "system.collect_s": total.get("system.collect", 0.0),
        "batch.precompute_s": total.get("batch.precompute", 0.0),
        "parallel.cache_put_s": total.get("parallel.cache_put", 0.0),
        "parallel.cache_get_s": total.get("parallel.cache_hit", 0.0)
        + total.get("parallel.cache_miss", 0.0),
        "parallel.cache_hits": count.get("parallel.cache_hit", 0),
        "parallel.cache_misses": count.get("parallel.cache_miss", 0),
        "jobs.journal_append_s": total.get("jobs.journal_append", 0.0),
        "jobs.journal_appends": count.get("jobs.journal_append", 0),
        "model.heap_events": heap_events,
    }
    kernel_seconds = 0.0
    for kernel in KERNELS.values():
        seconds = self_time.get(f"batch.kernel.{kernel}", 0.0)
        out[f"batch.kernel_s.{kernel}"] = seconds
        kernel_seconds += seconds
    out["batch.events_per_s"] = (
        heap_events / kernel_seconds if kernel_seconds > 0 else 0.0
    )
    return out
