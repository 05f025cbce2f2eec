"""The ``repro bench`` performance harness.

Times a *pinned* (design x benchmark x reads) grid of simulations and
reports, per cell, wall seconds and events/sec over several repeats with
the leading warmup repeats discarded and the median taken — so JIT-free
CPython noise (allocator warmup, frequency scaling on the first run) does
not pollute the trend. Every run can be written as a schema-versioned
``BENCH_<date>.json`` at the repository root, accumulating the perf
trajectory PR over PR.

Determinism is checked for free: every repeat of a cell must produce an
identical :class:`~repro.sim.results.SimResult` (the simulator is pure
w.r.t. its inputs), so a perf "optimization" that changes simulated
behavior is caught right here rather than three figures later.

Cross-machine comparisons (a laptop baseline vs a CI runner) are
normalized by a small fixed pure-Python calibration loop whose throughput
is recorded in every payload: ``compare()`` scales the baseline's
events/sec by the ratio of calibration scores when both sides carry one,
so the ±tolerance band measures the *code*, not the host.
"""

from __future__ import annotations

import datetime as _dt
import json
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.results import SimResult

#: Bump when the BENCH_*.json layout changes.
#: 2: per-cell trace_build_seconds / trace_source split (ISSUE 4).
BENCH_SCHEMA = 2

#: File-name prefix for emitted benchmark payloads at the repo root.
BENCH_PREFIX = "BENCH_"

#: The pinned default grid. ``--quick`` runs the leading subset (same
#: reads/warmup/seed), so quick cells share cell ids with the full grid
#: and CI can compare a quick run against the committed full baseline.
DEFAULT_DESIGNS = ("alloy-map-i", "lh-cache", "sram-tag", "no-cache")
DEFAULT_BENCHMARKS = ("mcf_r", "milc_r")
QUICK_DESIGNS = ("alloy-map-i", "lh-cache")
QUICK_BENCHMARKS = ("mcf_r",)
DEFAULT_READS = 2000
DEFAULT_REPEATS = 3
DEFAULT_DISCARD = 1


#: ``System.engine_used`` each requestable engine must report: an "auto"
#: cell that fell back to the interpreter would time the wrong engine.
_EXPECTED_ENGINE = {"auto": "batch", "interp": "interp"}


class BenchDeterminismError(AssertionError):
    """Two repeats of one cell produced different simulation results."""


@dataclass(frozen=True)
class BenchCell:
    """One fully-pinned timing cell (everything that determines the run)."""

    design: str
    benchmark: str
    reads_per_core: int = DEFAULT_READS
    warmup_fraction: float = 0.25
    seed: int = 1
    #: Simulation engine, "auto" or "interp" ("" = resolved by ``System``).
    #: Deliberately NOT part of :attr:`cell_id`: both engines are
    #: bit-exact, so a batch run compares directly against a committed
    #: interpreter baseline — that comparison *is* the speedup measurement.
    engine: str = ""
    #: MSHRs per core (``mshrs_per_core``). Unlike the engine this changes
    #: simulated behavior, so non-default values suffix the cell id.
    mshrs: int = 1

    @property
    def cell_id(self) -> str:
        """Stable string key used in payloads and cross-run comparisons."""
        suffix = f"/m{self.mshrs}" if self.mshrs != 1 else ""
        return (
            f"{self.design}/{self.benchmark}/r{self.reads_per_core}"
            f"/w{self.warmup_fraction:g}/s{self.seed}{suffix}"
        )


def make_bench_grid(
    designs: Iterable[str],
    benchmarks: Iterable[str],
    reads_per_core: int = DEFAULT_READS,
    warmup_fraction: float = 0.25,
    seed: int = 1,
    engine: str = "",
) -> List[BenchCell]:
    """The full (design x benchmark) grid at one pinned trace length."""
    return [
        BenchCell(
            design=design,
            benchmark=benchmark,
            reads_per_core=reads_per_core,
            warmup_fraction=warmup_fraction,
            seed=seed,
            engine=engine,
        )
        for design in designs
        for benchmark in benchmarks
    ]


#: Pinned cells covering the batch-engine envelope extensions — multi-way
#: Alloy, the victim buffer, and an MLP (mshrs=4) core — as (design,
#: mshrs) pairs timed on one benchmark at the default trace length. These
#: ride along with the full default grid so the committed baseline gates
#: every kernel family, not just the direct-mapped single-MSHR designs.
ENVELOPE_CELLS = (
    ("alloy-4way", 1),
    ("alloy-victim16", 1),
    ("alloy-map-i", 4),
)
ENVELOPE_BENCHMARK = "mcf_r"


def envelope_bench_cells(
    reads_per_core: int = DEFAULT_READS,
    warmup_fraction: float = 0.25,
    seed: int = 1,
    engine: str = "",
) -> List[BenchCell]:
    """The :data:`ENVELOPE_CELLS` as fully-pinned bench cells."""
    return [
        BenchCell(
            design=design,
            benchmark=ENVELOPE_BENCHMARK,
            reads_per_core=reads_per_core,
            warmup_fraction=warmup_fraction,
            seed=seed,
            engine=engine,
            mshrs=mshrs,
        )
        for design, mshrs in ENVELOPE_CELLS
    ]


@dataclass
class CellTiming:
    """Timing telemetry for one cell across its kept repeats."""

    cell: BenchCell
    #: Heap events per run (identical across repeats by determinism).
    heap_events: int
    #: Wall seconds of the kept (post-discard) repeats, in run order.
    wall_seconds: List[float]
    #: Wall seconds of the discarded warmup repeats.
    discarded_seconds: List[float]
    result: SimResult
    #: Seconds spent materializing the workload once, before the timed
    #: repeats (generator run, ``.npz`` load, or arena memo hit).
    trace_build_seconds: float = 0.0
    #: Where the workload came from: ``built`` / ``npz`` / ``memo``.
    trace_source: str = ""
    #: Engine that actually produced the results (``System.engine_used``).
    engine_used: str = "interp"

    @property
    def wall_median(self) -> float:
        return statistics.median(self.wall_seconds)

    @property
    def events_per_sec(self) -> float:
        """Median-wall events/sec (the headline per-cell metric)."""
        median = self.wall_median
        return self.heap_events / median if median > 0 else 0.0


def time_cell(
    cell: BenchCell,
    repeats: int = DEFAULT_REPEATS,
    discard: int = DEFAULT_DISCARD,
) -> CellTiming:
    """Time one cell: ``discard`` warmup runs, then ``repeats`` kept runs.

    The workload is built once; each repeat simulates a fresh
    :class:`~repro.sim.system.System` so no state leaks between runs.
    Every repeat's :class:`SimResult` must be identical (raises
    :class:`BenchDeterminismError` otherwise) — the persistent sweep cache
    is bypassed entirely, this always simulates.
    """
    from dataclasses import replace

    from repro.sim.system import System
    from repro.workloads.arena import WorkloadParams, get_workload_arena
    from repro.workloads.spec import get_benchmark

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if discard < 0:
        raise ValueError(f"discard must be >= 0, got {discard}")

    config = _bench_config()
    if cell.engine:
        config = replace(config, engine=cell.engine)
    if cell.mshrs != 1:
        config = replace(config, mshrs_per_core=cell.mshrs)
    # Materialize through the content-keyed arena so the harness reports
    # the trace-build/sim split (and benefits from persisted arenas).
    workload, trace_telemetry = get_workload_arena().fetch(
        WorkloadParams(
            benchmark=get_benchmark(cell.benchmark).name,
            num_cores=config.num_cores,
            reads_per_core=cell.reads_per_core,
            capacity_scale=config.capacity_scale,
            seed=cell.seed,
        )
    )

    reference: Optional[Dict] = None
    walls: List[float] = []
    discarded: List[float] = []
    result = None
    engine_used = "interp"
    for run_index in range(discard + repeats):
        system = System(
            config, cell.design, workload, warmup_fraction=cell.warmup_fraction
        )
        started = time.perf_counter()
        result = system.run()
        wall = time.perf_counter() - started
        engine_used = system.engine_used
        if cell.engine and engine_used != _EXPECTED_ENGINE[cell.engine]:
            raise BenchDeterminismError(
                f"cell {cell.cell_id}: requested engine {cell.engine!r} "
                f"but the run used {engine_used!r} — the timing would "
                "measure the wrong engine"
            )
        fields = result.to_dict()
        if reference is None:
            reference = fields
        elif fields != reference:
            raise BenchDeterminismError(
                f"cell {cell.cell_id}: repeat {run_index} produced a "
                f"different SimResult than repeat 0"
            )
        (discarded if run_index < discard else walls).append(wall)
    assert result is not None
    return CellTiming(
        cell=cell,
        heap_events=result.heap_events,
        wall_seconds=walls,
        discarded_seconds=discarded,
        result=result,
        trace_build_seconds=float(trace_telemetry["trace_build_seconds"]),
        trace_source=str(trace_telemetry["trace_source"]),
        engine_used=engine_used,
    )


def _bench_config():
    from repro.sim.config import SystemConfig

    return SystemConfig()


@dataclass
class BenchRun:
    """One full harness run over a grid of cells."""

    timings: List[CellTiming]
    repeats: int
    discard: int
    calibration_ops_per_sec: float
    elapsed_seconds: float

    def to_payload(self, label: str = "") -> Dict:
        """Schema-versioned, JSON-ready snapshot of this run."""
        cells = {}
        for t in self.timings:
            c = t.cell
            cells[c.cell_id] = {
                "design": c.design,
                "benchmark": c.benchmark,
                "reads_per_core": c.reads_per_core,
                "warmup_fraction": c.warmup_fraction,
                "seed": c.seed,
                "mshrs": c.mshrs,
                "heap_events": t.heap_events,
                "wall_seconds": list(t.wall_seconds),
                "wall_seconds_median": t.wall_median,
                "events_per_sec": t.events_per_sec,
                "trace_build_seconds": t.trace_build_seconds,
                "trace_source": t.trace_source,
                "engine": c.engine,
                "engine_used": t.engine_used,
                "cycles": t.result.cycles,
                "read_hit_rate": t.result.read_hit_rate,
            }
        return {
            "schema": BENCH_SCHEMA,
            "kind": "repro-bench",
            "label": label,
            "generated": _dt.datetime.now(_dt.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repeats": self.repeats,
            "discard": self.discard,
            "calibration_ops_per_sec": self.calibration_ops_per_sec,
            "trace_build_seconds": self.trace_build_seconds,
            "cells": cells,
        }

    @property
    def trace_build_seconds(self) -> float:
        """Total workload-materialization time across the grid (excluded
        from the per-repeat walls, reported so the amortization the sweep
        fabric buys is visible next to raw sim throughput)."""
        return sum(t.trace_build_seconds for t in self.timings)

    def render(self) -> str:
        lines = [
            f"{'design':<16} {'benchmark':<10} {'reads':>6} {'events':>9} "
            f"{'wall_s(med)':>11} {'ev/s':>10} {'trace':>6}"
        ]
        for t in self.timings:
            lines.append(
                f"{t.cell.design:<16} {t.cell.benchmark:<10} "
                f"{t.cell.reads_per_core:>6d} {t.heap_events:>9d} "
                f"{t.wall_median:>11.3f} {t.events_per_sec:>10.0f} "
                f"{t.trace_source or '-':>6}"
            )
        lines.append(
            f"-- {len(self.timings)} cells | {self.repeats} repeats "
            f"(+{self.discard} warmup discarded) | "
            f"{self.trace_build_seconds:.2f}s trace build | "
            f"{self.elapsed_seconds:.1f}s elapsed"
        )
        return "\n".join(lines)


def calibrate(loops: int = 200_000) -> float:
    """Throughput of a fixed pure-Python loop (ops/sec), used to normalize
    events/sec across hosts of different single-core speed."""
    acc = 0.0
    d = {"a": 1.0, "b": 2.0}
    started = time.perf_counter()
    for i in range(loops):
        acc += d["a"] * 0.5 + d["b"]
        d["a"] = acc % 7.0
    elapsed = time.perf_counter() - started
    return loops / elapsed if elapsed > 0 else 0.0


def run_bench(
    cells: Sequence[BenchCell],
    repeats: int = DEFAULT_REPEATS,
    discard: int = DEFAULT_DISCARD,
    progress=None,
) -> BenchRun:
    """Time every cell serially (parallel timing would contend for cores
    and corrupt the wall-clock medians)."""
    started = time.perf_counter()
    calibration = calibrate()
    timings = []
    for cell in cells:
        timing = time_cell(cell, repeats=repeats, discard=discard)
        timings.append(timing)
        if progress is not None:
            progress(timing)
    return BenchRun(
        timings=timings,
        repeats=repeats,
        discard=discard,
        calibration_ops_per_sec=calibration,
        elapsed_seconds=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# Payload persistence and baseline comparison
# ----------------------------------------------------------------------
def default_bench_path(root: Path = Path(".")) -> Path:
    """``BENCH_<today>.json`` at ``root``."""
    return root / f"{BENCH_PREFIX}{_dt.date.today().isoformat()}.json"


def write_bench(payload: Dict, path: Path) -> None:
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_bench(path: Path) -> Dict:
    data = json.loads(Path(path).read_text())
    if data.get("kind") != "repro-bench":
        raise ValueError(f"{path} is not a repro-bench payload")
    if data.get("schema", 0) > BENCH_SCHEMA:
        raise ValueError(
            f"{path} uses bench schema {data['schema']}, newer than "
            f"this code's {BENCH_SCHEMA}"
        )
    return data


def latest_bench_file(root: Path = Path(".")) -> Optional[Path]:
    """Newest committed ``BENCH_*.json`` under ``root``, by *parsed* date.

    The date embedded in the file name is parsed as ISO-8601 (date or
    datetime), not compared lexically — ``BENCH_2026-8-9.json`` no longer
    outranks ``BENCH_2026-12-01.json``. Returns ``None`` when there are no
    candidates at all; raises ``ValueError`` (listing every candidate) when
    any candidate's date fails to parse or two candidates tie for newest,
    so the caller can ask for an explicit ``--baseline`` instead of gating
    against an arbitrary file.
    """
    candidates = sorted(Path(root).glob(f"{BENCH_PREFIX}*.json"))
    if not candidates:
        return None
    dated = []
    unparsed = []
    for path in candidates:
        stem = path.name[len(BENCH_PREFIX) : -len(".json")]
        try:
            stamp = _dt.datetime.fromisoformat(stem)
        except ValueError:
            unparsed.append(path.name)
            continue
        if stamp.tzinfo is not None:
            # Mixed offset-aware and naive stamps would make max() raise;
            # fold everything to naive UTC.
            stamp = stamp.astimezone(_dt.timezone.utc).replace(tzinfo=None)
        dated.append((stamp, path))
    if unparsed:
        raise ValueError(
            f"cannot parse an ISO date out of {', '.join(unparsed)} "
            f"(expected {BENCH_PREFIX}<YYYY-MM-DD>.json; candidates: "
            f"{', '.join(p.name for p in candidates)}); "
            "pass --baseline explicitly"
        )
    newest = max(stamp for stamp, _ in dated)
    best = [path for stamp, path in dated if stamp == newest]
    if len(best) > 1:
        raise ValueError(
            f"{len(best)} bench files tie for newest "
            f"({', '.join(p.name for p in best)}); "
            "pass --baseline explicitly"
        )
    return best[0]


def compare(
    current: Dict,
    baseline: Dict,
    tolerance: float = 0.30,
    min_speedup: float = 0.0,
) -> Dict:
    """Gate ``current`` events/sec against ``baseline`` per shared cell.

    A cell *fails* when its (calibration-normalized) events/sec drops below
    ``(1 - tolerance)`` of the baseline. Cells faster than
    ``(1 + tolerance)x`` are flagged as improvements — a hint the committed
    baseline is stale — but do not fail the gate. With ``min_speedup`` the
    gate inverts into a *floor*: every shared cell must run at least that
    many times faster than the host-scaled baseline (how CI proves the
    batch engine beats the committed interpreter numbers). Returns a
    summary dict that callers can embed into the emitted payload.
    """
    cur_cal = float(current.get("calibration_ops_per_sec") or 0.0)
    base_cal = float(baseline.get("calibration_ops_per_sec") or 0.0)
    host_scale = cur_cal / base_cal if cur_cal > 0 and base_cal > 0 else 1.0
    floor = min_speedup if min_speedup > 0 else 1.0 - tolerance

    cells = {}
    regressions = []
    improvements = []
    shared = sorted(
        set(current.get("cells", {})) & set(baseline.get("cells", {}))
    )
    for cell_id in shared:
        cur_eps = float(current["cells"][cell_id]["events_per_sec"])
        base_eps = float(baseline["cells"][cell_id]["events_per_sec"])
        # Scale the baseline to the current host's calibrated speed.
        expected = base_eps * host_scale
        ratio = cur_eps / expected if expected > 0 else 0.0
        ok = ratio >= floor
        cells[cell_id] = {
            "baseline_events_per_sec": base_eps,
            "current_events_per_sec": cur_eps,
            "host_scale": host_scale,
            "speedup": ratio,
            "ok": ok,
        }
        if not ok:
            regressions.append(cell_id)
        elif ratio > 1.0 + tolerance:
            improvements.append(cell_id)
    return {
        "baseline_label": baseline.get("label", ""),
        "baseline_generated": baseline.get("generated", ""),
        "tolerance": tolerance,
        "min_speedup": min_speedup,
        "shared_cells": len(shared),
        "cells": cells,
        "regressions": regressions,
        "improvements": improvements,
        "verdict": (
            "fail"
            if regressions
            else ("empty" if not shared else "pass")
        ),
    }


def render_comparison(comparison: Dict) -> str:
    floor = float(comparison.get("min_speedup") or 0.0)
    band = (
        f"required speedup >= {floor:g}x"
        if floor > 0
        else f"tolerance ±{comparison['tolerance']:.0%}"
    )
    lines = [
        f"vs baseline ({comparison.get('baseline_label') or 'unlabeled'}, "
        f"generated {comparison.get('baseline_generated', '?')}, "
        f"{band}):"
    ]
    for cell_id, row in sorted(comparison["cells"].items()):
        mark = (
            "ok"
            if row["ok"]
            else ("BELOW FLOOR" if floor > 0 else "REGRESSION")
        )
        if (
            floor <= 0
            and row["ok"]
            and row["speedup"] > 1.0 + comparison["tolerance"]
        ):
            mark = "improved (baseline stale?)"
        lines.append(
            f"  {cell_id:<44} {row['baseline_events_per_sec']:>10.0f} -> "
            f"{row['current_events_per_sec']:>10.0f} ev/s "
            f"({row['speedup']:.2f}x)  {mark}"
        )
    if comparison["verdict"] == "empty":
        lines.append("  (no shared cells between run and baseline)")
    return "\n".join(lines)
