"""Golden-results scorecard: byte-stable fidelity snapshot for CI.

Captures the reproduction's *behavior* (as opposed to its speed, which is
:mod:`repro.perf.bench`'s job) in one canonical JSON document:

* ``fig3`` — the cycle-exact isolated-access replay of Figure 3: every
  design/type/event bar's measured total next to the analytic total, with
  the per-stage lifecycle attribution.
* ``grid`` — full :class:`~repro.sim.results.SimResult` dumps for a small
  pinned (design x benchmark x reads) grid covering every latency-relevant
  design family.

``write_golden()`` regenerates ``tests/goldens/scorecard.json``;
``check_golden()`` re-simulates and returns a field-level diff against the
committed file. Both run the trace generator for every golden workload
and never read the result cache or a persisted trace. The JSON is
rendered with sorted keys and a fixed indent, so any drift is a minimal,
reviewable diff — and CI fails per-PR instead of waiting for the next
paper re-anchor.

Floats round-trip exactly through JSON (``repr`` of a double is lossless),
so the check is bit-exact, which is precisely what the hot-path
optimization work needs: the optimized simulator must reproduce the
pre-optimization goldens cycle-for-cycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.perf.bench import BenchCell, make_bench_grid

#: Bump when the golden payload layout changes.
GOLDEN_SCHEMA = 1

#: Default committed location, relative to the repository root.
DEFAULT_GOLDEN_PATH = Path("tests") / "goldens" / "scorecard.json"

#: The pinned grid: one representative of every latency structure the
#: paper compares (baseline, SRAM tags, tags-in-DRAM, TAD + predictor,
#: TAD + MissMap, the IDEAL-LO bound).
GOLDEN_DESIGNS = (
    "no-cache",
    "sram-tag",
    "lh-cache",
    "alloy-map-i",
    "alloy-missmap",
    "ideal-lo",
)
GOLDEN_BENCHMARKS = ("mcf_r",)
GOLDEN_READS = 2500


def golden_grid() -> List[BenchCell]:
    """The pinned golden grid (plus one cross-benchmark alloy cell)."""
    cells = make_bench_grid(
        GOLDEN_DESIGNS, GOLDEN_BENCHMARKS, reads_per_core=GOLDEN_READS
    )
    cells.append(
        BenchCell("alloy-map-i", "milc_r", reads_per_core=GOLDEN_READS)
    )
    return cells


def fig3_rows() -> List[Dict]:
    """The measured-vs-analytic Figure 3 table as JSON-ready rows."""
    from repro.analysis.latency import measured_breakdown

    rows = []
    for (design, access_type, event), row in measured_breakdown().items():
        rows.append(
            {
                "design": design,
                "access_type": access_type,
                "event": event,
                "measured": row.total,
                "analytic": row.analytic_total,
                "match": row.matches_analytic,
                "stages": dict(row.stages),
            }
        )
    return rows


def grid_results(cells: Optional[Sequence[BenchCell]] = None) -> Dict[str, Dict]:
    """Simulate every golden cell -> cell_id -> SimResult.

    Bypasses the result cache and every persisted trace: each workload is
    generated once per call, in a private memory-only arena. A pure
    speedup of the generator keeps ``GENERATOR_VERSION`` and so the keys
    of persisted ``.npz`` traces; reading one would check the old
    generator's output instead of the current one.
    """
    from repro.sim.parallel import SweepCell
    from repro.sim.system import System
    from repro.workloads.arena import WorkloadArena

    arena = WorkloadArena(persist=False)
    out = {}
    for cell in cells if cells is not None else golden_grid():
        sweep_cell = SweepCell(
            cell.design,
            cell.benchmark,
            reads_per_core=cell.reads_per_core,
            warmup_fraction=cell.warmup_fraction,
            seed=cell.seed,
        )
        workload, _ = arena.fetch(sweep_cell.workload_params())
        system = System(
            sweep_cell.config,
            sweep_cell.design,
            workload,
            warmup_fraction=sweep_cell.warmup_fraction,
        )
        out[cell.cell_id] = system.run().to_dict()
    return out


def golden_payload(cells: Optional[Sequence[BenchCell]] = None) -> Dict:
    return {
        "schema": GOLDEN_SCHEMA,
        "kind": "repro-golden-scorecard",
        "fig3": fig3_rows(),
        "grid": grid_results(cells),
    }


def canonical_dumps(payload: Dict) -> str:
    """Byte-stable rendering: sorted keys, fixed indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_golden(path: Path = DEFAULT_GOLDEN_PATH) -> Dict:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = golden_payload()
    path.write_text(canonical_dumps(payload))
    return payload


def diff_payloads(current, golden, prefix: str = "", limit: int = 40) -> List[str]:
    """Human-readable field-level differences, depth-first, capped."""
    diffs: List[str] = []
    _diff(current, golden, prefix or "$", diffs, limit)
    return diffs


def _diff(cur, gold, path: str, out: List[str], limit: int) -> None:
    if len(out) >= limit:
        return
    if isinstance(cur, dict) and isinstance(gold, dict):
        for key in sorted(set(cur) | set(gold)):
            if key not in cur:
                out.append(f"{path}.{key}: missing from current run")
            elif key not in gold:
                out.append(f"{path}.{key}: not in golden file")
            else:
                _diff(cur[key], gold[key], f"{path}.{key}", out, limit)
            if len(out) >= limit:
                return
    elif isinstance(cur, list) and isinstance(gold, list):
        if len(cur) != len(gold):
            out.append(f"{path}: length {len(cur)} != golden {len(gold)}")
            return
        for i, (c, g) in enumerate(zip(cur, gold)):
            _diff(c, g, f"{path}[{i}]", out, limit)
            if len(out) >= limit:
                return
    elif cur != gold:
        out.append(f"{path}: {cur!r} != golden {gold!r}")


def check_golden(path: Path = DEFAULT_GOLDEN_PATH) -> List[str]:
    """Re-simulate the golden grid and diff against the committed file.

    Returns the list of differences (empty means the scorecard is intact).
    """
    path = Path(path)
    if not path.exists():
        return [f"golden file {path} does not exist (run 'repro golden --write')"]
    golden = json.loads(path.read_text())
    if golden.get("kind") != "repro-golden-scorecard":
        return [f"{path} is not a repro-golden-scorecard payload"]
    # Rebuild the grid from the committed file so adding cells to
    # GOLDEN_DESIGNS does not fail the check before a --write.
    cells = [
        BenchCell(
            design=entry["design"],
            benchmark=entry["workload"],
            reads_per_core=GOLDEN_READS,
        )
        for entry in golden.get("grid", {}).values()
    ]
    current = golden_payload(cells or None)
    return diff_payloads(current, golden)
