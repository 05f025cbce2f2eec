"""The pinned cells every workload simulates, and the checks on their results.

Cell contents never depend on the benchmark seed: the seed only orders and
draws cells. Every simulated result, at every seed, is therefore checked
against ``digests.json``. Regenerate that file with
``python3 perfbench/make_digests.py`` only when a change to simulated
behaviour is intended.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from common import BENCH_DIR

from repro.perf.golden import canonical_dumps
from repro.sim.config import SystemConfig
from repro.sim.parallel import SweepCell

DIGESTS_PATH = BENCH_DIR / "digests.json"

#: sim-cells: every batch kernel family (direct-mapped, 4-way and victim
#: Alloy, LH-Cache, SRAM-Tag, IDEAL-LO, no-cache) plus an MLP core.
SIM_DESIGNS = (
    ("alloy-map-i", 1),
    ("alloy-4way", 1),
    ("alloy-victim16", 1),
    ("lh-cache", 1),
    ("sram-tag", 1),
    ("ideal-lo", 1),
    ("no-cache", 1),
    ("alloy-map-i", 4),
)
#: mcf_r: huge footprint (read hit rate ~0.41); mix4: heterogeneous cores
#: (~0.69). Experiment length: 12k reads per core, 8 cores.
SIM_BENCHMARKS = ("mcf_r", "mix4")
SIM_READS = 12000

#: sweep-cold: 6 designs x 18 (benchmark, seed) workloads of short traces,
#: so trace generation, fan-out, pool start and per-cell I/O are a large
#: share of the wall time.
SWEEP_DESIGNS = (
    "alloy-map-i", "alloy-4way", "lh-cache", "sram-tag", "ideal-lo", "no-cache",
)
SWEEP_BENCHMARKS = (
    "mcf_r", "lbm_r", "soplex_r", "milc_r", "omnetpp_r",
    "gcc_r", "bwaves_r", "sphinx_r", "gems_r",
)
SWEEP_SEEDS = (1, 2)
SWEEP_READS = 2000

#: serve-mixed: the pool that clients draw small jobs from.
SERVE_DESIGNS = ("alloy-map-i", "lh-cache", "sram-tag", "no-cache")
SERVE_BENCHMARKS = ("sphinx_r", "gcc_r", "omnetpp_r", "mcf_r", "milc_r", "soplex_r")
SERVE_SEEDS = (1, 2)
SERVE_READS = 1000
SERVE_CONFIG = SystemConfig(capacity_scale=4096)


def cell_id(cell: SweepCell) -> str:
    """Readable, package-version-independent identity of a pinned cell."""
    cfg = cell.config
    return (
        f"{cell.design}/{cell.benchmark}/r{cell.reads_per_core}/s{cell.seed}"
        f"/m{cfg.mshrs_per_core}/x{cfg.capacity_scale}"
    )


def digest(result_dict: Dict) -> str:
    """SHA-256 of a ``SimResult.to_dict()`` in the golden canonical form."""
    return hashlib.sha256(canonical_dumps(result_dict).encode("utf-8")).hexdigest()


def sim_cells(tiny: bool = False) -> List[SweepCell]:
    cells = [
        SweepCell(
            design,
            benchmark,
            config=SystemConfig(mshrs_per_core=mshrs),
            reads_per_core=SIM_READS,
        )
        for benchmark in SIM_BENCHMARKS
        for design, mshrs in SIM_DESIGNS
    ]
    return [cells[0], cells[-2]] if tiny else cells


def sweep_cells(seed: int, tiny: bool = False) -> List[SweepCell]:
    """The sweep grid, designs in seed-shuffled order within each row.

    Rows (workloads) keep a fixed order: the first row's trace build sits
    on the path to the first result, and its cost differs by benchmark.
    """
    rows = [(b, s) for s in SWEEP_SEEDS for b in SWEEP_BENCHMARKS]
    designs = list(SWEEP_DESIGNS)
    if tiny:
        rows, designs = rows[:2], designs[:2]
    rng = random.Random(seed)
    cells = []
    for benchmark, s in rows:
        rng.shuffle(designs)
        cells += [
            SweepCell(design, benchmark, reads_per_core=SWEEP_READS, seed=s)
            for design in designs
        ]
    return cells


def serve_pool(tiny: bool = False) -> List[SweepCell]:
    cells = [
        SweepCell(
            design, benchmark, config=SERVE_CONFIG,
            reads_per_core=SERVE_READS, seed=s,
        )
        for s in SERVE_SEEDS
        for benchmark in SERVE_BENCHMARKS
        for design in SERVE_DESIGNS
    ]
    return cells[:4] if tiny else cells


def all_cells() -> List[SweepCell]:
    unique: Dict[str, SweepCell] = {}
    for cell in sim_cells() + sweep_cells(0) + serve_pool():
        unique.setdefault(cell_id(cell), cell)
    return list(unique.values())


def simulate(cell: SweepCell, workload) -> Tuple[object, str, float]:
    """One in-process ``System(...).run()`` under ``engine="auto"``.

    Returns (result, engine_used, seconds).
    """
    from repro.sim.system import System

    config = replace(cell.config, engine="auto")
    started = time.perf_counter()
    system = System(
        config, cell.design, workload, warmup_fraction=cell.warmup_fraction
    )
    result = system.run()
    return result, system.engine_used, time.perf_counter() - started


class Checker:
    """Counts ops and failed ops for one run.

    An op fails on a digest mismatch, an exception, or a cell whose
    ``engine_used`` is not ``batch``. A leak or an exactly-once violation
    counts as one more failed op.
    """

    def __init__(self) -> None:
        self.digests: Dict[str, str] = json.loads(DIGESTS_PATH.read_text())["cells"]
        self.ops = 0
        self.failed = 0
        self.mismatches = 0
        self.failures: List[str] = []
        self.engines: List[str] = []

    def cell_problem(self, ident: str, result_digest: str, engine: str) -> Optional[str]:
        """Why one cell result is wrong, or None when it is right."""
        self.engines.append(engine)
        if self.digests.get(ident) != result_digest:
            self.mismatches += 1
            return f"{ident}: result digest differs from digests.json"
        if engine != "batch":
            return f"{ident}: engine_used={engine!r}, expected 'batch'"
        return None

    def op(self, problem: Optional[str]) -> None:
        self.ops += 1
        if problem is not None:
            self.violation(problem)

    def violation(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)
