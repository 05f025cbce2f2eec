"""sim-cells: a serial, in-process grid of ``System(...).run()`` calls.

Warmup replay, batch precompute and the kernels do almost all the work;
trace generation, result caches, the pool and serve do none. Traces are
built during set-up. An op is one cell simulation.
"""

from __future__ import annotations

import time
from typing import Dict, List

import spans
from cells import Checker, cell_id, digest, sim_cells, simulate
from common import child_env, median, more_time, percentile, ratio, run_child

#: Fresh processes timed from start to holding the grid's traces.
SETUP_PROBES = 5


def _build(cells) -> Dict[str, object]:
    from repro.workloads.arena import WorkloadArena

    arena = WorkloadArena(persist=False)
    return {cell_id(c): arena.fetch(c.workload_params())[0] for c in cells}


def _passes(cells, workloads, budget: float, checker: Checker) -> List[Dict]:
    """Whole passes over the grid for about ``budget`` seconds (at least one)."""
    passes: List[Dict] = []
    begun = time.perf_counter()
    while more_time(begun, budget, passes[-1]["wall"] if passes else None):
        runs = []
        started = time.perf_counter()
        for cell in cells:
            runs.append(simulate(cell, workloads[cell_id(cell)]))
        wall = time.perf_counter() - started
        for cell, (result, engine, _) in zip(cells, runs):
            checker.op(checker.cell_problem(cell_id(cell), digest(result.to_dict()), engine))
        passes.append(
            {
                "wall": wall,
                "cells": [seconds for _, _, seconds in runs],
                "heap_events": sum(result.heap_events for result, _, _ in runs),
            }
        )
    return passes


def run(ctx) -> Dict:
    cells = sim_cells(ctx.tiny)
    checker = Checker()
    setup = []
    for _ in range(SETUP_PROBES):
        ready, code = run_child(["probe"] + (["--tiny"] if ctx.tiny else []), child_env())
        if ready is None or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        setup.append(ready)
    workloads = _build(cells)
    records = [workloads[cell_id(c)].total_requests for c in cells]
    budget = ctx.seconds / 2 if ctx.traced else ctx.seconds
    plain = _passes(cells, workloads, budget, checker)
    out = {"checker": checker, "samples": {"passes": len(plain)}}
    if not ctx.traced:
        per_cell = [median([p["cells"][i] for p in plain]) for i in range(len(cells))]
        every = [t for p in plain for t in p["cells"]]
        firsts = [p["cells"][0] for p in plain]
        out["e2e"] = {
            "setup_s": median(setup),
            "sim_records_per_s": ratio(sum(records), sum(per_cell)),
            "sweep_cold_s": median([p["wall"] for p in plain]),
            "serve_job_p50_ms": 1000 * percentile(every, 50),
            "serve_job_p95_ms": 1000 * percentile(every, 95),
            "serve_ttfc_p50_ms": 1000 * percentile(firsts, 50),
            "serve_ttfc_p95_ms": 1000 * percentile(firsts, 95),
        }
        return out

    tracer = spans.install()
    workloads = _build(cells)  # rebuilt under spans: workloads.build_s
    traced = _passes(cells, workloads, budget, checker)
    layers = spans.layer_metrics(
        tracer.snapshot(), sum(p["heap_events"] for p in traced)
    )
    layers.update(
        {
            "model.records": sum(records) * len(traced),
            "model.digest_mismatches": checker.mismatches,
            "trace.overhead_ratio": ratio(
                median([p["wall"] for p in traced]),
                median([p["wall"] for p in plain]),
            ),
        }
    )
    out["layers"] = layers
    out["samples"]["traced_passes"] = len(traced)
    return out
