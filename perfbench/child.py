"""Child processes the benchmark starts.

    child.py probe [--tiny]        set-up probe for sim-cells
    child.py sweep --seed N --out FILE [--tiny] [--spans-dir DIR]
    child.py serve --out FILE [--spans] -- <repro serve arguments>

Each prints ``ready`` once set up (``serve`` writes its port file instead)
and writes what the parent checks to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import require_program

require_program()

import spans  # noqa: E402
from cells import cell_id, digest, sim_cells, sweep_cells  # noqa: E402

#: ``repro sweep --job ... -j 2``: one pool worker per core of the host.
SWEEP_WORKERS = 2


def probe(args) -> int:
    """Import the program and build the sim-cells traces, as a run's set-up."""
    from repro.workloads.arena import WorkloadArena

    arena = WorkloadArena(persist=False)
    for params in dict.fromkeys(c.workload_params() for c in sim_cells(args.tiny)):
        arena.fetch(params)
    print("ready", flush=True)
    return 0


def sweep(args) -> int:
    """A named job over a fresh cache dir, as ``repro sweep --job`` runs it."""
    from repro.jobs import create_job, submit_job
    from repro.sim.parallel import ResultCache, shutdown_worker_pool
    from repro.workloads.arena import (
        get_workload_arena,
        owned_segment_names,
        segment_pool_stats,
    )

    tracer = spans.install(Path(args.spans_dir)) if args.spans_dir else None
    cells = sweep_cells(args.seed, args.tiny)
    cache = ResultCache()
    job = create_job("perfbench-sweep-cold", cells)
    done_at = {}
    print("ready", flush=True)

    started = time.perf_counter()

    def on_cell(slot) -> None:
        done_at.setdefault(slot.cell.key(), time.perf_counter() - started)

    report = submit_job(job, max_workers=SWEEP_WORKERS, cache=cache, on_cell=on_cell)
    elapsed = time.perf_counter() - started
    owned, pool = list(owned_segment_names()), segment_pool_stats()
    shutdown_worker_pool()
    snap = None
    if tracer is not None:
        snap = spans.merge(
            [tracer.snapshot(), *spans.worker_snapshots(Path(args.spans_dir))]
        )
    arena = get_workload_arena()
    rows = [
        {
            "id": cell_id(c.cell),
            "digest": digest(c.result.to_dict()),
            "engine": c.engine_used,
            "from_cache": c.from_cache,
            "wall_seconds": c.wall_seconds,
            "heap_events": c.heap_events,
            "records": arena.fetch(c.cell.workload_params())[0].total_requests,
            "done_at": done_at[c.cell.key()],
        }
        for c in report.cells
    ]
    Path(args.out).write_text(
        json.dumps(
            {
                "elapsed": elapsed,
                "workers": SWEEP_WORKERS,
                "owned_segments": owned,
                "segment_pool": pool,
                "cells": rows,
                "spans": snap,
            }
        )
    )
    return 0


def serve(args) -> int:
    """``repro serve`` in this process; afterwards, report its leak state."""
    tracer = spans.install() if args.spans else None
    from repro.cli import main
    from repro.workloads.arena import owned_segment_names, segment_pool_stats

    serve_args = [a for a in args.serve_args if a != "--"]
    code = main(["serve", *serve_args])
    Path(args.out).write_text(
        json.dumps(
            {
                "exit": code,
                "owned_segments": list(owned_segment_names()),
                "segment_pool": segment_pool_stats(),
                "spans": tracer.snapshot() if tracer else None,
            }
        )
    )
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--tiny", action="store_true")
    p.set_defaults(fn=probe)
    s = sub.add_parser("sweep")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--tiny", action="store_true")
    s.add_argument("--spans-dir")
    s.set_defaults(fn=sweep)
    v = sub.add_parser("serve", allow_abbrev=False)
    v.add_argument("--out", required=True)
    v.add_argument("--spans", action="store_true")
    v.add_argument("serve_args", nargs=argparse.REMAINDER)
    v.set_defaults(fn=serve)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
