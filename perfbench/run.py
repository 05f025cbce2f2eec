"""Benchmark entry point for this repository (see perfbench/README.md).

    python3 perfbench/run.py --workload sim-cells --seed 1 --seconds 30 --trace 0

Prints one report line (host record, resolved environment, engine counts,
failures) and, as the last line, the result: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are every
end-to-end metric of BENCHMARK.json; with ``--trace 1``, every per-layer
metric. Exits non-zero, printing no result, when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

from common import (
    ROOT,
    SCRATCH,
    count_engines,
    fresh_dir,
    host_record,
    leaked_tmp_files,
    require_program,
    resolved_knobs,
    scrub_environment,
)

WORKLOADS = {
    "sim-cells": "sim_cells",
    "sweep-cold": "sweep_cold",
    "serve-mixed": "serve_mixed",
}


@dataclass
class Context:
    """What a workload's ``run(ctx)`` gets."""

    seed: int
    seconds: float
    traced: bool
    #: Smoke-test size: a few pinned cells instead of the full grids.
    tiny: bool
    #: Fresh directory inside the checkout, removed after the run.
    scratch: Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    require_program()
    spec = json.loads(spec_path.read_text())
    inherited = scrub_environment()

    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        tiny=args.tiny,
        scratch=fresh_dir(f"{args.workload}-"),
    )
    # The in-process default cache, should any code path fall back to it.
    os.environ["REPRO_CACHE_DIR"] = str(ctx.scratch / "cache")
    try:
        host = host_record(args.seed)
        knobs = resolved_knobs()
        outcome = importlib.import_module(WORKLOADS[args.workload]).run(ctx)
        checker = outcome["checker"]
        from repro.workloads.arena import owned_segment_names, segment_pool_stats

        if owned_segment_names() or segment_pool_stats()["pooled"]:
            checker.violation("shared-memory segments left in the benchmark process")
        leaked = leaked_tmp_files(ctx.scratch)
        if leaked:
            checker.violation(f"temp files left behind: {leaked[:3]}")
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    kind = "per_layer" if ctx.traced else "end_to_end"
    values = dict(outcome["layers"] if ctx.traced else outcome["e2e"])
    if not ctx.traced:
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        values["peak_rss_mb"] = peak_kb / 1024.0
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(declared) - set(values))
    if not ctx.traced and missing:
        raise RuntimeError(f"end-to-end metrics not produced: {missing}")
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in declared.items()
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "env_scrubbed": inherited,
        "env_resolved": knobs,
        "engine_counts": count_engines(checker.engines),
        "ops": checker.ops,
        "ops_failed": checker.failed,
        "failures": checker.failures,
        "samples": outcome.get("samples", {}),
        # Per-layer metrics this workload never exercises read 0.
        "not_exercised": missing if ctx.traced else [],
        "unmeasured": outcome.get("unmeasured", {}),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.ops,
                "failed": min(checker.failed, checker.ops),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
