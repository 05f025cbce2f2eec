"""Command-line interface: regenerate paper tables and figures, run sweeps.

Usage::

    repro --list                 # show every experiment id
    repro fig4                   # regenerate Figure 4 (full traces)
    repro table1 fig10 --quick   # quick mode (short traces)
    repro all --quick            # everything
    repro sweep --designs alloy,no-cache --benchmarks mcf,gcc -j 4
    repro sweep --job nightly -j 8   # journaled: resumable after a kill
    repro sweep --resume nightly     # finish whatever the journal misses
    repro explore --strategy halving # Pareto search of the config space
    repro jobs list                  # job admin (also: show / rm)
    repro cache stats                # store admin (also: prune / clear)
    repro serve -j 4 --port 7341     # serve jobs to concurrent clients

The ``sweep`` verb runs an ad-hoc (design x benchmark) grid through the
parallel executor in :mod:`repro.sim.parallel`, printing per-cell telemetry
(sim wall seconds, heap events, events/sec, trace source, cache hit/miss),
the trace-build vs simulation amortization summary, and speedups over
the ``no-cache`` baseline. Completed cells persist under ``.repro_cache/``
(override with ``REPRO_CACHE_DIR``/``--cache-dir``; disable with
``--no-cache``), so repeating a sweep — or resuming after a crash —
simulates only the missing cells. ``--job NAME`` additionally journals
every completion under ``.repro_cache/jobs/`` (see :mod:`repro.jobs`), so
a killed run picks up exactly where it stopped via ``--resume NAME``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.registry import EXPERIMENTS, run_experiments

#: Friendly aliases accepted by ``repro sweep --designs``.
_DESIGN_ALIASES = {
    "alloy": "alloy-map-i",
    "missmap": "alloy-missmap",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Fundamental Latency Trade-offs in Architecting "
            "DRAM Caches' (Qureshi & Loh, MICRO 2012)"
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e.g. fig4 table1), 'all', or the 'sweep' verb",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short traces for a fast smoke run",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each experiment's table as DIR/<id>.csv",
    )
    parser.add_argument(
        "--bars",
        action="store_true",
        help="also render numeric columns as ASCII bar charts",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments in N parallel worker processes",
    )
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Run a (design x benchmark) sweep through the parallel "
            "executor with the persistent result cache"
        ),
    )
    parser.add_argument(
        "--designs",
        default="alloy-map-i,sram-tag,lh-cache,ideal-lo",
        help="comma-separated design names ('alloy' = alloy-map-i)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help=(
            "comma-separated workload names: catalog benchmarks (the _r "
            "suffix is optional) and/or mixes mix1..mix7 "
            "(default mcf_r,lbm_r,soplex_r,milc_r; empty when --trace "
            "is given)"
        ),
    )
    parser.add_argument(
        "--trace",
        action="append",
        default=None,
        metavar="FILE",
        help=(
            "add an external trace file (DRAMSim2 k6/mase or interchange "
            "CSV, optionally gzipped) as a workload column; repeatable"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("k6", "mase", "csv"),
        default=None,
        help=(
            "format of --trace files (default: sniffed from the file "
            "name: k6*/mase* prefix or .csv[.gz] extension)"
        ),
    )
    parser.add_argument(
        "--reads",
        type=int,
        default=6000,
        metavar="N",
        help="trace reads per core (default 6000)",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=0.25,
        metavar="F",
        help="functional-warmup fraction of each trace (default 0.25)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload generation seed"
    )
    parser.add_argument(
        "-j",
        "--max-workers",
        type=int,
        default=1,
        metavar="N",
        help="simulate up to N cells in parallel worker processes",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result cache directory (default .repro_cache or REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the persistent result cache",
    )
    parser.add_argument(
        "--baseline",
        default="no-cache",
        help="design speedups are normalized against (default no-cache)",
    )
    parser.add_argument(
        "--expect-cache-hits",
        type=int,
        default=None,
        metavar="N",
        help=(
            "exit nonzero unless exactly N cells were served from the "
            "persistent result cache (CI smoke assertion)"
        ),
    )
    parser.add_argument(
        "--job",
        metavar="NAME",
        help=(
            "run the sweep as a named, journaled job: every completed "
            "cell is checkpointed under <cache-dir>/jobs/, so a killed "
            "run resumes with 'repro sweep --resume NAME'"
        ),
    )
    parser.add_argument(
        "--resume",
        metavar="REF",
        help=(
            "resume a journaled job by name or id, replaying completed "
            "cells from its journal and simulating only the missing ones "
            "(the grid flags are ignored; the job manifest defines it)"
        ),
    )
    return parser


def build_jobs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro jobs",
        description=(
            "Inspect and manage journaled jobs under <cache-dir>/jobs/"
        ),
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("list", help="list every job with completion counts")
    show = sub.add_parser("show", help="show one job's manifest and journal")
    show.add_argument("ref", help="job name or id")
    rm = sub.add_parser("rm", help="delete a job directory (and journal)")
    rm.add_argument("ref", help="job name or id")
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache directory (default .repro_cache or REPRO_CACHE_DIR)",
    )
    return parser


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description=(
            "Administer the persistent store: cached cell results, "
            "shared trace arenas, and job journals"
        ),
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("stats", help="size and entry counts per store kind")
    prune = sub.add_parser(
        "prune", help="evict oldest entries until the store fits a budget"
    )
    prune.add_argument(
        "--max-bytes",
        required=True,
        metavar="SIZE",
        help="size budget, e.g. 200M, 1G, 500000 (bytes)",
    )
    prune.add_argument(
        "--min-age",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "never evict entries modified within the last SECONDS "
            "(protects work concurrent clients just finished; default 0)"
        ),
    )
    clear = sub.add_parser("clear", help="delete store contents")
    clear.add_argument(
        "--results", action="store_true", help="clear only cached results"
    )
    clear.add_argument(
        "--traces", action="store_true", help="clear only trace arenas"
    )
    clear.add_argument(
        "--jobs", action="store_true", help="clear only job directories"
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache directory (default .repro_cache or REPRO_CACHE_DIR)",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve the resumable job layer to concurrent clients over "
            "NDJSON/TCP (plus HTTP GET /metrics on the same port), with "
            "a bounded job queue, per-client rate limits, incremental "
            "per-cell result streaming, and graceful drain on SIGTERM"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: kernel-assigned, printed on startup)",
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port to PATH (for scripted clients / CI)",
    )
    parser.add_argument(
        "--stdio",
        action="store_true",
        help="serve one NDJSON session over stdin/stdout instead of TCP",
    )
    parser.add_argument(
        "-j",
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "process-pool width for every job's uncached cells (default 1: "
            "they simulate in the server process, on a worker thread)"
        ),
    )
    parser.add_argument(
        "--job-slots",
        type=int,
        default=2,
        metavar="N",
        help="jobs simulating concurrently (default 2)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=8,
        metavar="N",
        help="jobs waiting for a slot before submits are rejected",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=50.0,
        metavar="MSGS",
        help="per-client message rate limit in msgs/sec (0 disables)",
    )
    parser.add_argument(
        "--burst",
        type=int,
        default=20,
        metavar="N",
        help="per-client rate-limit burst allowance (default 20)",
    )
    parser.add_argument(
        "--max-client-jobs",
        type=int,
        default=4,
        metavar="N",
        help="in-flight jobs per connection (default 4)",
    )
    parser.add_argument(
        "--idle-segments",
        type=int,
        default=4,
        metavar="N",
        help=(
            "idle shared-memory workload segments kept mapped between "
            "jobs (default 4; 0 releases eagerly)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result cache directory (default .repro_cache or REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the persistent result cache",
    )
    return parser


def _serve_main(argv: List[str]) -> int:
    import asyncio
    from pathlib import Path

    from repro.serve.server import ServeConfig, run_server, run_stdio

    args = build_serve_parser().parse_args(argv)
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.job_slots < 1:
        print(
            f"--job-slots must be >= 1, got {args.job_slots}",
            file=sys.stderr,
        )
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        job_slots=args.job_slots,
        max_queue=args.max_queue,
        rate=args.rate,
        burst=args.burst,
        max_client_jobs=args.max_client_jobs,
        idle_segments=args.idle_segments,
        use_cache=not args.no_cache,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
    )
    if args.stdio:
        return asyncio.run(run_stdio(config))
    port_file = Path(args.port_file) if args.port_file else None
    try:
        return asyncio.run(run_server(config, port_file=port_file))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


def build_explore_parser() -> argparse.ArgumentParser:
    from repro.explore import (
        DEFAULT_BENCHMARKS,
        DEFAULT_DESIGNS,
        STACKED_TIMING_PRESETS,
        STRATEGIES,
    )

    parser = argparse.ArgumentParser(
        prog="repro explore",
        description=(
            "Design-space exploration over the DRAM-cache config space "
            "(design x page policy x burst x capacity x timing), with a "
            "Pareto-frontier report over latency / hit rate / stacked-bus "
            "pressure / energy-delay^2. Every round is a journaled job, "
            "so a killed exploration resumes when rerun with identical "
            "arguments."
        ),
    )
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="halving",
        help=(
            "search strategy: full grid, seeded random sample, or "
            "successive halving (short traces -> kill dominated configs "
            "-> longer traces; default)"
        ),
    )
    parser.add_argument(
        "--name",
        default="explore",
        help="job-name prefix for the checkpointed rounds (default explore)",
    )
    parser.add_argument(
        "--designs",
        default=",".join(DEFAULT_DESIGNS),
        help="comma-separated design families to search over",
    )
    parser.add_argument(
        "--benchmarks",
        default=",".join(DEFAULT_BENCHMARKS),
        help=(
            "comma-separated workloads each config is scored on: catalog "
            "benchmarks and/or mixes mix1..mix7"
        ),
    )
    parser.add_argument(
        "--page-policies",
        default="open,closed",
        help="stacked-DRAM page policies axis (default open,closed)",
    )
    parser.add_argument(
        "--line-bursts",
        default="4,8",
        help="stacked-bus cycles per 64B line axis (default 4,8)",
    )
    parser.add_argument(
        "--cache-mbs",
        default="128,256",
        help="DRAM-cache capacities in MB (default 128,256)",
    )
    parser.add_argument(
        "--timings",
        default="paper,fast,slow",
        help=(
            "stacked timing presets "
            f"(known: {','.join(sorted(STACKED_TIMING_PRESETS))})"
        ),
    )
    parser.add_argument(
        "--capacity-scales",
        default="256",
        help="workload capacity-scale factors (default 256)",
    )
    parser.add_argument(
        "--reads",
        type=int,
        default=3000,
        metavar="N",
        help="first-round trace reads per core (default 3000)",
    )
    parser.add_argument(
        "--eta",
        type=int,
        default=3,
        metavar="K",
        help="halving: survivor divisor and fidelity multiplier (default 3)",
    )
    parser.add_argument(
        "--keep",
        type=int,
        default=8,
        metavar="N",
        help="halving: stop once this many configs remain (default 8)",
    )
    parser.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        metavar="N",
        help="halving: hard cap on rounds (default: run until --keep)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=32,
        metavar="N",
        help="random: number of sampled configs (default 32)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload/sampling seed"
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=0.25,
        metavar="F",
        help="functional-warmup fraction of each trace (default 0.25)",
    )
    parser.add_argument(
        "-j",
        "--max-workers",
        type=int,
        default=1,
        metavar="N",
        help="simulate up to N cells in parallel worker processes",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the persistent result cache",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="also write the full report (rounds, frontier) as JSON",
    )
    return parser


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Time a pinned (design x benchmark x reads) grid, report "
            "events/sec and wall seconds per cell (warmup-discarded "
            "medians), and emit a schema-versioned BENCH_<date>.json"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="time only the quick subset of the pinned grid (CI smoke)",
    )
    parser.add_argument(
        "--envelope",
        action="store_true",
        help=(
            "time only the pinned envelope cells (multi-way Alloy, victim "
            "buffer, mshrs=4) that gate the batch engine's newer kernels"
        ),
    )
    parser.add_argument(
        "--designs",
        default=None,
        help="comma-separated design names overriding the pinned grid",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark names overriding the pinned grid",
    )
    parser.add_argument(
        "--reads",
        type=int,
        default=None,
        metavar="N",
        help="trace reads per core (default: the pinned grid's 2000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="kept timing repeats per cell (default 3; --quick default 2)",
    )
    parser.add_argument(
        "--discard",
        type=int,
        default=1,
        metavar="N",
        help="leading warmup repeats to discard per cell (default 1)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help=(
            "output JSON path (default BENCH_<date>.json in the cwd, which "
            "must not exist yet: name it here to replace it)"
        ),
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the table only; do not write a BENCH_*.json",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help=(
            "baseline BENCH_*.json to compare against (embedded into the "
            "emitted payload); default with --check: newest BENCH_*.json "
            "in the cwd"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "gate against the baseline: exit nonzero when any shared "
            "cell regresses beyond the tolerance band"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        metavar="F",
        help="allowed fractional events/sec regression (default 0.30)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "interp"),
        default="",
        help=(
            "simulation engine to time (default: REPRO_ENGINE, else auto; "
            "'auto' runs batch whenever the cell is inside its envelope, "
            "'interp' pins the reference interpreter)"
        ),
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="F",
        help=(
            "require every shared cell to beat the (host-scaled) baseline "
            "by at least this factor; exits nonzero otherwise (CI proof "
            "that --engine auto outruns an interpreter baseline)"
        ),
    )
    parser.add_argument(
        "--label",
        default="",
        help="free-form label recorded in the payload (e.g. a commit id)",
    )
    return parser


def build_golden_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro golden",
        description=(
            "Golden-results scorecard: the cycle-exact Figure 3 replay "
            "plus a pinned simulation grid, captured as canonical JSON "
            "(tests/goldens/scorecard.json)"
        ),
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check",
        action="store_true",
        help="re-simulate and diff against the committed golden file",
    )
    mode.add_argument(
        "--write",
        action="store_true",
        help="regenerate the golden file from the current code",
    )
    parser.add_argument(
        "--path",
        metavar="PATH",
        help="golden file location (default tests/goldens/scorecard.json)",
    )
    return parser


def _bench_main(argv: List[str]) -> int:
    from pathlib import Path

    from repro.dramcache.factory import DESIGN_NAMES
    from repro.perf import bench as perf_bench
    from repro.workloads.spec import resolve_workload

    args = build_bench_parser().parse_args(argv)
    designs = list(
        perf_bench.QUICK_DESIGNS if args.quick else perf_bench.DEFAULT_DESIGNS
    )
    benchmarks = list(
        perf_bench.QUICK_BENCHMARKS
        if args.quick
        else perf_bench.DEFAULT_BENCHMARKS
    )
    if args.designs:
        designs = [
            _DESIGN_ALIASES.get(name.strip().lower(), name.strip().lower())
            for name in args.designs.split(",")
            if name.strip()
        ]
        unknown = [d for d in designs if d not in DESIGN_NAMES]
        if unknown:
            print(f"unknown designs: {', '.join(unknown)}", file=sys.stderr)
            return 2
    if args.benchmarks:
        try:
            benchmarks = [
                resolve_workload(name.strip())
                for name in args.benchmarks.split(",")
                if name.strip()
            ]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2

    out = Path(args.out) if args.out else perf_bench.default_bench_path()
    if not (args.no_write or args.out) and out.exists():
        # Today's default file may be a committed baseline CI gates on.
        print(
            f"bench: {out} exists; pass --out {out} to replace it, or "
            f"another --out path",
            file=sys.stderr,
        )
        return 2

    repeats = args.repeats
    if repeats is None:
        repeats = 2 if args.quick else perf_bench.DEFAULT_REPEATS
    if args.envelope:
        cells = perf_bench.envelope_bench_cells(
            reads_per_core=args.reads or perf_bench.DEFAULT_READS,
            engine=args.engine,
        )
    else:
        cells = perf_bench.make_bench_grid(
            designs,
            benchmarks,
            reads_per_core=args.reads or perf_bench.DEFAULT_READS,
            engine=args.engine,
        )
        if not (args.quick or args.designs or args.benchmarks):
            # The pinned default grid also times the envelope cells
            # (multi-way Alloy, victim buffer, mshrs=4) so the committed
            # baseline gates every kernel family.
            cells += perf_bench.envelope_bench_cells(
                reads_per_core=args.reads or perf_bench.DEFAULT_READS,
                engine=args.engine,
            )

    def progress(timing):
        print(
            f"  {timing.cell.cell_id:<44} "
            f"{timing.events_per_sec:>10.0f} ev/s "
            f"({timing.wall_median:.3f}s median)",
            flush=True,
        )

    print(f"timing {len(cells)} cells ({repeats} repeats each):")
    run = perf_bench.run_bench(
        cells, repeats=repeats, discard=args.discard, progress=progress
    )
    print()
    print(run.render())
    payload = run.to_payload(label=args.label)

    status = 0
    gate = args.check or args.min_speedup is not None
    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is None and gate:
        try:
            baseline_path = perf_bench.latest_bench_file(Path("."))
        except ValueError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        if baseline_path is None:
            print(
                "bench: no BENCH_*.json baseline found in the cwd",
                file=sys.stderr,
            )
            return 2
    if baseline_path is not None:
        try:
            baseline = perf_bench.load_bench(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"bench: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        comparison = perf_bench.compare(
            payload,
            baseline,
            tolerance=args.tolerance,
            min_speedup=args.min_speedup or 0.0,
        )
        comparison["baseline_path"] = str(baseline_path)
        payload["comparison"] = comparison
        print()
        print(perf_bench.render_comparison(comparison))
        if gate and comparison["verdict"] != "pass":
            print(
                f"bench: verdict {comparison['verdict']} "
                f"(failing cells: "
                f"{', '.join(comparison['regressions']) or 'n/a'})",
                file=sys.stderr,
            )
            status = 1

    if not args.no_write:
        perf_bench.write_bench(payload, out)
        print(f"\nwrote {out}")
    return status


def _golden_main(argv: List[str]) -> int:
    from pathlib import Path

    from repro.perf import golden as perf_golden

    args = build_golden_parser().parse_args(argv)
    path = (
        Path(args.path) if args.path else perf_golden.DEFAULT_GOLDEN_PATH
    )
    if args.write:
        payload = perf_golden.write_golden(path)
        print(
            f"wrote {path} ({len(payload['grid'])} grid cells, "
            f"{len(payload['fig3'])} fig3 rows)"
        )
        return 0
    diffs = perf_golden.check_golden(path)
    if diffs:
        print(f"golden scorecard drift vs {path}:", file=sys.stderr)
        for diff in diffs:
            print(f"  {diff}", file=sys.stderr)
        return 1
    print(f"golden scorecard intact ({path})")
    return 0


def build_check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Differential correctness check: fuzz the batch engine's "
            "device template against the plain DramDevice (bit-identical "
            "results, timelines, and counters), run paired interpreter vs "
            "batch full-system simulations, and exercise the runtime "
            "invariant layer (see repro.verify)"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=25,
        metavar="N",
        help="randomized streams per device config (default 25)",
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=350,
        metavar="N",
        help="accesses per device stream (default 350)",
    )
    parser.add_argument(
        "--system-seeds",
        type=int,
        default=None,
        metavar="N",
        help="paired full-system runs (default: seeds // 10, min 1)",
    )
    parser.add_argument(
        "--reads",
        type=int,
        default=300,
        metavar="N",
        help="trace reads per core in the system runs (default 300)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print per-config progress while the matrix runs",
    )
    return parser


def _check_main(argv: List[str]) -> int:
    from repro.verify import run_check

    args = build_check_parser().parse_args(argv)
    if args.seeds < 1:
        print(f"--seeds must be >= 1, got {args.seeds}", file=sys.stderr)
        return 2
    report = run_check(
        seeds=args.seeds,
        accesses=args.accesses,
        system_seeds=args.system_seeds,
        reads_per_core=args.reads,
        progress=print if args.report else None,
    )
    print(report.render())
    return 0 if report.ok else 1


def build_breakdown_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro breakdown",
        description=(
            "Per-stage request-latency breakdowns. By default, replay the "
            "paper's isolated Figure 3 accesses through the real designs "
            "and check them against the analytic totals cycle-for-cycle; "
            "with --benchmarks, run full-system simulations and show the "
            "average lifecycle-stage attribution per design/workload."
        ),
    )
    parser.add_argument(
        "--designs",
        default="alloy-map-i,sram-tag,lh-cache,ideal-lo",
        help=(
            "comma-separated design names for --benchmarks mode "
            "('alloy' = alloy-map-i)"
        ),
    )
    parser.add_argument(
        "--benchmarks",
        default="",
        help=(
            "comma-separated benchmark names; when given, run full-system "
            "sims instead of the isolated replay"
        ),
    )
    parser.add_argument(
        "--reads",
        type=int,
        default=4000,
        metavar="N",
        help="trace reads per core in --benchmarks mode (default 4000)",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=0.25,
        metavar="F",
        help="functional-warmup fraction of each trace (default 0.25)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload generation seed"
    )
    parser.add_argument(
        "--width",
        type=int,
        default=48,
        metavar="COLS",
        help="width of the ASCII stage bars (default 48)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the persistent result cache in --benchmarks mode",
    )
    return parser


#: One glyph per lifecycle stage, in display order (queue first — it is
#: whatever delayed the request before any device work started).
_STAGE_GLYPHS = (
    ("queue", "q"),
    ("predictor", "p"),
    ("tag", "t"),
    ("data", "d"),
    ("memory", "m"),
)


def _stage_bar(stages: dict, total: float, width: int) -> str:
    """Render a stage dict as a proportional ASCII bar (one glyph/stage)."""
    if total <= 0:
        return ""
    out = []
    for stage, glyph in _STAGE_GLYPHS:
        cycles = stages.get(stage, 0.0)
        out.append(glyph * int(round(cycles / total * width)))
    return "".join(out)


def _breakdown_main(argv: List[str]) -> int:
    args = build_breakdown_parser().parse_args(argv)
    legend = "  ".join(f"{glyph}={stage}" for stage, glyph in _STAGE_GLYPHS)

    if not args.benchmarks.strip():
        from repro.analysis.latency import measured_breakdown

        rows = measured_breakdown()
        print("isolated-access lifecycle breakdown (measured vs Figure 3)")
        print(f"stages: {legend}")
        print()
        header = (
            f"{'design':<10} {'type':<4} {'event':<5} "
            f"{'measured':>8} {'analytic':>8}  stages"
        )
        print(header)
        mismatches = 0
        for (design, access_type, event), row in rows.items():
            mark = "ok" if row.matches_analytic else "MISMATCH"
            if not row.matches_analytic:
                mismatches += 1
            bar = _stage_bar(row.stages, row.total, args.width)
            print(
                f"{design:<10} {access_type:<4} {event:<5} "
                f"{row.total:>8.0f} {row.analytic_total:>8}  [{bar}] {mark}"
            )
        if mismatches:
            print(f"\n{mismatches} rows diverge from the analytic model")
            return 1
        print("\nall rows match the analytic model cycle-exactly")
        return 0

    from repro.dramcache.factory import DESIGN_NAMES
    from repro.sim.parallel import make_cells, run_sweep
    from repro.workloads.spec import resolve_workload

    designs = [
        _DESIGN_ALIASES.get(name.strip().lower(), name.strip().lower())
        for name in args.designs.split(",")
        if name.strip()
    ]
    unknown = [d for d in designs if d not in DESIGN_NAMES]
    if unknown:
        print(f"unknown designs: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(DESIGN_NAMES)}", file=sys.stderr)
        return 2
    try:
        benchmarks = [
            resolve_workload(name.strip())
            for name in args.benchmarks.split(",")
            if name.strip()
        ]
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    cells = make_cells(
        designs,
        benchmarks,
        reads_per_core=args.reads,
        warmup_fraction=args.warmup,
        seed=args.seed,
    )
    report = run_sweep(cells, use_cache=not args.no_cache)

    print("full-system lifecycle breakdown (mean cycles per demand read)")
    print(f"stages: {legend}")
    for benchmark in benchmarks:
        print(f"\n{benchmark}:")
        for design in designs:
            result = report.result(design, benchmark)
            means = result.stage_latency_means
            total = result.avg_read_latency
            bar = _stage_bar(means, total, args.width)
            parts = "  ".join(
                f"{stage}={means.get(stage, 0.0):6.1f}"
                for stage, _ in _STAGE_GLYPHS
            )
            audit = (
                ""
                if result.unattributed_cycles == 0
                else f"  unattributed={result.unattributed_cycles:.1f}"
            )
            print(
                f"  {design:<14} {total:7.1f} cyc  [{bar}]\n"
                f"  {'':<14} {parts}{audit}"
            )
    return 0


def _trace_cells(paths, format, designs, warmup_fraction, seed, arena):
    """Decode external trace files into sweep cells (plus their specs).

    Each file becomes one workload column: its cells carry the content-
    keyed ``trace:`` spec as the benchmark, a config with ``num_cores``
    taken from the decoded workload (k6/mase streams are single-core),
    and ``reads_per_core=0`` (the file defines its own length). The
    decoded workload is adopted into the sweep's ``arena`` so its fetch
    is a memo hit rather than a second streaming decode.
    """
    from dataclasses import replace

    from repro.sim.config import SystemConfig
    from repro.sim.parallel import SweepCell
    from repro.workloads.tracefile import trace_workload_spec, workload_from_spec

    cells = []
    specs = []
    for path in paths:
        spec = trace_workload_spec(path, format=format)
        workload = workload_from_spec(spec)
        specs.append(spec)
        config = replace(SystemConfig(), num_cores=workload.num_cores)
        for design in designs:
            cells.append(
                SweepCell(
                    design=design,
                    benchmark=spec,
                    config=config,
                    reads_per_core=0,
                    warmup_fraction=warmup_fraction,
                    seed=seed,
                )
            )
        arena.adopt(cells[-1].workload_params(), workload)
    return cells, specs


def _sweep_main(argv: List[str]) -> int:
    from pathlib import Path

    from repro.dramcache.factory import DESIGN_NAMES
    from repro.jobs import create_job, open_job, submit_job
    from repro.sim.parallel import ResultCache, make_cells, run_sweep
    from repro.sim.runner import geometric_mean
    from repro.workloads.spec import resolve_workload

    args = build_sweep_parser().parse_args(argv)
    if args.max_workers < 1:
        print(
            f"--max-workers must be >= 1, got {args.max_workers}",
            file=sys.stderr,
        )
        return 2
    if args.job and args.resume:
        print("--job and --resume are mutually exclusive", file=sys.stderr)
        return 2

    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    cache = ResultCache(
        cache_dir,
        persist=False if args.no_cache else None,
    )
    baseline = _DESIGN_ALIASES.get(args.baseline, args.baseline)

    if args.resume:
        try:
            job = open_job(args.resume, cache_dir=cache_dir)
        except KeyError as exc:
            print(f"sweep: {exc.args[0]}", file=sys.stderr)
            return 2
        # The manifest defines the grid; rebuild the display axes from it.
        designs = list(dict.fromkeys(c.design for c in job.cells))
        benchmarks = list(dict.fromkeys(c.benchmark for c in job.cells))
        print(
            f"resuming job {job.job_id} ({job.completed_cells()}"
            f"/{len(job.cells)} cells journaled)"
        )
        report = submit_job(
            job,
            max_workers=args.max_workers,
            cache=cache,
            use_cache=not args.no_cache,
        )
    else:
        designs = [
            _DESIGN_ALIASES.get(name.strip().lower(), name.strip().lower())
            for name in args.designs.split(",")
            if name.strip()
        ]
        unknown = [d for d in designs if d not in DESIGN_NAMES]
        if unknown:
            print(f"unknown designs: {', '.join(unknown)}", file=sys.stderr)
            print(f"known: {', '.join(DESIGN_NAMES)}", file=sys.stderr)
            return 2
        # --trace with no explicit --benchmarks sweeps only the traces.
        named = args.benchmarks
        if named is None:
            named = "" if args.trace else "mcf_r,lbm_r,soplex_r,milc_r"
        try:
            benchmarks = [
                resolve_workload(name.strip())
                for name in named.split(",")
                if name.strip()
            ]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2

        grid = designs if baseline in designs else [baseline, *designs]
        cells = make_cells(
            grid,
            benchmarks,
            reads_per_core=args.reads,
            warmup_fraction=args.warmup,
            seed=args.seed,
        )
        if args.trace:
            try:
                trace_cells, trace_specs = _trace_cells(
                    args.trace,
                    args.format,
                    grid,
                    warmup_fraction=args.warmup,
                    seed=args.seed,
                    arena=cache.arena(),
                )
            except (OSError, ValueError) as exc:
                print(f"sweep: {exc}", file=sys.stderr)
                return 2
            cells = [*cells, *trace_cells]
            benchmarks = [*benchmarks, *trace_specs]
        if not cells:
            print("sweep: no workloads selected", file=sys.stderr)
            return 2
        if args.job:
            job = create_job(args.job, cells, cache_dir=cache_dir)
            print(
                f"job {job.job_id} ({job.completed_cells()}"
                f"/{len(job.cells)} cells journaled)"
            )
            report = submit_job(
                job,
                max_workers=args.max_workers,
                cache=cache,
                use_cache=not args.no_cache,
            )
        else:
            report = run_sweep(
                cells,
                max_workers=args.max_workers,
                cache=cache,
                use_cache=not args.no_cache,
            )

    print(report.render())
    grid_designs = {c.cell.design for c in report.cells}
    if baseline not in grid_designs:
        # A resumed job need not contain the baseline design; the raw
        # telemetry table above is the whole report then.
        return 0
    if args.resume:
        designs = [d for d in designs if d != baseline] or [baseline]
    print()
    speedups = report.speedups(baseline)
    print(f"speedup vs {baseline}:")
    header = f"{'benchmark':<12}" + "".join(f"{d:>16}" for d in designs)
    print(header)
    for benchmark in benchmarks:
        row = f"{benchmark:<12}" + "".join(
            f"{speedups[(d, benchmark)]:>16.3f}" for d in designs
        )
        print(row)
    gmeans = []
    for design in designs:
        values = [speedups[(design, b)] for b in benchmarks]
        try:
            gmeans.append(f"{geometric_mean(values):>16.3f}")
        except ValueError:
            gmeans.append(f"{'n/a':>16}")
    print(f"{'gmean':<12}" + "".join(gmeans))
    if (
        args.expect_cache_hits is not None
        and report.cache_hits != args.expect_cache_hits
    ):
        print(
            f"expected exactly {args.expect_cache_hits} cache hits, "
            f"got {report.cache_hits} "
            f"({report.cache_misses} miss)",
            file=sys.stderr,
        )
        return 1
    return 0


def _jobs_main(argv: List[str]) -> int:
    from pathlib import Path

    from repro.jobs import format_size, list_jobs, open_job, remove_job

    args = build_jobs_parser().parse_args(argv)
    cache_dir = Path(args.cache_dir) if args.cache_dir else None

    if args.action == "list":
        infos = list_jobs(cache_dir)
        if not infos:
            print("no jobs")
            return 0
        print(
            f"{'job id':<50} {'done':>9} {'size':>10} "
            f"{'created':<20} name"
        )
        for info in infos:
            print(
                f"{info.job_id:<50} "
                f"{info.completed_cells:>4}/{info.total_cells:<4} "
                f"{format_size(info.bytes):>10} "
                f"{info.created:<20} {info.name}"
            )
        return 0

    try:
        if args.action == "rm":
            removed = remove_job(args.ref, cache_dir=cache_dir)
            print(f"removed {removed}")
            return 0
        job = open_job(args.ref, cache_dir=cache_dir)
    except KeyError as exc:
        print(f"jobs: {exc.args[0]}", file=sys.stderr)
        return 2

    journal = job.journal()
    done = journal.load() if journal is not None else {}
    print(f"job {job.job_id}")
    print(f"  name:      {job.name}")
    print(f"  created:   {job.created}")
    print(f"  directory: {job.directory}")
    print(f"  cells:     {len(job.cells)} ({len(done)} journaled)")
    if journal is not None and journal.dropped:
        print(f"  journal:   {journal.dropped} corrupt line(s) dropped")
    for cell in job.cells:
        state = "done" if cell.key() in done else "pending"
        print(
            f"    {cell.design:<16} {cell.benchmark:<12} "
            f"reads={cell.reads_per_core:<7} seed={cell.seed:<3} {state}"
        )
    return 0


def _cache_main(argv: List[str]) -> int:
    from pathlib import Path

    from repro.jobs import cache_stats, clear_cache, parse_size, prune_cache

    args = build_cache_parser().parse_args(argv)
    cache_dir = Path(args.cache_dir) if args.cache_dir else None

    if args.action == "stats":
        print(cache_stats(cache_dir).render())
        return 0
    if args.action == "prune":
        try:
            budget = parse_size(args.max_bytes)
        except ValueError as exc:
            print(f"cache: {exc}", file=sys.stderr)
            return 2
        print(
            prune_cache(
                budget, cache_dir, min_age_seconds=args.min_age
            ).render()
        )
        return 0
    # clear: with no kind flags, clear everything.
    any_flag = args.results or args.traces or args.jobs
    removed = clear_cache(
        cache_dir,
        results=args.results or not any_flag,
        traces=args.traces or not any_flag,
        jobs=args.jobs or not any_flag,
    )
    print(f"cleared {removed.render()}")
    return 0


def _explore_main(argv: List[str]) -> int:
    import json
    from pathlib import Path

    from repro.dramcache.factory import DESIGN_NAMES
    from repro.explore import ExploreSpace, explore
    from repro.workloads.spec import resolve_workload

    args = build_explore_parser().parse_args(argv)
    if args.max_workers < 1:
        print(
            f"--max-workers must be >= 1, got {args.max_workers}",
            file=sys.stderr,
        )
        return 2

    def split(text: str) -> List[str]:
        return [part.strip() for part in text.split(",") if part.strip()]

    designs = [
        _DESIGN_ALIASES.get(name.lower(), name.lower())
        for name in split(args.designs)
    ]
    unknown = [d for d in designs if d not in DESIGN_NAMES]
    if unknown:
        print(f"unknown designs: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(DESIGN_NAMES)}", file=sys.stderr)
        return 2
    try:
        benchmarks = [
            resolve_workload(name) for name in split(args.benchmarks)
        ]
        space = ExploreSpace(
            designs=tuple(designs),
            benchmarks=tuple(benchmarks),
            page_policies=tuple(split(args.page_policies)),
            line_bursts=tuple(int(b) for b in split(args.line_bursts)),
            cache_mbs=tuple(int(mb) for mb in split(args.cache_mbs)),
            timings=tuple(split(args.timings)),
            capacity_scales=tuple(
                int(s) for s in split(args.capacity_scales)
            ),
        )
    except (KeyError, ValueError) as exc:
        print(f"explore: {exc.args[0]}", file=sys.stderr)
        return 2

    report = explore(
        space,
        args.strategy,
        name=args.name,
        reads_per_core=args.reads,
        eta=args.eta,
        keep=args.keep,
        max_rounds=args.max_rounds,
        samples=args.samples,
        seed=args.seed,
        warmup_fraction=args.warmup,
        max_workers=args.max_workers,
        use_cache=not args.no_cache,
        log=print,
    )
    print()
    print(report.render())
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_payload(), indent=2) + "\n")
        print(f"wrote {out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "breakdown":
        return _breakdown_main(argv[1:])
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:])
    if argv and argv[0] == "golden":
        return _golden_main(argv[1:])
    if argv and argv[0] == "check":
        return _check_main(argv[1:])
    if argv and argv[0] == "jobs":
        return _jobs_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "explore":
        return _explore_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])

    args = build_parser().parse_args(argv)
    if args.list or not args.experiments:
        print("available experiments:")
        for experiment_id in EXPERIMENTS:
            print(f"  {experiment_id}")
        print(
            "\nother verbs:\n"
            "  sweep (see 'repro sweep --help')\n"
            "  explore (see 'repro explore --help')\n"
            "  serve (see 'repro serve --help')\n"
            "  jobs (see 'repro jobs --help')\n"
            "  cache (see 'repro cache --help')\n"
            "  breakdown (see 'repro breakdown --help')\n"
            "  bench (see 'repro bench --help')\n"
            "  golden (see 'repro golden --help')\n"
            "  check (see 'repro check --help')"
        )
        return 0

    requested = list(args.experiments)
    if requested == ["all"]:
        requested = list(EXPERIMENTS)

    unknown = [e for e in requested if e.lower() not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    prepared = run_experiments(requested, quick=args.quick, jobs=args.jobs)
    for experiment_id, result, elapsed in prepared:
        print(result.render())
        if args.bars:
            from repro.experiments.report import render_bars

            for header in result.headers[1:]:
                column = result.column(header)
                if column and all(isinstance(c, (int, float)) for c in column):
                    print()
                    print(render_bars(result, header))
                    break
        print(f"({elapsed:.1f}s)")
        print()
        if args.csv:
            from pathlib import Path

            from repro.experiments.report import write_csv

            out_dir = Path(args.csv)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_csv(result, out_dir / f"{experiment_id}.csv")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
