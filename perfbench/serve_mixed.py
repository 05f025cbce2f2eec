"""serve-mixed: two closed-loop clients against a ``repro serve -j 1`` process.

Each round starts a fresh server over a fresh cache dir (set-up is the time
to its port file), then two client threads, one connection each, submit
small jobs drawn by seed from a pinned pool of cells and wait for each
reply before sending the next (a closed loop). The clients' draws overlap,
so most jobs are served from the cache; every pool cell is in some job,
so each round executes exactly the pool once. Cache reads, admission, the
in-flight registry and streaming dominate. An op is one job.

The server runs with ``--rate 0``: the closed loop sends faster than the
default 50 messages/s limit, and a refused job would be a failed op.

Each round's trace store (``<cache>/traces``) is filled with the pool's
``.npz`` arenas before the server starts. Left empty, two job threads that
build one workload at once both write ``<key>.tmp.<pid>`` and one of them
fails its ``os.replace`` (the temp-name collision of ROADMAP item 4), so
some jobs would fail. With the store filled, that race is out of this
workload until the program fixes it.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List

import spans
from cells import Checker, cell_id, digest, serve_pool
from common import BENCH_DIR, ROOT, child_env, median, more_time, percentile, ratio

CLIENTS = 2
CELLS_PER_JOB = 2
#: Jobs per round: each p95 of a round has at least ten samples beyond it.
JOBS = 200
TINY_JOBS = 12
#: Scratch subdirectory holding the pool's trace arenas, copied per round.
TRACE_STORE = "serve-traces"


def job_lists(pool, seed: int, jobs: int) -> List[List[List]]:
    """Per-client job lists: the pool split into jobs, plus random draws."""
    rng = random.Random(seed)
    covering = list(pool)
    rng.shuffle(covering)
    batches = [
        covering[i:i + CELLS_PER_JOB] for i in range(0, len(covering), CELLS_PER_JOB)
    ]
    while len(batches) < jobs:
        batches.append(rng.sample(pool, CELLS_PER_JOB))
    rng.shuffle(batches)
    return [batches[i::CLIENTS] for i in range(CLIENTS)]


def _client(port: int, jobs, samples: List[Dict], errors: List[str]) -> None:
    from repro.serve import ServeClient, ServeError

    try:
        with ServeClient("127.0.0.1", port, timeout=120) as client:
            for cells in jobs:
                marks: Dict[str, float] = {}
                sent = time.perf_counter()
                try:
                    report = client.submit(
                        cells,
                        on_ack=lambda _m: marks.setdefault("ack", time.perf_counter()),
                        on_cell=lambda _d: marks.setdefault("cell", time.perf_counter()),
                    )
                except ServeError as exc:
                    errors.append(f"job refused or failed: {exc}")
                    continue
                done = time.perf_counter()
                samples.append(
                    {
                        "sent": sent,
                        "ack": marks.get("ack", done),
                        "cell": marks.get("cell", done),
                        "done": done,
                        "cells": report["streamed_cells"],
                    }
                )
    except OSError as exc:
        errors.append(f"client connection failed: {exc}")


def _round(ctx, index: int, checker: Checker, traced: bool) -> Dict:
    from repro.jobs.manager import cell_from_dict
    from repro.serve import ServeClient

    cache = ctx.scratch / f"serve-{index}"
    port_file = ctx.scratch / f"serve-{index}.port"
    out = ctx.scratch / f"serve-{index}.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "serve", "--out", str(out)]
    if traced:
        cmd.append("--spans")
    cmd += [
        "--", "--port", "0", "--port-file", str(port_file), "-j", "1",
        "--rate", "0", "--cache-dir", str(cache),
    ]
    lists = job_lists(
        serve_pool(ctx.tiny), ctx.seed * 1000 + index, TINY_JOBS if ctx.tiny else JOBS
    )
    samples: List[Dict] = []
    errors: List[str] = []
    shutil.copytree(ctx.scratch / TRACE_STORE, cache / "traces")
    with open(ctx.scratch / f"serve-{index}.log", "w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(cache), stdout=log, stderr=subprocess.STDOUT
        )
        try:
            while not (port_file.exists() and port_file.read_text().strip()):
                if proc.poll() is not None or time.perf_counter() - started > 60:
                    raise RuntimeError(f"server did not start (exit {proc.poll()})")
                time.sleep(0.002)
            setup = time.perf_counter() - started
            port = int(port_file.read_text())
            threads = [
                threading.Thread(target=_client, args=(port, jobs, samples, errors))
                for jobs in lists
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150)
            with ServeClient("127.0.0.1", port, timeout=60) as client:
                stats = client.stats()
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()

    # Checks, all outside the timed region.
    expected = sum(len(jobs) for jobs in lists)
    for sample in samples:
        problems = [
            checker.cell_problem(
                cell_id(cell_from_dict(d["cell"])),
                digest(d["result"]),
                d["engine_used"],
            )
            for d in sample["cells"]
        ]
        checker.op(next((p for p in problems if p), None))
    for missing in range(expected - len(samples)):
        checker.op(errors[missing] if missing < len(errors) else "job never answered")
    unique = {cell_id(c) for jobs in lists for job in jobs for c in job}
    if stats["cells_executed"] != len(unique):
        checker.violation(
            f"exactly-once broken: {stats['cells_executed']} cells executed "
            f"for {len(unique)} unique cells"
        )
    if code != 0:
        checker.violation(f"serve exited {code} after SIGTERM")
    report = json.loads(out.read_text()) if out.exists() else {}
    if report.get("owned_segments") or report.get("segment_pool", {}).get("pooled"):
        checker.violation(f"serve left shared memory: {report}")
    executed = [
        d for s in samples for d in s["cells"] if not d["from_cache"]
    ]
    wall = max(s["done"] for s in samples) - min(s["sent"] for s in samples)
    return {
        "setup_s": setup,
        "wall": wall,
        "samples": samples,
        "executed": executed,
        "stats": stats,
        "spans": report.get("spans"),
    }


def _rounds(ctx, budget: float, checker: Checker, traced: bool, first: int) -> List[Dict]:
    done: List[Dict] = []
    begun = time.perf_counter()
    while more_time(begun, budget, done[-1]["wall"] + done[-1]["setup_s"] if done else None):
        done.append(_round(ctx, first + len(done), checker, traced))
    return done


def _ms(samples, start: str, end: str) -> List[float]:
    return [1000 * (s[end] - s[start]) for s in samples]


def run(ctx) -> Dict:
    from repro.workloads.arena import WorkloadArena

    checker = Checker()
    arena = WorkloadArena(directory=ctx.scratch / TRACE_STORE, persist=True)
    records = {
        cell_id(c): arena.fetch(c.workload_params())[0].total_requests
        for c in serve_pool(ctx.tiny)
    }

    def simulated(r: Dict) -> int:
        from repro.jobs.manager import cell_from_dict

        return sum(records[cell_id(cell_from_dict(d["cell"]))] for d in r["executed"])

    def rate(r: Dict) -> float:
        return ratio(simulated(r), r["wall"])

    budget = ctx.seconds / 2 if ctx.traced else ctx.seconds
    plain = _rounds(ctx, budget, checker, False, 0)
    samples = [s for r in plain for s in r["samples"]]
    out = {"checker": checker, "samples": {"rounds": len(plain), "jobs": len(samples)}}
    if not ctx.traced:
        jobs, ttfc = _ms(samples, "sent", "done"), _ms(samples, "sent", "cell")
        out["e2e"] = {
            "setup_s": median([r["setup_s"] for r in plain]),
            "serve_job_p50_ms": percentile(jobs, 50),
            "serve_job_p95_ms": percentile(jobs, 95),
            "serve_ttfc_p50_ms": percentile(ttfc, 50),
            "serve_ttfc_p95_ms": percentile(ttfc, 95),
            "sweep_cold_s": median([r["wall"] for r in plain]),
            "sim_records_per_s": median([rate(r) for r in plain]),
        }
        return out

    traced = _rounds(ctx, budget, checker, True, len(plain))
    samples = [s for r in traced for s in r["samples"]]
    executed = [d for r in traced for d in r["executed"]]
    layers = spans.layer_metrics(
        spans.merge(r["spans"] for r in traced),
        sum(d["heap_events"] for d in executed),
    )
    queue = _ms(samples, "ack", "cell")
    layers.update(
        {
            "serve.ack_ms": percentile(_ms(samples, "sent", "ack"), 50),
            "serve.queue_ms.p50": percentile(queue, 50),
            "serve.queue_ms.p95": percentile(queue, 95),
            "serve.stream_ms": percentile(_ms(samples, "cell", "done"), 50),
            "serve.cells_executed": sum(r["stats"]["cells_executed"] for r in traced),
            "serve.cells_from_cache": sum(r["stats"]["cells_from_cache"] for r in traced),
            "serve.jobs_rejected": sum(r["stats"]["jobs_rejected"] for r in traced),
            "parallel.worker_sim_s": sum(d["wall_seconds"] for d in executed),
            "model.records": sum(simulated(r) for r in traced),
            "model.digest_mismatches": checker.mismatches,
            "trace.overhead_ratio": ratio(
                median([r["wall"] for r in traced]), median([r["wall"] for r in plain])
            ),
        }
    )
    out["layers"] = layers
    out["samples"]["traced_rounds"] = len(traced)
    return out
