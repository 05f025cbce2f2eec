"""sweep-cold: a fresh process runs a named job over a fresh cache dir.

As ``repro sweep --job NAME -j 2`` does: ``create_job`` + ``submit_job``
with two pool workers over ~100 short cells. Trace generation, the
shared-memory fan-out, pool start-up, cache writes and per-cell journal
fsyncs are a large share of the wall time. An op is one cell.

Per-cell ``wall_seconds`` is summed only over cells with
``from_cache=False``: a cache-served cell still carries the original run's
``wall_seconds``, a known program bug, so no number here inherits it.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

import spans
from cells import Checker
from common import child_env, median, more_time, percentile, ratio, run_child


def _sweep(ctx, index: int, checker: Checker, traced: bool) -> Dict:
    cache = ctx.scratch / f"sweep-{index}"
    out = ctx.scratch / f"sweep-{index}.json"
    args = ["sweep", "--seed", str(ctx.seed), "--out", str(out)]
    if ctx.tiny:
        args.append("--tiny")
    if traced:
        spans_dir = ctx.scratch / f"sweep-{index}-spans"
        spans_dir.mkdir()
        args += ["--spans-dir", str(spans_dir)]
    ready, code = run_child(args, child_env(cache))
    if ready is None or code != 0:
        raise RuntimeError(f"sweep child exited {code}")
    data = json.loads(out.read_text())
    data["setup_s"] = ready
    for cell in data["cells"]:
        checker.op(checker.cell_problem(cell["id"], cell["digest"], cell["engine"]))
    if data["owned_segments"] or data["segment_pool"]["pooled"]:
        checker.violation(
            f"sweep left shared memory: {data['owned_segments']} {data['segment_pool']}"
        )
    return data


def _sweeps(ctx, budget: float, checker: Checker, traced: bool) -> List[Dict]:
    done: List[Dict] = []
    index = len(list(ctx.scratch.glob("sweep-*.json")))
    begun = time.perf_counter()
    while more_time(begun, budget, done[-1]["elapsed"] if done else None):
        done.append(_sweep(ctx, index, checker, traced))
        index += 1
    return done


def _executed(sweep: Dict) -> List[Dict]:
    return [c for c in sweep["cells"] if not c["from_cache"]]


def run(ctx) -> Dict:
    checker = Checker()
    budget = ctx.seconds / 2 if ctx.traced else ctx.seconds
    plain = _sweeps(ctx, budget, checker, traced=False)
    out = {"checker": checker, "samples": {"sweeps": len(plain)}, "unmeasured": {}}
    if not ctx.traced:
        done = [c["done_at"] for s in plain for c in s["cells"]]
        firsts = [min(c["done_at"] for c in s["cells"]) for s in plain]
        out["e2e"] = {
            "setup_s": median([s["setup_s"] for s in plain]),
            "sweep_cold_s": median([s["elapsed"] for s in plain]),
            "sim_records_per_s": median(
                [ratio(sum(c["records"] for c in _executed(s)), s["elapsed"]) for s in plain]
            ),
            "serve_job_p50_ms": 1000 * percentile(done, 50),
            "serve_job_p95_ms": 1000 * percentile(done, 95),
            "serve_ttfc_p50_ms": 1000 * percentile(firsts, 50),
            "serve_ttfc_p95_ms": 1000 * percentile(firsts, 95),
        }
        return out

    traced = _sweeps(ctx, budget, checker, traced=True)
    snap = spans.merge(s["spans"] for s in traced)
    executed = [c for s in traced for c in _executed(s)]
    layers = spans.layer_metrics(snap, sum(c["heap_events"] for c in executed))
    busy = snap["total"].get("parallel.worker", 0.0)
    capacity = sum(s["workers"] * s["elapsed"] for s in traced)
    layers.update(
        {
            "parallel.worker_sim_s": sum(c["wall_seconds"] for c in executed),
            "parallel.worker_idle_ratio": 1.0 - ratio(busy, capacity),
            "model.records": sum(c["records"] for c in executed),
            "model.digest_mismatches": checker.mismatches,
            "trace.overhead_ratio": ratio(
                median([s["elapsed"] for s in traced]),
                median([s["elapsed"] for s in plain]),
            ),
        }
    )
    if executed and not snap["count"].get("parallel.worker"):
        for name in spans.WORKER_SIDE:
            out["unmeasured"][name] = (
                "pool workers did not start by fork, so they ran no spans"
            )
    out["layers"] = layers
    out["samples"]["traced_sweeps"] = len(traced)
    return out
