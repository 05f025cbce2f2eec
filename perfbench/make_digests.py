"""Regenerate digests.json: simulate every pinned cell in-process.

    python3 perfbench/make_digests.py

Run it only when a change to simulated behaviour is intended, and review
the diff: the benchmark counts every cell whose result differs as failed.
"""

from __future__ import annotations

import json

from common import require_program, scrub_environment

require_program()
scrub_environment()

from cells import DIGESTS_PATH, all_cells, cell_id, digest, simulate  # noqa: E402


def main() -> None:
    from repro.workloads.arena import WorkloadArena

    arena = WorkloadArena(persist=False)
    digests = {}
    for cell in all_cells():
        result, engine, _ = simulate(cell, arena.fetch(cell.workload_params())[0])
        if engine != "batch":
            raise SystemExit(f"{cell_id(cell)} ran on {engine!r}, not 'batch'")
        digests[cell_id(cell)] = digest(result.to_dict())
    DIGESTS_PATH.write_text(
        json.dumps({"cells": digests}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
