"""Wire format for ``repro serve``: NDJSON messages + report serialization.

One message per line, each a JSON object. Client -> server messages carry
an ``op`` field (``hello`` / ``ping`` / ``stats`` / ``submit`` /
``resume`` / ``bye``) and may carry a free-form ``id`` the server echoes
back on every event it emits for that request, so one connection can
interleave several in-flight jobs. Server -> client messages carry an
``event`` field:

* ``hello`` — protocol + package version handshake.
* ``ack`` — a submit/resume was admitted: job id, total cells, how many
  the journal already covers.
* ``cell`` — one completed cell, streamed the moment it finishes
  (journal replays and cache hits included), with full telemetry.
* ``done`` — the finished :class:`~repro.sim.parallel.SweepReport`,
  every cell included again (the server splices in the texts its
  ``cell`` events carried: :func:`encode_with`, :func:`report_text`).
* ``error`` — the request failed; ``code`` is machine-readable
  (``rate-limited`` / ``queue-full`` / ``too-many-jobs`` / ``draining``
  / ``bad-request`` / ``job-failed``).
* ``stats`` / ``pong`` / ``bye`` — replies to the matching ops.

Everything is built from the serializers the job layer already has
(:func:`repro.jobs.manager.cell_to_dict` and ``SimResult.to_dict``), so
a report round-trips the wire bit-identically — the serve soak test
asserts ``asdict`` equality against an in-process ``run_sweep``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Union

from repro.jobs.manager import cell_from_dict, cell_to_dict
from repro.sim.parallel import CellResult, SweepReport
from repro.sim.results import SimResult

#: Bump when the message layout changes incompatibly.
PROTOCOL_VERSION = 1

#: Machine-readable error codes the server emits.
ERROR_CODES = (
    "bad-request",
    "rate-limited",
    "queue-full",
    "too-many-jobs",
    "draining",
    "job-failed",
)


def dumps(value) -> str:
    """Canonical JSON text: compact and key-sorted, as every line is."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def encode(message: Dict) -> bytes:
    """One NDJSON line (newline-terminated, compact, key-sorted)."""
    return (dumps(message) + "\n").encode("utf-8")


def dumps_with(message: Dict, key: str, text: str) -> str:
    """``dumps({**message, key: value})`` for a ``value`` whose
    :func:`dumps` text is ``text``: the same characters, without encoding
    ``value`` again. Keys sort as :func:`dumps` sorts them, so ``text``
    lands between the keys before ``key`` and the keys after it."""
    before = dumps({k: v for k, v in message.items() if k < key})[1:-1]
    after = dumps({k: v for k, v in message.items() if k > key})[1:-1]
    parts = (before, f"{dumps(key)}:{text}", after)
    return "{" + ",".join(part for part in parts if part) + "}"


def encode_with(message: Dict, key: str, text: str) -> bytes:
    """:func:`encode` of ``message`` with ``key`` set to the value that
    ``text`` encodes (see :func:`dumps_with`)."""
    return (dumps_with(message, key, text) + "\n").encode("utf-8")


def decode(line: Union[bytes, str]) -> Dict:
    """Parse one NDJSON line into a message dict (raises ValueError)."""
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError("protocol messages must be JSON objects")
    return data


# ----------------------------------------------------------------------
# Report serialization (wire <-> dataclasses, bit-exact round trip)
# ----------------------------------------------------------------------
def cell_result_to_dict(cell_result: CellResult) -> Dict:
    """One streamed cell: the full cell spec, result, and telemetry."""
    return {
        "cell": cell_to_dict(cell_result.cell),
        "result": cell_result.result.to_dict(),
        "wall_seconds": cell_result.wall_seconds,
        "heap_events": cell_result.heap_events,
        "events_per_sec": cell_result.events_per_sec,
        "from_cache": cell_result.from_cache,
        "trace_build_seconds": cell_result.trace_build_seconds,
        "trace_source": cell_result.trace_source,
        "engine_used": cell_result.engine_used,
        "cached_wall_seconds": cell_result.cached_wall_seconds,
    }


def cell_result_from_dict(data: Dict) -> CellResult:
    return CellResult(
        cell=cell_from_dict(data["cell"]),
        result=SimResult.from_dict(data["result"]),
        wall_seconds=float(data.get("wall_seconds", 0.0)),
        heap_events=int(data.get("heap_events", 0)),
        events_per_sec=float(data.get("events_per_sec", 0.0)),
        from_cache=bool(data.get("from_cache", False)),
        trace_build_seconds=float(data.get("trace_build_seconds", 0.0)),
        trace_source=str(data.get("trace_source", "")),
        engine_used=str(data.get("engine_used", "")),
        cached_wall_seconds=float(data.get("cached_wall_seconds", 0.0)),
    )


def report_to_dict(report: SweepReport) -> Dict:
    """A finished sweep as JSON-safe primitives (``done`` payload)."""
    return {
        "cells": [cell_result_to_dict(c) for c in report.cells],
        **_report_summary(report),
    }


def report_text(report: SweepReport, cell_texts: Iterable[str]) -> str:
    """``dumps(report_to_dict(report))`` from each cell's
    ``dumps(cell_result_to_dict(cell))`` text, in ``report.cells`` order:
    the server streamed every cell already and splices its text in."""
    return dumps_with(
        _report_summary(report), "cells", "[" + ",".join(cell_texts) + "]"
    )


def _report_summary(report: SweepReport) -> Dict:
    return {
        "max_workers": report.max_workers,
        "elapsed_seconds": report.elapsed_seconds,
        "workloads_unique": report.workloads_unique,
        "workloads_built": report.workloads_built,
        "parent_trace_seconds": report.parent_trace_seconds,
    }


def report_from_dict(data: Dict) -> SweepReport:
    return SweepReport(
        cells=[cell_result_from_dict(c) for c in data.get("cells", [])],
        max_workers=int(data.get("max_workers", 1)),
        elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        workloads_unique=int(data.get("workloads_unique", 0)),
        workloads_built=int(data.get("workloads_built", 0)),
        parent_trace_seconds=float(data.get("parent_trace_seconds", 0.0)),
    )


# ----------------------------------------------------------------------
# Metrics rendering (the HTTP ``GET /metrics`` body)
# ----------------------------------------------------------------------
def render_metrics(stats: Dict[str, float], prefix: str = "repro_serve") -> str:
    """Prometheus-style exposition: one ``<prefix>_<key> <value>`` line
    per numeric stat, sorted by key."""
    lines = []
    for key in sorted(stats):
        value = stats[key]
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            continue
        lines.append(f"{prefix}_{key} {value}")
    return "\n".join(lines) + "\n"
