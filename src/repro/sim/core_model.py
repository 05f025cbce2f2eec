"""Trace-driven core model.

Each core replays its L3-miss stream in order. Demand reads block: the next
record issues ``gap`` compute cycles after the previous blocking access
completed. Writebacks are posted — they cost one issue cycle and never block
the core (writes are off the critical path, Section 5.3).

This deliberately simple in-order memory model keeps the comparison between
DRAM-cache designs honest: every design sees identical request streams, and
relative speedups are driven entirely by the memory system.
"""

from __future__ import annotations

from typing import Tuple

from repro.workloads.trace import CoreTrace


def _tolist(arr):
    """Materialize a numpy array (or any sequence) as a plain list."""
    tolist = getattr(arr, "tolist", None)
    return tolist() if tolist is not None else arr


class Core:
    """The interpreter's cursor over one core's trace, with completion-time
    bookkeeping.

    The trace's numpy arrays are converted to plain Python lists up front:
    the event loop consumes one scalar per event, and per-element numpy
    scalar extraction (``arr[i]`` + ``int()``/``float()`` boxing) costs
    several times a plain list index on that path. The one-time conversion
    applies the same ``float``/``int``/``bool`` casts the per-record path
    used to, so consumers see identical values and types.

    The batch engine builds no ``Core``: its kernels walk flat arrays and
    keep only each core's outcome (``repro.sim.batch.CoreOutcome``: finish
    time, last read completion, reads and writes issued).
    """

    def __init__(self, core_id: int, trace: CoreTrace, start_index: int = 0) -> None:
        self.core_id = core_id
        self._gaps = [float(g) for g in _tolist(trace.gaps)]
        self._addresses = [int(a) for a in _tolist(trace.addresses)]
        self._is_write = [bool(w) for w in _tolist(trace.is_write)]
        self._pcs = [int(p) for p in _tolist(trace.pcs)]
        self._dependent = [bool(d) for d in _tolist(trace.dependent_flags())]
        self._index = start_index
        self._length = len(trace)
        #: Cycle at which this core's last record completed.
        self.finish_time = 0.0
        self.reads_issued = 0
        self.writes_issued = 0
        #: Completion times of in-flight demand reads (MLP cores only).
        self.outstanding: list = []
        #: Completion time of the most recent demand read (dependence point).
        self.last_read_done = 0.0

    # -- MSHR tracking (used when config.mshrs_per_core > 1) ------------
    def retire_completed(self, now: float) -> None:
        """Drop outstanding reads that have completed by ``now``."""
        self.outstanding = [t for t in self.outstanding if t > now]

    def mshr_full(self, limit: int) -> bool:
        return len(self.outstanding) >= limit

    def earliest_completion(self) -> float:
        return min(self.outstanding)

    # ------------------------------------------------------------------
    def has_next(self) -> bool:
        return self._index < self._length

    def peek_gap(self) -> float:
        """Compute-cycle gap preceding the next record."""
        return self._gaps[self._index]

    def next_record(self) -> Tuple[int, bool, int]:
        """Consume and return the next (address, is_write, pc) record."""
        i = self._index
        self._index = i + 1
        is_write = self._is_write[i]
        if is_write:
            self.writes_issued += 1
        else:
            self.reads_issued += 1
        return self._addresses[i], is_write, self._pcs[i]

    def next_is_dependent(self) -> bool:
        """True if the next record is a dependent (pointer-chase) read."""
        return self._dependent[self._index]

    @property
    def remaining(self) -> int:
        return self._length - self._index

    def progress(self) -> float:
        """Fraction of the trace consumed (monitoring helper)."""
        return self._index / self._length if self._length else 1.0


def warmup_split(trace: CoreTrace, warmup_fraction: float) -> int:
    """Index separating functional-warmup records from timed records."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    return int(len(trace) * warmup_fraction)
