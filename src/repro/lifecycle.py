"""Request lifecycle objects: :class:`MemoryRequest` and per-stage latency.

The paper's entire argument is a latency *decomposition* — tag-serialization
vs. hit-latency vs. miss-penalty (Sections 2.4-3, Figure 3) — so the
simulator carries stage-level attribution end-to-end instead of returning
only a scalar completion time. Every demand read that flows through a
DRAM-cache design yields a :class:`LatencyBreakdown` whose stages sum
exactly to the request's end-to-end latency (asserted in the test suite:
no unattributed cycles).

Stage taxonomy (controller level)
---------------------------------
``queue``
    Cycles spent waiting for busy resources anywhere: bank queues and
    channel-bus queues in either DRAM device. Zero for isolated accesses.
``predictor``
    Predictor Serialization Latency: MissMap lookups (24 cycles) and MAP
    predictor decisions (1 cycle) spent before any DRAM access can issue.
``tag``
    Tag Serialization Latency: SRAM tag-store lookups, LH-Cache tag-line
    streaming plus the tag-check cycles, and — on a Serial Access Model
    miss — the Alloy TAD probe that ruled the access a miss.
``data``
    Cache data service: ACT/CAS/burst cycles of the stacked-DRAM access
    that delivers the line (the TAD stream on an Alloy hit, the compound
    data access on an LH hit, an SRAM victim-buffer read).
``memory``
    Off-chip service on the miss path: ACT/CAS/burst cycles of the memory
    access that supplies the data.

Device-level results decompose further (bank queue, activation, CAS, bus
queue, burst — see :meth:`repro.dram.device.AccessResult.breakdown`); the
designs fold those into the five controller stages via
:meth:`LatencyBreakdown.attribute_device`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

#: Canonical controller-level stages, in presentation order.
STAGE_QUEUE = "queue"
STAGE_PREDICTOR = "predictor"
STAGE_TAG = "tag"
STAGE_DATA = "data"
STAGE_MEMORY = "memory"

STAGES: Tuple[str, ...] = (
    STAGE_QUEUE,
    STAGE_PREDICTOR,
    STAGE_TAG,
    STAGE_DATA,
    STAGE_MEMORY,
)


class MemoryRequest:
    """One L3 miss travelling through the DRAM-cache controller.

    Attributes:
        line_address: 64 B line address of the access.
        is_write: True for posted L3 writebacks, False for demand reads.
        pc: Program counter of the missing instruction (predictor input).
        core_id: Issuing core.
        issue_cycle: Cycle the request arrives at the DRAM-cache controller
            (after the L3 lookup); per-stage latencies are measured from
            here, so a read's breakdown sums to ``done - issue_cycle``.

    A plain ``__slots__`` class (not a frozen dataclass): the interpreter
    allocates one per simulated access, so construction cost matters.
    Designs treat a request as read-only.
    """

    __slots__ = ("line_address", "is_write", "pc", "core_id", "issue_cycle")

    def __init__(
        self,
        line_address: int,
        is_write: bool,
        pc: int,
        core_id: int,
        issue_cycle: float,
    ) -> None:
        self.line_address = line_address
        self.is_write = is_write
        self.pc = pc
        self.core_id = core_id
        self.issue_cycle = issue_cycle

    def _astuple(self) -> Tuple:
        return (
            self.line_address,
            self.is_write,
            self.pc,
            self.core_id,
            self.issue_cycle,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryRequest):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            "MemoryRequest(line_address={}, is_write={}, pc={}, "
            "core_id={}, issue_cycle={})".format(*self._astuple())
        )


class LatencyBreakdown:
    """Cycles attributed to named stages of one request's lifetime.

    A small mutable accumulator: designs build one per demand read and
    attach it to the returned :class:`~repro.dramcache.base.AccessOutcome`.
    Stages with zero cycles are not stored; :meth:`get` returns 0.0 for
    them, so consumers can iterate :data:`STAGES` uniformly.
    """

    __slots__ = ("_stages",)

    def __init__(self, stages: Optional[Dict[str, float]] = None) -> None:
        self._stages: Dict[str, float] = {}
        if stages:
            for stage, cycles in stages.items():
                self.add(stage, cycles)

    def add(self, stage: str, cycles: float) -> "LatencyBreakdown":
        """Attribute ``cycles`` to ``stage`` (no-op for zero); returns self."""
        if cycles:
            self._stages[stage] = self._stages.get(stage, 0.0) + cycles
        return self

    def attribute_device(self, result, stage: str) -> "LatencyBreakdown":
        """Fold one device :class:`~repro.dram.device.AccessResult` in:
        waiting (bank + bus queues) goes to the shared ``queue`` stage,
        service cycles (ACT + CAS + burst) to ``stage``."""
        self.add(STAGE_QUEUE, result.queue_delay + result.bus_queue_delay)
        return self.add(
            stage, result.act_cycles + result.cas_cycles + result.burst_cycles
        )

    # ------------------------------------------------------------------
    def get(self, stage: str) -> float:
        return self._stages.get(stage, 0.0)

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(self._stages.items())

    def as_dict(self) -> Dict[str, float]:
        """Plain dict copy (JSON-friendly)."""
        return dict(self._stages)

    @property
    def total(self) -> float:
        """Sum over all stages; equals the end-to-end latency when the
        producing design attributed every cycle."""
        return sum(self._stages.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyBreakdown):
            return NotImplemented
        return self._stages == other._stages

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{s}={c:g}" for s, c in sorted(self._stages.items()))
        return f"LatencyBreakdown({inner})"
