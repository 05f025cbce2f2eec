"""Resource-timeline DRAM device model with read-over-write priority.

Each bank and each per-channel data bus is a *priority timeline* with two
horizons:

* ``demand_free`` — when the resource can next serve critical-path traffic
  (demand reads, tag probes);
* ``all_free`` — the full occupancy horizon including **background** traffic
  (fills, replacement updates, writebacks), which a real memory controller
  buffers and deprioritizes behind reads.

A background access queues at ``all_free`` — background work is serviced
in order among itself. A demand access queues only behind other demand work,
plus a bounded interference term: at most one in-flight background burst
(``block_cap``), plus any background *backlog* beyond the write-buffer
watermark (modeling forced write-drain when buffers fill). Demand service
pushes pending background work back, conserving total occupancy.

Both the block cap and the watermark are sized in the *resource's own*
service units: a bank serves one background line in ``t_cas + line_burst``
cycles, the channel bus in ``line_burst`` cycles, so each resource tolerates
``BACKGROUND_BACKLOG_OPS`` buffered background lines before demand traffic
is throttled into the drain.

This keeps the two properties the paper's analysis needs:

1. Isolated accesses reproduce the Figure 3 latency structure exactly
   (row-buffer hit = CAS, miss = ACT+CAS, then the burst).
2. Bandwidth-hungry designs (the LH-Cache's ~4x per-hit traffic,
   Section 2.5) build background backlogs that throttle their own demand
   accesses, while lean designs' reads barely notice their write traffic.

This is the plain reference model: every reservation goes through
:meth:`PriorityTimeline.reserve` and every statistic through
``Counter.add`` / :meth:`~repro.stats.Accumulator.sample`. The batch
engine's device closures (:func:`repro.sim.batch._device_fns`) reproduce
this arithmetic for speed, and ``repro check`` diffs them against this
class (see :mod:`repro.verify`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.dram.mapping import AddressMapping, RowLocation
from repro.dram.timings import DramTimings
from repro.lifecycle import LatencyBreakdown
from repro.stats import StatGroup
from repro.units import LINE_SIZE

#: Background operations that may queue per resource before demand accesses
#: are throttled to let the backlog drain (write-buffer depth).
BACKGROUND_BACKLOG_OPS = 8


class AccessResult:
    """Outcome of one DRAM access.

    Attributes:
        start: Cycle at which the bank began servicing the access.
        data_ready: Cycle of the first data beat (after ACT/CAS latencies).
        done: Cycle at which the last beat crossed the bus.
        row_hit: Whether the access hit in the open row buffer.
        queue_delay: Cycles spent waiting for the bank before service.
        bus_queue_delay: Cycles the ready data waited for the channel bus
            (``bus_start - data_ready``; previously dropped silently).
        act_cycles: Activation cycles charged (0 on a row hit; includes the
            explicit precharge when a conflicting row was open).
        cas_cycles: Column-access cycles charged (every access).
        burst_cycles: Bus cycles the transfer held the channel.

    The five stage fields decompose the access exactly:
    ``queue_delay + act_cycles + cas_cycles + bus_queue_delay +
    burst_cycles == done - issue time`` (see :meth:`breakdown`).
    """

    __slots__ = (
        "start",
        "data_ready",
        "done",
        "row_hit",
        "queue_delay",
        "bus_queue_delay",
        "act_cycles",
        "cas_cycles",
        "burst_cycles",
    )

    def __init__(
        self,
        start: float,
        data_ready: float,
        done: float,
        row_hit: bool,
        queue_delay: float,
        bus_queue_delay: float = 0.0,
        act_cycles: float = 0.0,
        cas_cycles: float = 0.0,
        burst_cycles: float = 0.0,
    ) -> None:
        self.start = start
        self.data_ready = data_ready
        self.done = done
        self.row_hit = row_hit
        self.queue_delay = queue_delay
        self.bus_queue_delay = bus_queue_delay
        self.act_cycles = act_cycles
        self.cas_cycles = cas_cycles
        self.burst_cycles = burst_cycles

    def _astuple(self):
        return (
            self.start,
            self.data_ready,
            self.done,
            self.row_hit,
            self.queue_delay,
            self.bus_queue_delay,
            self.act_cycles,
            self.cas_cycles,
            self.burst_cycles,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessResult):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            "AccessResult(start={}, data_ready={}, done={}, row_hit={}, "
            "queue_delay={}, bus_queue_delay={}, act_cycles={}, "
            "cas_cycles={}, burst_cycles={})".format(*self._astuple())
        )

    def breakdown(self) -> LatencyBreakdown:
        """Device-level stage decomposition of this access.

        Stages are ``bank_queue`` / ``act`` / ``cas`` / ``bus_queue`` /
        ``burst``; their sum equals the end-to-end access latency. Designs
        usually fold these into the controller-level taxonomy via
        :meth:`~repro.lifecycle.LatencyBreakdown.attribute_device` instead.
        """
        return LatencyBreakdown(
            {
                "bank_queue": self.queue_delay,
                "act": self.act_cycles,
                "cas": self.cas_cycles,
                "bus_queue": self.bus_queue_delay,
                "burst": self.burst_cycles,
            }
        )


class PriorityTimeline:
    """A reservable resource with demand/background priority classes.

    :meth:`DramDevice.access` reserves every bank and bus through
    :meth:`reserve`. The batch engine's device closures mirror this
    arithmetic expression for expression so their floats match bit for
    bit; ``repro check`` drives both with identical streams and requires
    identical results.
    """

    __slots__ = ("demand_free", "all_free")

    def __init__(self) -> None:
        self.demand_free = 0.0
        self.all_free = 0.0

    def reserve(
        self, now: float, service: float, background: bool, block_cap: float,
        watermark: float,
    ) -> float:
        """Reserve ``service`` cycles; returns the start time."""
        if background:
            start = max(now, self.all_free)
            self.all_free = start + service
            return start
        start = max(now, self.demand_free)
        backlog = self.all_free - start
        if backlog > 0:
            # One in-flight background burst cannot be preempted; backlog
            # beyond the write-buffer watermark forces a drain.
            start += min(backlog, block_cap) + max(0.0, backlog - watermark)
        end = start + service
        self.demand_free = end
        # Pending background work is pushed back by the demand service.
        self.all_free = max(self.all_free, start) + service
        return start

    def backlog_at(self, now: float) -> float:
        """Outstanding (mostly background) occupancy beyond ``now``."""
        return max(0.0, self.all_free - now)

    def reset(self) -> None:
        self.demand_free = 0.0
        self.all_free = 0.0


class DramDevice:
    """One DRAM device (off-chip memory or the stacked cache array).

    ``page_policy`` selects row-buffer management: ``"open"`` (default)
    leaves rows open after an access so spatially-local streams get CAS-only
    hits; ``"closed"`` auto-precharges after every access, making every
    access pay ACT+CAS — useful for quantifying how much of a design's
    benefit rides on row-buffer locality.
    """

    def __init__(
        self,
        timings: DramTimings,
        name: Optional[str] = None,
        page_policy: str = "open",
    ) -> None:
        if page_policy not in ("open", "closed"):
            raise ValueError("page_policy must be 'open' or 'closed'")
        self.page_policy = page_policy
        self.timings = timings
        self.name = name or timings.name
        self.mapping = AddressMapping(
            timings.channels, timings.banks_per_channel, timings.row_bytes
        )
        n_banks = timings.channels * timings.banks_per_channel
        self._banks: List[PriorityTimeline] = [PriorityTimeline() for _ in range(n_banks)]
        self._open_row: List[Optional[int]] = [None] * n_banks
        self._buses: List[PriorityTimeline] = [
            PriorityTimeline() for _ in range(timings.channels)
        ]
        self.stats = StatGroup(self.name)

    # ------------------------------------------------------------------
    # Core access path
    # ------------------------------------------------------------------
    def _bank_index(self, loc: RowLocation) -> int:
        return loc.channel * self.timings.banks_per_channel + loc.bank

    def _block_cap(self) -> float:
        """Maximum demand blocking behind background: one burst tail."""
        return self.timings.t_cas + self.timings.line_burst

    def _watermark(self) -> float:
        """Background bank backlog tolerated before demand throttling."""
        return BACKGROUND_BACKLOG_OPS * self._block_cap()

    def _bus_block_cap(self) -> float:
        """Maximum demand blocking behind background on the bus: one burst."""
        return self.timings.line_burst

    def _bus_watermark(self) -> float:
        """Background bus backlog tolerated before demand throttling,
        in bus-service units (one background line = ``line_burst`` cycles).
        """
        return BACKGROUND_BACKLOG_OPS * self.timings.line_burst

    def access(
        self,
        now: float,
        loc: RowLocation,
        burst_cycles: Optional[int] = None,
        is_write: bool = False,
        background: bool = False,
    ) -> AccessResult:
        """Perform one access to ``loc`` transferring ``burst_cycles`` of data.

        ``burst_cycles`` defaults to one 64 B line. ``background`` marks
        deprioritized traffic (fills, updates, writebacks) as described in
        the module docstring.
        """
        timings = self.timings
        line_burst = timings.line_burst
        if burst_cycles is None:
            burst_cycles = line_burst

        bank_idx = self._bank_index(loc)
        open_row = self._open_row[bank_idx]
        row_hit = open_row == loc.row
        if row_hit:
            act_cycles = 0
        elif open_row is None:
            act_cycles = timings.t_act
        else:
            act_cycles = timings.t_rp + timings.t_act
        core_latency = act_cycles + timings.t_cas

        start = self._banks[bank_idx].reserve(
            now,
            core_latency + burst_cycles,
            background,
            self._block_cap(),
            self._watermark(),
        )
        queue_delay = start - now
        data_ready = start + core_latency
        bus_start = self._buses[loc.channel].reserve(
            data_ready,
            burst_cycles,
            background,
            self._bus_block_cap(),
            self._bus_watermark(),
        )
        bus_queue_delay = bus_start - data_ready
        done = bus_start + burst_cycles
        self._open_row[bank_idx] = loc.row if self.page_policy == "open" else None

        stats = self.stats
        stats.counter("accesses").add()
        if row_hit:
            stats.counter("row_hits").add()
        else:
            stats.counter("activations").add()
        stats.counter("write_accesses" if is_write else "read_accesses").add()
        if background:
            stats.counter("background_accesses").add()
        stats.counter("bus_cycles").add(burst_cycles)
        stats.counter("bytes_on_bus").add(int(burst_cycles * LINE_SIZE / line_burst))
        stats.accumulator("queue_delay").sample(queue_delay)
        stats.accumulator("bus_queue_delay").sample(bus_queue_delay)
        if not background:
            stats.accumulator("demand_queue_delay").sample(queue_delay)
            stats.accumulator("demand_bus_queue_delay").sample(bus_queue_delay)
        stats.accumulator("access_latency").sample(done - now)

        return AccessResult(
            start,
            data_ready,
            done,
            row_hit,
            queue_delay,
            bus_queue_delay,
            float(act_cycles),
            float(timings.t_cas),
            float(burst_cycles),
        )

    def access_line(
        self,
        now: float,
        line_address: int,
        is_write: bool = False,
        background: bool = False,
    ) -> AccessResult:
        """Access a line through the device's built-in address mapping."""
        loc = self.mapping.locate(line_address)
        return self.access(
            now, loc, self.timings.line_burst, is_write=is_write, background=background
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def open_row_at(self, loc: RowLocation) -> Optional[int]:
        """The row currently open in ``loc``'s bank (None if closed)."""
        return self._open_row[self._bank_index(loc)]

    def would_row_hit(self, loc: RowLocation) -> bool:
        """True if an access to ``loc`` right now would hit the row buffer."""
        return self.open_row_at(loc) == loc.row

    def bank_free_at(self, loc: RowLocation) -> float:
        """Earliest cycle at which ``loc``'s bank can begin a new demand access."""
        return self._banks[self._bank_index(loc)].demand_free

    def bank_backlog(self, loc: RowLocation, now: float) -> float:
        """Outstanding occupancy (incl. background) on ``loc``'s bank."""
        return self._banks[self._bank_index(loc)].backlog_at(now)

    @property
    def row_hit_rate(self) -> float:
        stats = self.stats
        acc = stats.counter("accesses").value
        return stats.counter("row_hits").value / acc if acc else 0.0

    def bus_utilization(self, elapsed_cycles: float) -> float:
        """Aggregate data-bus utilization across channels over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        busy = self.stats.counter("bus_cycles").value
        return busy / (elapsed_cycles * self.timings.channels)

    def reset(self) -> None:
        """Clear all timeline, row-buffer, and statistics state.

        Warmup never touches the device (it is purely functional, replaying
        records through the designs' ``warm`` hooks without advancing time),
        so this is only needed when reusing one device across independent
        simulations, e.g. in unit tests.
        """
        for bank in self._banks:
            bank.reset()
        for bus in self._buses:
            bus.reset()
        self._open_row = [None] * len(self._open_row)
        self.stats.reset()
