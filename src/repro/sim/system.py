"""The multi-core system simulator: event loop tying cores to a design.

Discrete-event simulation over a single heap. Two event kinds share it:

* **core events** — a core issues its next trace record. Demand reads pass
  through the L3 (fixed 24-cycle lookup, by which point the request has
  missed) and block the core until the design reports data available;
  writebacks are posted.
* **scheduled callbacks** — background work the designs post (fills,
  replacement updates, dirty writebacks) so device reservations happen in
  approximate global time order rather than far in the past or future.

A functional warmup phase (default 25% of each trace) replays the leading
records through the designs' ``warm`` hooks — filling tag arrays and
training predictors without advancing time — so measured hit rates reflect
steady state rather than a cold cache.
"""

from __future__ import annotations

import heapq
import os
import sys
from itertools import count
from typing import Callable, List, Optional, Union

from repro.dram.device import DramDevice
from repro.dram.energy import system_energy
from repro.dramcache.base import DramCacheDesign
from repro.dramcache.factory import make_design
from repro.lifecycle import MemoryRequest
from repro.sim.config import SystemConfig
from repro.sim.core_model import Core, warmup_split
from repro.sim.results import SimResult
from repro.workloads.trace import Workload

_SCENARIO_KEYS = (
    "pred_mem_actual_mem",
    "pred_mem_actual_cache",
    "pred_cache_actual_mem",
    "pred_cache_actual_cache",
)

_ENGINES = ("auto", "interp")

#: Invalid REPRO_ENGINE values already warned about (once per process —
#: sweeps construct thousands of Systems).
_warned_engines: set = set()


class System:
    """One complete system instance: devices + design + cores."""

    def __init__(
        self,
        config: SystemConfig,
        design: Union[str, Callable],
        workload: Workload,
        warmup_fraction: float = 0.25,
    ) -> None:
        if workload.num_cores != config.num_cores:
            raise ValueError(
                f"workload has {workload.num_cores} cores, "
                f"config expects {config.num_cores}"
            )
        self.config = config
        self.workload = workload
        self.warmup_fraction = warmup_fraction
        self.memory = DramDevice(
            config.offchip, name="memory", page_policy=config.offchip_page_policy
        )
        self.stacked = DramDevice(
            config.stacked, name="stacked", page_policy=config.stacked_page_policy
        )
        self._heap: List = []
        self._seq = count()
        self.now = 0.0
        #: Heap entries popped by :meth:`run` (sweep telemetry).
        self.events_processed = 0
        self._mshrs = config.mshrs_per_core
        self._l3_latency = config.l3_latency
        self._write_issue_cycles = config.write_issue_cycles
        if callable(design):
            # Custom builder: builder(config, stacked, memory, schedule).
            self.design: DramCacheDesign = design(
                config, self.stacked, self.memory, self.schedule
            )
        else:
            self.design = make_design(
                design, config, self.stacked, self.memory, self.schedule
            )
        #: Per-core state read by :meth:`_collect`: :class:`Core` cursors
        #: under the interpreter, ``batch.CoreOutcome`` rows after a batch run.
        self._cores: list = []
        # Invariant layer: installed only when explicitly enabled (config
        # flag or REPRO_VERIFY=1); None means the hot path is untouched.
        from repro.verify.invariants import maybe_install

        self.checker = maybe_install(self, config.verify)
        #: Which engine actually produced the result: "interp" until the
        #: batch engine accepts the configuration and completes a run.
        self.engine_used = "interp"

    def _resolve_engine(self) -> str:
        """Pick the simulation engine: explicit config wins, then
        ``REPRO_ENGINE``, then ``"auto"``.

        An invalid explicit ``config.engine`` is a programming error and
        raises; an invalid ``REPRO_ENGINE`` value only warns (environment
        variables leak across process boundaries and must not break runs).
        """
        engine = self.config.engine
        if engine:
            if engine not in _ENGINES:
                raise ValueError(
                    f"unknown engine {engine!r}: expected 'auto' or 'interp'"
                )
            return engine
        env = os.environ.get("REPRO_ENGINE", "")
        if env and env not in _ENGINES:
            if env not in _warned_engines:
                _warned_engines.add(env)
                print(
                    f"repro: ignoring invalid REPRO_ENGINE={env!r} "
                    "(expected 'auto' or 'interp')",
                    file=sys.stderr,
                )
            return "auto"
        return env or "auto"

    # ------------------------------------------------------------------
    # Scheduler used by designs for background work
    # ------------------------------------------------------------------
    def schedule(self, when: float, fn: Callable[[float], None]) -> None:
        """Run ``fn(when)`` when simulated time reaches ``when``."""
        now = self.now
        heapq.heappush(
            self._heap, (when if when >= now else now, next(self._seq), fn)
        )

    # ------------------------------------------------------------------
    # Warmup
    # ------------------------------------------------------------------
    def _warm(self, replay: Optional[Callable] = None) -> List[int]:
        """Functionally replay leading records; returns per-core start index.

        ``replay(system, starts)`` — the batch engine's array warmup — may
        bring the design to its post-warmup state in one step and return
        True; otherwise every record goes through ``design.warm`` in order.
        """
        starts = [
            warmup_split(trace, self.warmup_fraction)
            for trace in self.workload.cores
        ]
        if replay is not None and replay(self, starts):
            return starts
        for core_id, trace in enumerate(self.workload.cores):
            split = starts[core_id]
            if not split:
                continue
            addresses = trace.addresses[:split]
            writes = trace.is_write[:split]
            pcs = trace.pcs[:split]
            for addr, is_write, pc in zip(
                addresses.tolist(), writes.tolist(), pcs.tolist()
            ):
                self.design.warm(int(addr), bool(is_write), int(pc), core_id)
        return starts

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        if self._resolve_engine() == "auto":
            # Any configuration outside the batch envelope falls through
            # to the interpreter (batch.run declines before mutating state).
            from repro.sim import batch

            result = batch.run(self)
            if result is not None:
                return result

        starts = self._warm()
        self._cores = [
            Core(core_id, trace, start_index=starts[core_id])
            for core_id, trace in enumerate(self.workload.cores)
        ]
        for core in self._cores:
            if core.has_next():
                self.schedule(core.peek_gap(), self._make_core_event(core))

        # Hot loop: locals for the heap machinery; ``self.now`` must still
        # be stored per event (design callbacks read it via ``schedule``).
        heap = self._heap
        heappop = heapq.heappop
        events = 0
        while heap:
            when, _, fn = heappop(heap)
            self.now = when
            events += 1
            fn(when)
        self.events_processed += events

        return self._collect()

    def _make_core_event(self, core: Core) -> Callable[[float], None]:
        """One reusable event closure per core (rescheduled, not re-created)."""

        def fire(now: float) -> None:
            self._handle_core(core, now, fire)

        return fire

    def _handle_core(
        self, core: Core, now: float, fire: Callable[[float], None]
    ) -> None:
        mshrs = self._mshrs
        if mshrs > 1:
            # MLP core: stall when every MSHR is occupied, or when the next
            # read's address depends on an in-flight read (pointer chasing).
            core.retire_completed(now)
            if core.mshr_full(mshrs):
                self.schedule(core.earliest_completion(), fire)
                return
            if (
                core.has_next()
                and core.next_is_dependent()
                and core.last_read_done > now
            ):
                self.schedule(core.last_read_done, fire)
                return

        address, is_write, pc = core.next_record()
        if is_write:
            # Posted writeback: the design handles it off the critical path.
            self.design.handle(
                MemoryRequest(address, True, pc, core.core_id, now)
            )
            completed = now + self._write_issue_cycles
        else:
            # Demand read: L3 lookup (a miss, by trace construction), then
            # the DRAM-cache design.
            arrival = now + self._l3_latency
            outcome = self.design.handle(
                MemoryRequest(address, False, pc, core.core_id, arrival)
            )
            done = outcome.done
            completed = done if done >= arrival else arrival
            if mshrs > 1:
                core.outstanding.append(completed)
            if completed > core.last_read_done:
                core.last_read_done = completed
        if completed > core.finish_time:
            core.finish_time = completed
        if core.has_next():
            if mshrs > 1 and not is_write:
                # Compute overlaps the outstanding miss; the next record
                # issues after the gap, subject to MSHR availability.
                next_at = now + core.peek_gap()
            else:
                next_at = completed + core.peek_gap()
            self.schedule(next_at, fire)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _collect(self) -> SimResult:
        per_core = [core.finish_time for core in self._cores]
        cycles = sum(per_core) / len(per_core) if per_core else 0.0
        design = self.design
        timed_fraction = 1.0 - self.warmup_fraction
        instructions = int(self.workload.total_instructions * timed_fraction)

        scenarios = {
            key: design.stats.counter(key).value
            for key in _SCENARIO_KEYS
            if key in design.stats.counters
        }
        elapsed = max(per_core) if per_core else 0.0
        energy = system_energy(self.memory, self.stacked)
        result = SimResult(
            workload=self.workload.name,
            design=design.name,
            cycles=cycles,
            per_core_cycles=per_core,
            instructions=instructions,
            read_hit_rate=design.read_hit_rate,
            overall_hit_rate=design.overall_hit_rate,
            avg_hit_latency=design.avg_hit_latency,
            avg_read_latency=design.avg_read_latency,
            memory_reads=design.stats.counter("memory_reads").value,
            memory_writes=design.stats.counter("memory_writes").value,
            wasted_memory_reads=design.stats.counter("wasted_memory_reads").value,
            stacked_row_hit_rate=self.stacked.row_hit_rate,
            stacked_bus_utilization=self.stacked.bus_utilization(elapsed),
            predictor_scenarios=scenarios,
            design_stats=design.stats.as_dict(),
            memory_energy_nj=energy["memory"].total_nj,
            stacked_energy_nj=energy["stacked"].total_nj,
            hit_latency_p50=design.hit_latency_hist.percentile(0.50),
            hit_latency_p95=design.hit_latency_hist.percentile(0.95),
            read_latency_p95=design.read_latency_hist.percentile(0.95),
            stage_latency_means=design.stage_means(),
            stage_latency_p95=design.stage_p95s(),
            unattributed_cycles=design.unattributed_cycles,
            heap_events=self.events_processed,
        )
        if self.checker is not None:
            self.checker.check_final(self, result)
        return result
