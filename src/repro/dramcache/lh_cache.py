"""LH-Cache: tags-in-DRAM with a MissMap (Loh & Hill, Sections 2.2 / 2.4).

Organization: each 2 KB stacked row holds 3 tag lines plus 29 data lines and
forms one 29-way set. Every L3 miss first queries the MissMap embedded in
the L3 (24-cycle *Predictor Serialization Latency*, hit and miss alike).

* **Hit**: read the tag lines (ACT+CAS + 3-line burst), one cycle of tag
  check, then the data line — guaranteed a row-buffer hit by *Compound
  Access Scheduling* (the bank stays reserved between the two accesses).
  The replacement update (LRU/DIP) writes a tag line back, consuming
  bandwidth; the Table 1 random-replacement de-optimization drops it.
* **Miss**: the MissMap is exact, so the request goes straight to memory at
  t+24. The fill still needs the tag lines (victim selection + dirty check),
  then writes the data line and the updated tags — the ~4x per-access
  traffic of Section 2.5.

The direct-mapped de-optimization (Table 1) keeps the 3-tag-line row layout
but treats the 29 data lines of a row as 29 consecutive direct-mapped sets,
so only one tag line is streamed and spatially-local accesses get row-buffer
hits.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.missmap import MissMap
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.cache.set_assoc import SetAssocCache
from repro.dramcache.base import AccessOutcome, DramCacheDesign, RowMapper
from repro.lifecycle import (
    STAGE_DATA,
    STAGE_MEMORY,
    STAGE_PREDICTOR,
    STAGE_TAG,
    LatencyBreakdown,
)
from repro.units import LH_TAG_LINES, LH_WAYS, ROW_BUFFER_SIZE

#: One stacked-DRAM clock (2 CPU cycles) to compare the streamed-out tags
#: against the request address.
TAG_CHECK_CYCLES = 2


class LHCacheDesign(DramCacheDesign):
    """The Loh-Hill DRAM cache with an idealized MissMap."""

    def __init__(
        self,
        config,
        stacked,
        memory,
        schedule,
        ways: int = LH_WAYS,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        if ways not in (1, LH_WAYS):
            raise ValueError("LH-Cache supports 29-way or the 1-way variant")
        self.ways = ways
        if policy is None:
            policy = make_policy("dip") if ways > 1 else make_policy("lru")
        suffix = "" if ways == LH_WAYS else "-1way"
        if not policy.requires_update_traffic:
            suffix += "-rand"
        self.name = f"lh-cache{suffix}"
        super().__init__(config, stacked, memory, schedule)

        capacity = config.scaled_cache_bytes
        self.num_rows = capacity // ROW_BUFFER_SIZE
        self.sets_per_row = 1 if ways == LH_WAYS else LH_WAYS
        num_sets = self.num_rows * self.sets_per_row
        self.tags = SetAssocCache(num_sets, ways, policy=policy, name=self.name)
        self.missmap = MissMap(name=f"{self.name}-missmap")
        self._rows = RowMapper(stacked)
        #: Tag lines streamed per access: all 3 for the 29-way set, 1 for
        #: the direct-mapped variant.
        self.tag_lines_read = LH_TAG_LINES if ways == LH_WAYS else 1
        # --- hot-path precomputation -----------------------------------
        self._num_sets = num_sets
        self._missmap_latency = config.missmap_latency
        self._missmap_latency_f = float(config.missmap_latency)
        line_burst = stacked.timings.line_burst
        self._tag_burst_v = self.tag_lines_read * line_burst
        self._line_burst_v = line_burst
        self._update_burst_v = max(line_burst // 4, 1)
        self._requires_update = policy.requires_update_traffic
        self._loc_by_row: dict = {}

    # ------------------------------------------------------------------
    def _row_of(self, line_address: int):
        row = (line_address % self._num_sets) // self.sets_per_row
        loc = self._loc_by_row.get(row)
        if loc is None:
            loc = self._loc_by_row[row] = self._rows.locate(row)
        return loc

    def data_location(self, line_address: int):
        return self._row_of(line_address)

    def _tag_burst(self) -> int:
        return self._tag_burst_v

    def _line_burst(self) -> int:
        return self._line_burst_v

    def _update_burst(self) -> int:
        """Replacement-state update: one 16 B beat (Table 4: 256+16 bytes)."""
        return self._update_burst_v

    # ------------------------------------------------------------------
    def warm(self, line_address, is_write, pc, core_id):
        hit = self.tags.lookup(line_address, is_write=is_write)
        if not hit and not is_write:
            evicted = self.tags.fill(line_address)
            self.missmap.insert(line_address)
            if evicted.valid:
                self.missmap.remove(evicted.line_address)

    # ------------------------------------------------------------------
    def access(self, now, line_address, is_write, pc, core_id):
        t0 = now + self._missmap_latency  # PSL on hits and misses
        present = self.missmap.contains(line_address)
        hit = self.tags.lookup(line_address, is_write=is_write)
        # The idealized MissMap is exact; keep ourselves honest.
        assert present == hit, "MissMap diverged from the tag array"

        if is_write:
            self._record_write(hit)
            if hit:
                self.schedule(t0, lambda t: self._write_hit_traffic(t, line_address))
            else:
                self._schedule_memory_write(t0, line_address)
            return AccessOutcome(done=now, cache_hit=hit, served_by_memory=not hit)

        # Predictor Serialization Latency: the MissMap gates both paths.
        breakdown = LatencyBreakdown(
            {STAGE_PREDICTOR: self._missmap_latency_f}
        )
        if hit:
            loc = self._row_of(line_address)
            stacked_access = self.stacked.access
            tag_read = stacked_access(t0, loc, self._tag_burst_v)
            breakdown.attribute_device(tag_read, STAGE_TAG)
            breakdown.add(STAGE_TAG, TAG_CHECK_CYCLES)
            # Compound Access Scheduling: the data access reuses the open row.
            data = stacked_access(
                tag_read.done + TAG_CHECK_CYCLES, loc, self._line_burst_v
            )
            breakdown.attribute_device(data, STAGE_DATA)
            if not data.row_hit:
                self.stats.counter("compound_row_reopens").add()
            if self._requires_update:
                # LRU/DIP state lives in the tag lines: a 16-byte update
                # write (one bus beat, per Table 4's 256+16 bytes/access)
                # rides the compound access and holds the bank, delaying
                # later demand accesses — the contention that the Table 1
                # random-replacement de-optimization removes.
                stacked_access(data.done, loc, self._update_burst_v, is_write=True)
                self.stats.counter("replacement_updates").add()
            self._record_read(hit=True, latency=data.done - now)
            return AccessOutcome(
                done=data.done,
                cache_hit=True,
                served_by_memory=False,
                breakdown=breakdown,
            )

        mem = self._memory_read(t0, line_address)
        breakdown.attribute_device(mem, STAGE_MEMORY)
        self._record_read(hit=False, latency=mem.done - now)
        self.schedule(mem.done, lambda t: self._fill(t, line_address))
        return AccessOutcome(
            done=mem.done,
            cache_hit=False,
            served_by_memory=True,
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------
    def _write_hit_traffic(self, now: float, line_address: int) -> None:
        """A write hit reads the tags, writes the data line, updates tags."""
        loc = self._row_of(line_address)
        tag_read = self.stacked.access(now, loc, self._tag_burst(), background=True)
        self.stacked.access(
            tag_read.done + TAG_CHECK_CYCLES,
            loc,
            self._line_burst(),
            is_write=True,
            background=True,
        )

    def _fill(self, now: float, line_address: int) -> None:
        """Install a returned line: tag read, data write, tag write, victim."""
        loc = self._row_of(line_address)
        stacked_access = self.stacked.access
        # Victim selection and dirty check require the tag lines even though
        # the MissMap already ruled the access a miss (Section 5.1).
        tag_read = stacked_access(now, loc, self._tag_burst_v, background=True)
        evicted = self.tags.fill(line_address)
        self.missmap.insert(line_address)
        t = tag_read.done + TAG_CHECK_CYCLES
        if evicted.valid:
            self.missmap.remove(evicted.line_address)
            if evicted.dirty:
                victim = stacked_access(
                    t, loc, self._line_burst_v, background=True
                )
                self.stats.counter("victim_reads").add()
                self._schedule_memory_write(victim.done, evicted.line_address)
                t = victim.done
        data_write = stacked_access(
            t, loc, self._line_burst_v, is_write=True, background=True
        )
        stacked_access(
            data_write.done, loc, self._line_burst_v, is_write=True, background=True
        )  # tag-line update
        self.stats.counter("fills").add()
