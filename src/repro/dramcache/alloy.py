"""Alloy Cache timing design (paper Sections 4-5).

Each access streams one TAD — tag and data in a single burst of five 16 B
beats — so there is no tag serialization: a hit completes when the TAD
arrives. The Memory Access Predictor decides, per L3 read miss, whether to
launch the off-chip access in parallel (PAM) or wait for the tag check
(SAM). On a parallel access, memory data cannot be consumed before the tag
check confirms the line is not dirty in the cache, so the completion time is
``max(tad.done, mem.done)``.

Variants:
* ``burst_beats=8`` — Section 6.5's power-of-two burst restriction (128 B).
* ``ways=2`` — Section 6.7's two-way Alloy (streams two TADs, ~2x burst);
  wider ways (any divisor of 28) scale the same streamed-TAD scheme.
* ``predictor`` — any of :mod:`repro.core.predictors`, the MissMap
  (Figure 6's Alloy+MissMap), or ``None`` for no prediction (pure SAM with
  zero predictor latency).
"""

from __future__ import annotations

from typing import Union

from repro.cache.missmap import MissMap
from repro.core.alloy import AlloyCache
from repro.core.predictors import MemoryAccessPredictor, PerfectPredictor
from repro.dramcache.base import AccessOutcome, DramCacheDesign, RowMapper
from repro.lifecycle import (
    STAGE_DATA,
    STAGE_MEMORY,
    STAGE_PREDICTOR,
    STAGE_TAG,
    LatencyBreakdown,
)


#: Canonical short labels for predictor classes, matching the factory's
#: design names (``alloy-map-i`` etc.).
_PREDICTOR_LABELS = {
    "SamPredictor": "sam",
    "PamPredictor": "pam",
    "MapGPredictor": "map-g",
    "MapIPredictor": "map-i",
    "PerfectPredictor": "perfect",
}

#: Table 5 scenario keys by (predicted_memory, actual_memory); hoisted to
#: module scope so the per-read classification is a tuple-keyed dict hit.
_SCENARIO_KEYS = {
    (True, True): "pred_mem_actual_mem",
    (True, False): "pred_mem_actual_cache",
    (False, True): "pred_cache_actual_mem",
    (False, False): "pred_cache_actual_cache",
}


class AlloyCacheDesign(DramCacheDesign):
    """Direct-mapped TAD cache with dynamic access-model prediction."""

    def __init__(
        self,
        config,
        stacked,
        memory,
        schedule,
        predictor: Union[MemoryAccessPredictor, MissMap, None] = None,
        ways: int = 1,
        burst_beats: int = 0,
    ) -> None:
        pieces = ["alloy"]
        if ways != 1:
            pieces.append(f"{ways}way")
        if burst_beats:
            pieces.append(f"burst{burst_beats}")
        if isinstance(predictor, MemoryAccessPredictor):
            pieces.append(_PREDICTOR_LABELS[type(predictor).__name__])
        elif isinstance(predictor, MissMap):
            pieces.append("missmap")
        else:
            pieces.append("nopred")
        self.name = "-".join(pieces)
        super().__init__(config, stacked, memory, schedule)

        self.cache = AlloyCache(config.scaled_cache_bytes, ways=ways)
        self.predictor = predictor
        self.burst_beats = burst_beats
        self._rows = RowMapper(stacked)
        # --- hot-path precomputation -----------------------------------
        geometry = self.cache.geometry
        self._num_sets = geometry.num_sets
        self._sets_per_row = geometry.sets_per_row
        # The TAD transfer depends only on the set's slot within its row.
        self._burst_by_slot = [
            geometry.transfer_for_set(slot, burst_beats).bus_beats
            for slot in range(geometry.sets_per_row)
        ]
        # RowLocation is immutable, so one instance per cache row can be
        # cached and shared across accesses.
        self._loc_by_row: dict = {}
        # Predictor dispatch resolved once instead of isinstance per read.
        if predictor is None:
            self._pred_kind = 0
        elif isinstance(predictor, MissMap):
            self._pred_kind = 1
        elif predictor.is_perfect:
            self._pred_kind = 2
        else:
            self._pred_kind = 3
            self._pred_latency = max(predictor.latency_cycles, 0)
        self._trainable = isinstance(predictor, MemoryAccessPredictor)
        self._missmap = predictor if isinstance(predictor, MissMap) else None
        self._missmap_latency = config.missmap_latency

    # ------------------------------------------------------------------
    def _set_and_loc(self, line_address: int):
        set_index = line_address % self._num_sets
        row = set_index // self._sets_per_row
        loc = self._loc_by_row.get(row)
        if loc is None:
            loc = self._loc_by_row[row] = self._rows.locate(row)
        return set_index, loc

    def data_location(self, line_address: int):
        return self._set_and_loc(line_address)[1]

    def _tad_burst(self, set_index: int) -> int:
        return self._burst_by_slot[set_index % self._sets_per_row]

    def _predict_memory(self, now: float, core_id: int, pc: int, actual_miss: bool):
        """Run the predictor; returns (prediction, time prediction is ready).

        ``None`` predictor means no prediction machinery at all: behave like
        SAM without even the 1-cycle predictor latency (Figure 6's
        "Alloy+NoPred"). A MissMap predictor costs an L3 access and is exact.
        """
        kind = self._pred_kind
        if kind == 3:  # MAP family (the common case)
            return self.predictor.predict(core_id, pc), now + self._pred_latency
        if kind == 0:
            return False, now
        if kind == 1:  # MissMap: exact, at an L3 access's cost
            return actual_miss, now + self._missmap_latency
        assert isinstance(self.predictor, PerfectPredictor)
        return self.predictor.predict_with_oracle(actual_miss), now

    def _train(self, core_id: int, pc: int, went_to_memory: bool) -> None:
        if self._trainable:
            self.predictor.update(core_id, pc, went_to_memory)

    def _classify(self, predicted_memory: bool, actual_memory: bool) -> None:
        """Table 5 scenario accounting."""
        self.stats.counter(_SCENARIO_KEYS[(predicted_memory, actual_memory)]).add()

    # ------------------------------------------------------------------
    def warm(self, line_address, is_write, pc, core_id):
        hit = self.cache.lookup(line_address, is_write=is_write)
        if is_write:
            return
        if not hit:
            evicted = self.cache.fill(line_address)
            missmap = self._missmap
            if missmap is not None:
                missmap.insert(line_address)
                if evicted.valid:
                    missmap.remove(evicted.line_address)
        self._train(core_id, pc, went_to_memory=not hit)

    # ------------------------------------------------------------------
    def access(self, now, line_address, is_write, pc, core_id):
        set_index, loc = self._set_and_loc(line_address)
        burst = self._burst_by_slot[set_index % self._sets_per_row]
        hit = self.cache.lookup(line_address, is_write=is_write)

        if is_write:
            # Writebacks always use SAM and are off the critical path: probe
            # the TAD, then either write it (hit) or send to memory (miss).
            self._record_write(hit)
            self.schedule(now, lambda t: self._write_traffic(t, line_address, hit))
            return AccessOutcome(done=now, cache_hit=hit, served_by_memory=not hit)

        predicted_memory, pred_ready = self._predict_memory(
            now, core_id, pc, actual_miss=not hit
        )
        self._classify(predicted_memory, actual_memory=not hit)
        breakdown = LatencyBreakdown({STAGE_PREDICTOR: pred_ready - now})

        # The TAD probe always happens (tags live in the TAD).
        tad = self.stacked.access(pred_ready, loc, burst)
        if tad.row_hit:
            self.stats.counter("tad_row_hits").add()

        if hit:
            if predicted_memory:
                # Wasted parallel memory access: bandwidth cost only.
                self._memory_read(pred_ready, line_address)
                self.stats.counter("wasted_memory_reads").add()
            done = tad.done
            # The TAD stream *is* the data access: no tag serialization.
            breakdown.attribute_device(tad, STAGE_DATA)
            self._record_read(hit=True, latency=done - now)
            self._train(core_id, pc, went_to_memory=False)
            return AccessOutcome(
                done=done,
                cache_hit=True,
                served_by_memory=False,
                predicted_memory=predicted_memory,
                breakdown=breakdown,
            )

        if predicted_memory:
            mem = self._memory_read(pred_ready, line_address)
            # Memory data is usable only after the tag check rules out a
            # dirty copy in the cache.
            done = max(mem.done, tad.done)
            # Attribute the critical path; the shorter leg fully overlaps.
            # When the tag check gates consumption, the probe is pure tag
            # serialization; otherwise the memory access alone is exposed.
            if tad.done > mem.done:
                breakdown.attribute_device(tad, STAGE_TAG)
            else:
                breakdown.attribute_device(mem, STAGE_MEMORY)
        else:
            # Serial Access Model: the probe rules the access a miss before
            # memory is consulted — tag serialization, then memory.
            breakdown.attribute_device(tad, STAGE_TAG)
            mem = self._memory_read(tad.done, line_address)  # serialized (SAM)
            breakdown.attribute_device(mem, STAGE_MEMORY)
            done = mem.done
        self._record_read(hit=False, latency=done - now)
        self._train(core_id, pc, went_to_memory=True)
        self.schedule(done, lambda t: self._fill(t, line_address))
        return AccessOutcome(
            done=done,
            cache_hit=False,
            served_by_memory=True,
            predicted_memory=predicted_memory,
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------
    def _write_traffic(self, now: float, line_address: int, hit: bool) -> None:
        set_index, loc = self._set_and_loc(line_address)
        burst = self._tad_burst(set_index)
        probe = self.stacked.access(now, loc, burst, background=True)
        if hit:
            self.stacked.access(probe.done, loc, burst, is_write=True, background=True)
        else:
            self._memory_write(probe.done, line_address)

    def _fill(self, now: float, line_address: int) -> None:
        """Write the new TAD; the probe already streamed the victim out, so
        a dirty victim goes straight to memory with no extra cache read."""
        set_index, loc = self._set_and_loc(line_address)
        burst = self._burst_by_slot[set_index % self._sets_per_row]
        evicted = self.cache.fill(line_address)
        missmap = self._missmap
        if missmap is not None:
            missmap.insert(line_address)
            if evicted.valid:
                missmap.remove(evicted.line_address)
        if evicted.valid and evicted.dirty:
            self._schedule_memory_write(now, evicted.line_address)
        self.stacked.access(now, loc, burst, is_write=True, background=True)
        self.stats.counter("fills").add()
