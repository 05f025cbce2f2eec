"""Batch simulation engine: vectorized precompute + a compact scalar core.

The interpreter in :mod:`repro.sim.system` walks one heap event at a time
through layers of design/device method calls. This engine restructures that
loop for throughput while producing **bit-identical** :class:`SimResult`s:

* **Vectorized precompute** (numpy): everything independent of the event
  timeline is computed for the whole trace up front — address decode for
  off-chip memory, set-index/stacked-row decode per design, TAD burst
  lengths, and MAP-I predictor table indices.
* **Compact scalar core**: the serial part (bank/bus timeline reservations,
  replacement state, predictor training) runs in one flat event loop over
  integer-coded heap tuples, with the per-access device reservation
  (:func:`_device_fns`) written expression for expression like
  :meth:`repro.dram.device.DramDevice.access` — ``repro check`` diffs the
  two on randomized streams.
* **Deferred statistics**: latency samples are appended to typed
  ``array('d')`` buffers in event order and folded into the
  accumulators/histograms once at the end, over zero-copy numpy views.
  ``np.add.accumulate`` is a strict left fold in sample order, so float
  sums match the interpreter's per-sample ``total += v`` bit-for-bit.
* **Array warmup**: for the direct-mapped designs (IDEAL-LO and the
  1-way, non-victim Alloy) the post-warmup tags, dirty bits and store
  counters are computed with numpy instead of a per-record ``design.warm``
  replay (:func:`_warm_arrays`), and MAP-I/MAP-G train in one flat loop.
* **Lean cores**: no per-record :class:`~repro.sim.core_model.Core`
  cursors; a run keeps one :class:`CoreOutcome` per core.

Bit-exactness is defined over the :class:`SimResult` surface (what
``repro golden`` hashes and the differential fuzzer compares). Device
*accumulators* (queue-delay samples etc.) are not observable there — only
the device counters feed energy/utilization — so the inlined reservations
skip accumulator sampling; everything observable is reproduced exactly.

Engine selection lives in :meth:`repro.sim.system.System.run`; this module's
:func:`run` returns ``None`` when a configuration is outside the supported
envelope (verify runs, unknown design or policy types), and the caller
falls back to the interpreter. The envelope covers every design family —
including multi-way Alloy, the victim-buffer variant and MLP cores
(``mshrs_per_core > 1``, handled by a shared per-core in-flight list in
each kernel's core-event prologue).
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from itertools import repeat
from typing import List, NamedTuple, Optional

import numpy as np

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.missmap import LINES_PER_SEGMENT as _MM_LINES_PER_SEGMENT
from repro.cache.missmap import MissMap
from repro.cache.replacement import DIPPolicy, LRUPolicy, RandomPolicy
from repro.core.predictors import (
    MAC_MAX,
    MapGPredictor,
    MapIPredictor,
    PamPredictor,
    PerfectPredictor,
    SamPredictor,
)
from repro.dramcache.alloy import AlloyCacheDesign, _SCENARIO_KEYS
from repro.dramcache.alloy_victim import VICTIM_HIT_CYCLES, AlloyVictimDesign
from repro.dramcache.base import (
    ATTRIBUTION_EPSILON,
    LATENCY_BUCKETS,
    DramCacheDesign,
)
from repro.dramcache.ideal_lo import IdealLODesign
from repro.dramcache.lh_cache import LHCacheDesign, TAG_CHECK_CYCLES
from repro.dramcache.no_cache import NoCacheDesign
from repro.dramcache.sram_tag import SramTagDesign
from repro.lifecycle import STAGES
from repro.units import LINE_SIZE

#: Every factory design the engine has a kernel for (all but the L3-filter
#: design ``perfect-l3``). ``repro check`` rotates its system seeds through
#: this tuple in order, so its first six entries span the kernel families.
BATCH_DESIGNS = (
    "alloy-map-i",
    "lh-cache",
    "sram-tag",
    "ideal-lo",
    "alloy-2way",
    "alloy-victim16",
    "no-cache",
    "sram-tag-1way",
    "lh-cache-rand",
    "lh-cache-1way",
    "ideal-lo-notag",
    "alloy-nopred",
    "alloy-missmap",
    "alloy-sam",
    "alloy-pam",
    "alloy-map-g",
    "alloy-perfect",
    "alloy-burst8",
    "alloy-4way",
    "alloy-victim64",
)

#: Replacement policies whose lookup-path side effects the kernels inline.
_POLICIES = (DIPPolicy, LRUPolicy, RandomPolicy)

#: MAP-family predictor types with an inlined predict/train path.
_MAP_TYPES = (MapIPredictor, MapGPredictor, SamPredictor, PamPredictor)

# Heap event kinds (tuple layout: (when, seq, kind, a, b)).
_EV_CORE = 0  # a = core index
_EV_MEMWRITE = 1  # a = line address (posted off-chip writeback)
_EV_FILL = 2  # a = flat record index
_EV_STACKWRITE = 3  # a = flat record index (background stacked line write)
_EV_WTRAFFIC = 4  # a = flat record index, b = hit (Alloy write traffic)
_EV_WHT = 5  # a = flat record index (LH write-hit traffic)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(system) -> Optional["object"]:
    """Run ``system`` under the batch engine, or return ``None`` if the
    configuration is outside the supported envelope (caller falls back to
    the interpreter). All eligibility checks happen before any mutation."""
    if system.checker is not None:
        return None
    kernel = _select_kernel(system.design)
    if kernel is None:
        return None

    starts = system._warm(_warm_arrays)
    kernel(system, starts)
    system.engine_used = "batch"
    return system._collect()


def _select_kernel(design):
    kind = type(design)
    if kind is NoCacheDesign:
        return _run_no_cache
    if kind is IdealLODesign:
        return _run_ideal_lo
    if kind is SramTagDesign:
        if type(design.tags.policy) not in _POLICIES:
            return None
        return _run_sram
    if kind is LHCacheDesign:
        if type(design.tags.policy) not in _POLICIES:
            return None
        return _run_lh
    if kind is AlloyCacheDesign or kind is AlloyVictimDesign:
        if (
            design.cache.ways != 1
            and type(design.cache._store.policy) is not LRUPolicy
        ):
            return None
        if kind is AlloyVictimDesign and type(design.victims.policy) is not LRUPolicy:
            return None
        if design._pred_kind == 3 and type(design.predictor) not in _MAP_TYPES:
            return None
        return _run_alloy
    return None


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
def _flatten(system, starts, need_pcs):
    """Concatenate post-warmup per-core trace slices into flat arrays.

    Returns ``(A, G, W, P, D, base, n_reads, n_writes, A_np)`` where
    ``A``/``G``/``W`` are plain lists (native ints/floats/bools — list
    indexing beats numpy scalar extraction on the hot path), ``D`` is the
    per-record dependence-flag list (built only when the system models MLP,
    ``mshrs_per_core > 1`` — ``None`` otherwise), ``base`` holds per-core
    start offsets into the flat arrays (len = cores + 1), and ``A_np`` is
    kept as an array for the vectorized decodes. The single-core slices are
    views into the (possibly arena-shared) trace arrays; kernels never
    write through them.
    """
    need_dep = system._mshrs > 1
    parts_a, parts_g, parts_w, parts_p, parts_d = [], [], [], [], []
    base = [0]
    n_reads: List[int] = []
    n_writes: List[int] = []
    for core_id, trace in enumerate(system.workload.cores):
        split = starts[core_id]
        a = trace.addresses[split:]
        w = trace.is_write[split:]
        parts_a.append(a)
        parts_g.append(trace.gaps[split:])
        parts_w.append(w)
        if need_pcs:
            parts_p.append(trace.pcs[split:])
        if need_dep:
            parts_d.append(trace.dependent_flags()[split:])
        writes = int(w.sum())
        n_writes.append(writes)
        n_reads.append(len(a) - writes)
        base.append(base[-1] + len(a))
    a_np = np.concatenate(parts_a) if len(parts_a) > 1 else parts_a[0]
    g_np = np.concatenate(parts_g) if len(parts_g) > 1 else parts_g[0]
    w_np = np.concatenate(parts_w) if len(parts_w) > 1 else parts_w[0]
    pcs = None
    if need_pcs:
        p_np = np.concatenate(parts_p) if len(parts_p) > 1 else parts_p[0]
        pcs = p_np
    dep = None
    if need_dep:
        d_np = np.concatenate(parts_d) if len(parts_d) > 1 else parts_d[0]
        dep = d_np.tolist()
    return (
        a_np.tolist(),
        g_np.tolist(),
        w_np.tolist(),
        pcs,
        dep,
        base,
        n_reads,
        n_writes,
        a_np,
    )


def _mem_decode(addr_np, mapping):
    """Vectorized :meth:`AddressMapping.locate` over line addresses.

    Returns ``(bank_index, channel, row)`` lists, with ``bank_index``
    already flattened to ``channel * banks + bank`` (the device's internal
    bank timeline index).
    """
    chunk = addr_np // mapping.lines_per_row
    channel = chunk % mapping.channels
    per_channel = chunk // mapping.channels
    bank = per_channel % mapping.banks
    row = per_channel // mapping.banks
    bank_index = channel * mapping.banks + bank
    return bank_index.tolist(), channel.tolist(), row.tolist()


def _row_decode(row_np, device):
    """Vectorized :meth:`RowMapper.locate` over stacked cache-row ids."""
    channels = device.timings.channels
    banks = device.timings.banks_per_channel
    channel = row_np % channels
    per_channel = row_np // channels
    bank = per_channel % banks
    row = per_channel // banks
    bank_index = channel * banks + bank
    return bank_index.tolist(), channel.tolist(), row.tolist()


def _device_consts(dev):
    """Per-access constants of ``dev``, taken from its timings and its
    block-cap/watermark policy methods (ints, then the float copies the
    access results carry)."""
    timings = dev.timings
    t_act = timings.t_act
    act_conflict = timings.t_rp + t_act
    line_burst = timings.line_burst
    return (
        t_act,
        act_conflict,
        timings.t_cas,
        float(timings.t_cas),
        line_burst,
        dev._block_cap(),
        dev._watermark(),
        dev._bus_watermark(),
        int(line_burst * LINE_SIZE / line_burst),
        float(t_act),
        float(act_conflict),
        float(line_burst),
    )


def _flush_device(dev, n_acc, n_rh, n_act, n_rd, n_wr, n_bg, n_bus, n_bytes):
    """Add one kernel's device tallies to ``dev.stats`` (zero-guarded, so
    the counter set matches per-access ``Counter.add`` calls)."""
    stats = dev.stats
    _flush(stats, "accesses", n_acc)
    _flush(stats, "row_hits", n_rh)
    _flush(stats, "activations", n_act)
    _flush(stats, "read_accesses", n_rd)
    _flush(stats, "write_accesses", n_wr)
    _flush(stats, "background_accesses", n_bg)
    _flush(stats, "bus_cycles", n_bus)
    _flush(stats, "bytes_on_bus", n_bytes)


def _device_fns(dev):
    """Build ``(demand, background, flush, state)`` access closures over one
    device.

    Each closure is the arithmetic of :meth:`DramDevice.access` written
    expression for expression (bit-identical floats), skipping the
    accumulator sampling (not observable in :class:`SimResult`). ``demand``
    returns ``(done, row_hit, queue_cycles, service_cycles)`` pre-combined
    the way :meth:`LatencyBreakdown.attribute_device` folds them;
    ``background`` returns ``done`` alone.

    Bank/bus reservation horizons and the integer counter tallies live in
    closure-local lists and cells while the kernel runs (index/deref ops
    instead of attribute ops on the hot path); ``flush`` writes them back
    to the device so post-run consumers (stats, energy) see the usual
    state. Kernels must call ``flush`` after the event loop drains.
    """
    (
        t_act,
        act_conflict,
        t_cas,
        cas_f,
        line_burst,
        block_cap,
        watermark,
        bus_watermark,
        full_line_bytes,
        t_act_f,
        act_conflict_f,
        line_burst_f,
    ) = _device_consts(dev)
    banks = dev._banks
    buses = dev._buses
    open_rows = dev._open_row
    open_policy = dev.page_policy == "open"
    bank_df = [b.demand_free for b in banks]
    bank_af = [b.all_free for b in banks]
    bus_df = [b.demand_free for b in buses]
    bus_af = [b.all_free for b in buses]
    n_acc = n_rh = n_act = n_rd = n_wr = n_bg = n_bus = n_bytes = 0

    def demand(now, bank_idx, channel, row, burst_cycles, is_write):
        nonlocal n_acc, n_rh, n_act, n_rd, n_wr, n_bus, n_bytes
        open_row = open_rows[bank_idx]
        row_hit = open_row == row
        if row_hit:
            act_cycles = 0
            act_f = 0.0
        elif open_row is None:
            act_cycles = t_act
            act_f = t_act_f
        else:
            act_cycles = act_conflict
            act_f = act_conflict_f
        core_latency = act_cycles + t_cas
        bank_service = core_latency + burst_cycles
        free = bank_df[bank_idx]
        start = now if now >= free else free
        backlog = bank_af[bank_idx] - start
        if backlog > 0:
            blocked = backlog if backlog <= block_cap else block_cap
            drain = backlog - watermark
            start += blocked + (drain if drain > 0.0 else 0.0)
        bank_df[bank_idx] = start + bank_service
        free = bank_af[bank_idx]
        bank_af[bank_idx] = (free if free >= start else start) + bank_service
        data_ready = start + core_latency
        free = bus_df[channel]
        bus_start = data_ready if data_ready >= free else free
        backlog = bus_af[channel] - bus_start
        if backlog > 0:
            blocked = backlog if backlog <= line_burst else line_burst
            drain = backlog - bus_watermark
            bus_start += blocked + (drain if drain > 0.0 else 0.0)
        bus_df[channel] = bus_start + burst_cycles
        free = bus_af[channel]
        bus_af[channel] = (free if free >= bus_start else bus_start) + burst_cycles
        done = bus_start + burst_cycles
        open_rows[bank_idx] = row if open_policy else None
        n_acc += 1
        if row_hit:
            n_rh += 1
        else:
            n_act += 1
        if is_write:
            n_wr += 1
        else:
            n_rd += 1
        n_bus += burst_cycles
        if burst_cycles == line_burst:
            n_bytes += full_line_bytes
            burst_f = line_burst_f
        else:
            n_bytes += int(burst_cycles * LINE_SIZE / line_burst)
            burst_f = float(burst_cycles)
        return (
            done,
            row_hit,
            (start - now) + (bus_start - data_ready),
            (act_f + cas_f) + burst_f,
        )

    def background(now, bank_idx, channel, row, burst_cycles, is_write):
        nonlocal n_acc, n_rh, n_act, n_rd, n_wr, n_bg, n_bus, n_bytes
        open_row = open_rows[bank_idx]
        row_hit = open_row == row
        if row_hit:
            act_cycles = 0
        elif open_row is None:
            act_cycles = t_act
        else:
            act_cycles = act_conflict
        bank_service = act_cycles + t_cas + burst_cycles
        free = bank_af[bank_idx]
        start = now if now >= free else free
        bank_af[bank_idx] = start + bank_service
        data_ready = start + act_cycles + t_cas
        free = bus_af[channel]
        bus_start = data_ready if data_ready >= free else free
        bus_af[channel] = bus_start + burst_cycles
        done = bus_start + burst_cycles
        open_rows[bank_idx] = row if open_policy else None
        n_acc += 1
        if row_hit:
            n_rh += 1
        else:
            n_act += 1
        if is_write:
            n_wr += 1
        else:
            n_rd += 1
        n_bg += 1
        n_bus += burst_cycles
        if burst_cycles == line_burst:
            n_bytes += full_line_bytes
        else:
            n_bytes += int(burst_cycles * LINE_SIZE / line_burst)
        return done

    def flush():
        for i, b in enumerate(banks):
            b.demand_free = bank_df[i]
            b.all_free = bank_af[i]
        for i, b in enumerate(buses):
            b.demand_free = bus_df[i]
            b.all_free = bus_af[i]
        _flush_device(dev, n_acc, n_rh, n_act, n_rd, n_wr, n_bg, n_bus, n_bytes)

    # The timeline lists, shared with the closures: kernels that inline
    # whole access sequences (the LH compound-access paths) operate on
    # these directly and flush their own counter tallies to the device.
    state = (bank_df, bank_af, bus_df, bus_af)
    return demand, background, flush, state


def _fold_acc(acc, values):
    """Fold ``values`` (a non-empty float64 array of samples in event
    order) into an accumulator, matching per-sample
    :meth:`~repro.stats.Accumulator.sample` calls bit for bit.

    ``np.add.accumulate`` adds strictly left to right, so its last element
    is the ``total += v`` sequence; ``np.sum`` (pairwise) and
    ``math.fsum`` (exact) round differently. A fresh accumulator's ``0.0``
    seed drops out (``0.0 + v == v``; the trailing ``+ 0.0`` turns an
    all-``-0.0`` sum into the interpreter's ``0.0``); any other running
    total is prepended so the fold starts from it.
    """
    lo = float(values.min())
    hi = float(values.max())
    acc.count += len(values)
    if acc.total:
        values = np.concatenate(((acc.total,), values))
    acc.total = float(np.add.accumulate(values)[-1]) + 0.0
    if acc.min is None or lo < acc.min:
        acc.min = lo
    if acc.max is None or hi > acc.max:
        acc.max = hi


def _add_hist(hist, values):
    """Bulk-sample a float64 array into a histogram: searchsorted
    (side='left') matches the per-sample ``bisect_left`` bucket choice."""
    edges = np.asarray(hist.edges, dtype=np.float64)
    idx = np.searchsorted(edges, values, side="left")
    binned = np.bincount(idx, minlength=len(hist.edges) + 1).tolist()
    counts = hist.counts
    for i, n in enumerate(binned):
        if n:
            counts[i] += n


def _writeback_reads(design, readlat, hitlat, misslat, stage_samples, unat):
    """Flush the deferred demand-read statistics into the design's stat
    groups, reproducing the interpreter's lazy-creation key sets (nothing
    is created when no demand read occurred).

    Every sample buffer is a kernel's ``array('d')`` (or a numpy column of
    a constant stage, e.g. ``np.zeros``); each is folded through one
    zero-copy float64 view (:func:`_fold_acc`, :func:`_add_hist`).
    """
    if not len(readlat):
        return
    stats = design.stats
    reads = np.frombuffer(readlat, dtype=np.float64)
    if len(hitlat):
        hits = np.frombuffer(hitlat, dtype=np.float64)
        stats.counter("read_hits").value += len(hits)
        _fold_acc(stats.accumulator("hit_latency"), hits)
        _add_hist(design.hit_latency_hist, hits)
    if len(misslat):
        misses = np.frombuffer(misslat, dtype=np.float64)
        stats.counter("read_misses").value += len(misses)
        _fold_acc(stats.accumulator("miss_latency"), misses)
    _fold_acc(stats.accumulator("read_latency"), reads)
    _add_hist(design.read_latency_hist, reads)
    stage_stats = design.stage_stats
    for stage, samples in zip(STAGES, stage_samples):
        values = np.frombuffer(samples, dtype=np.float64)
        _fold_acc(stage_stats.accumulator(stage), values)
        _add_hist(stage_stats.histogram(stage, LATENCY_BUCKETS), values)
    _fold_acc(
        stats.accumulator("unattributed_cycles"),
        np.frombuffer(unat, dtype=np.float64),
    )


def _flush(group, name, count):
    """Zero-guarded counter flush (preserves lazy counter creation)."""
    if count:
        group.counter(name).value += count


class CoreOutcome(NamedTuple):
    """What a batch run keeps of one core: the kernels walk flat arrays
    rather than per-core trace cursors, so a finished core is its outcome
    (:meth:`System._collect` reads ``finish_time``)."""

    finish_time: float
    last_read_done: float
    reads_issued: int
    writes_issued: int


def _finish_cores(system, finish, last_read, n_reads, n_writes):
    system._cores = [
        CoreOutcome(*outcome)
        for outcome in zip(finish, last_read, n_reads, n_writes)
    ]


# ----------------------------------------------------------------------
# Array warmup
# ----------------------------------------------------------------------
#: Alloy predictor types whose warmup training the array path reproduces
#: (``None`` is the no-predictor Alloy; SAM/PAM/perfect never train).
_WARM_PREDICTORS = (
    type(None),
    MissMap,
    MapIPredictor,
    MapGPredictor,
    SamPredictor,
    PamPredictor,
    PerfectPredictor,
)


def _warm_arrays(system, starts) -> bool:
    """:meth:`System._warm`'s hook on the batch path: bring
    ``system.design`` to its post-warmup state without the per-record
    ``design.warm`` replay. Returns False, having touched nothing, for the
    designs that keep that replay: the set-associative ones (SRAM-tag,
    LH-Cache, multi-way Alloy) and the victim-buffer Alloy.

    Replay order is core 0's warmup slice, then core 1's, and so on.
    IDEAL-LO and the 1-way Alloy warm a direct-mapped store
    (:func:`_warm_direct_mapped`); the Alloy then trains MAP-I or MAP-G on
    the warmup reads in one flat loop. Designs whose ``warm`` is the base
    no-op have nothing to replay.
    """
    design = system.design
    kind = type(design)
    if kind.warm is DramCacheDesign.warm:
        return True
    if kind is IdealLODesign:
        store, predictor = design.cache, None
    elif kind is AlloyCacheDesign and design.cache.ways == 1:
        store, predictor = design.cache._store, design.predictor
        if type(predictor) not in _WARM_PREDICTORS:
            return False
    else:
        return False
    if type(store) is not DirectMappedCache:
        return False
    if not sum(starts):
        return True
    slices = list(zip(system.workload.cores, starts))
    addr = np.concatenate([t.addresses[:k] for t, k in slices])
    write = np.concatenate([t.is_write[:k] for t, k in slices])
    write = write.astype(bool, copy=False)
    ptype = type(predictor)
    hit = _warm_direct_mapped(
        store,
        addr.astype(np.int64, copy=False),
        write,
        predictor if ptype is MissMap else None,
    )
    if ptype is not MapIPredictor and ptype is not MapGPredictor:
        return True
    reads = ~write
    miss = (~hit[reads]).tolist()
    core = np.repeat(np.arange(len(starts)), starts)[reads].tolist()
    if ptype is MapIPredictor:
        pcs = np.concatenate([t.pcs[:k] for t, k in slices])[reads]
        rows = map(predictor._mact.__getitem__, core)
        slots = _mact_indices(pcs, predictor._index_bits)
    else:  # MAP-G: one counter per core
        rows = repeat(predictor._mac)
        slots = core
    # MemoryAccessPredictor.update, read by read: saturating 3-bit MACs.
    for row, i, went in zip(rows, slots, miss):
        mac = row[i]
        if went:
            row[i] = mac + 1 if mac < MAC_MAX else MAC_MAX
        else:
            row[i] = mac - 1 if mac > 0 else 0
    return True


def _warm_direct_mapped(store, addr, write, missmap=None):
    """Apply a warmup replay to a :class:`DirectMappedCache` — for each
    record in order, ``lookup`` and then ``fill`` on a read miss — and
    return each record's hit flag, in replay order.

    A record hits iff the last earlier *read* to its set had its address
    (writes never fill); with no such read, the set's tag before warmup
    decides. Sorting the records stably by set makes each set's records
    one segment in replay order, so running maxima over positions find
    each record's last earlier read and its last earlier dirty-bit event
    (a write hit sets the bit, a fill clears it; a dirty bit read at a
    fill is a dirty eviction). The store's tags, dirty bits and counters
    end as the replay leaves them, counters created in the order the
    replay first touches them. A MissMap (which mirrors the tag array)
    swaps each changed set's old tag for its new one.
    """
    n = len(addr)
    sets = addr % store.num_sets
    order = np.argsort(sets, kind="stable")
    s = sets[order]
    a = addr[order]
    w = write[order]
    pos = np.arange(n)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(s[1:], s[:-1], out=head[1:])
    first = np.flatnonzero(head)  # segment starts
    seg = np.cumsum(head) - 1  # segment id per record
    seg_start = first[seg]
    touched = s[first].tolist()
    tags, dirty_bits = store._tags, store._dirty
    tag0 = np.array([tags[i] for i in touched], dtype=np.int64)
    dirty0 = np.array([dirty_bits[i] for i in touched], dtype=bool)

    def latest(mask):
        """(last ``mask`` position strictly before each record in its
        segment or -1, last ``mask`` position up to each record)."""
        upto = np.maximum.accumulate(np.where(mask, pos, -1))
        before = np.empty(n, dtype=np.int64)
        before[0] = -1
        before[1:] = upto[:-1]
        return np.where(before >= seg_start, before, -1), upto

    prev_read, read_upto = latest(~w)
    tag = np.where(prev_read >= 0, a[prev_read], tag0[seg])
    hit = tag == a
    fill = ~w & ~hit
    write_hit = w & hit
    prev_event, event_upto = latest(write_hit | fill)
    dirty = np.where(prev_event >= 0, write_hit[prev_event], dirty0[seg])
    evict = fill & (tag != -1)

    end = np.append(first[1:], n) - 1  # segment ends
    last_read = read_upto[end]
    last_event = event_upto[end]
    final_tag = np.where(last_read >= first, a[last_read], tag0)
    final_dirty = np.where(last_event >= first, write_hit[last_event], dirty0)
    for i, t, d in zip(touched, final_tag.tolist(), final_dirty.tolist()):
        tags[i] = t
        dirty_bits[i] = d
    if missmap is not None:
        changed = final_tag != tag0
        for old, new in zip(tag0[changed].tolist(), final_tag[changed].tolist()):
            missmap.insert(new)
            if old != -1:
                missmap.remove(old)

    tallies = []
    for rank, (name, mask) in enumerate(
        (
            ("hits", hit),
            ("misses", ~hit),
            ("fills", fill),
            ("evictions", evict),
            ("dirty_evictions", evict & dirty),
        )
    ):
        count = int(np.count_nonzero(mask))
        if count:
            tallies.append((int(order[mask].min()), rank, name, count))
    for _, _, name, count in sorted(tallies):
        store.stats.counter(name).value += count

    in_order = np.empty(n, dtype=bool)
    in_order[order] = hit
    return in_order


# ----------------------------------------------------------------------
# no-cache kernel
# ----------------------------------------------------------------------
def _run_no_cache(system, starts):
    design = system.design
    memory = system.memory
    mdemand, mbg, mflush, _ = _device_fns(memory)
    A, G, W, _, D, base, nr, nw, a_np = _flatten(system, starts, False)
    mb, mc, mr = _mem_decode(a_np, memory.mapping)
    mapping = memory.mapping
    m_lpr = mapping.lines_per_row
    m_ch = mapping.channels
    m_banks = mapping.banks
    mlb = memory.timings.line_burst
    l3 = system._l3_latency
    wic = system._write_issue_cycles
    num_cores = len(base) - 1
    ends = base[1:]
    cur = list(base[:-1])
    mshrs = system._mshrs
    mlp = mshrs > 1
    outst = [[] for _ in range(num_cores)] if mlp else None
    finish = [0.0] * num_cores
    last_read = [0.0] * num_cores
    # Every read misses: misslat is readlat, and the predictor/tag/DRAM$
    # stages are identically zero (np.zeros columns after the loop).
    readlat = array("d")
    stq, stm = array("d"), array("d")
    unat = array("d")
    ra = readlat.append
    qa, mma = stq.append, stm.append
    ua = unat.append
    eps = ATTRIBUTION_EPSILON
    heap = []
    push = heappush
    pop = heappop
    seq = 0
    for ci in range(num_cores):
        if cur[ci] < ends[ci]:
            gap = G[cur[ci]]
            push(heap, (gap if gap >= 0.0 else 0.0, seq, _EV_CORE, ci, 0))
            seq += 1
    events = 0
    now = 0.0
    n_mr = n_mw = n_wm = 0
    while heap:
        now, _, kind, a, b = pop(heap)
        events += 1
        if kind == 0:
            ci = a
            if mlp:
                # MLP prologue (interpreter's _handle_core): retire finished
                # reads, stall on a full MSHR file or a dependent read whose
                # producer is still in flight. Each stall is a reschedule —
                # a separate heap pop, like the interpreter's.
                out = outst[ci]
                if out:
                    out = [t for t in out if t > now]
                    outst[ci] = out
                    if len(out) >= mshrs:
                        push(heap, (min(out), seq, _EV_CORE, ci, 0))
                        seq += 1
                        continue
                if D[cur[ci]] and last_read[ci] > now:
                    push(heap, (last_read[ci], seq, _EV_CORE, ci, 0))
                    seq += 1
                    continue
            g = cur[ci]
            if W[g]:
                n_wm += 1
                push(heap, (now, seq, _EV_MEMWRITE, A[g], 0))
                seq += 1
                anchor = completed = now + wic
            else:
                arrival = now + l3
                n_mr += 1
                done, _, q, serv = mdemand(arrival, mb[g], mc[g], mr[g], mlb, False)
                lat = done - arrival
                ra(lat)
                qa(q)
                mma(serv)
                gap = lat - (q + serv)
                if gap < 0.0:
                    gap = -gap
                ua(gap if gap > eps else 0.0)
                completed = done if done >= arrival else arrival
                if mlp:
                    # Compute overlaps the outstanding miss: the next record
                    # issues relative to now, not the read's completion.
                    outst[ci].append(completed)
                    anchor = now
                else:
                    anchor = completed
                if completed > last_read[ci]:
                    last_read[ci] = completed
            if completed > finish[ci]:
                finish[ci] = completed
            g += 1
            cur[ci] = g
            if g < ends[ci]:
                nxt = anchor + G[g]
                push(heap, (nxt if nxt >= now else now, seq, _EV_CORE, ci, 0))
                seq += 1
        else:  # _EV_MEMWRITE
            n_mw += 1
            chunk = a // m_lpr
            ch = chunk % m_ch
            per = chunk // m_ch
            mbg(now, ch * m_banks + per % m_banks, ch, per // m_banks, mlb, True)
    stats = design.stats
    mflush()
    _flush(stats, "write_misses", n_wm)
    _flush(stats, "memory_reads", n_mr)
    _flush(stats, "memory_writes", n_mw)
    zeros = np.zeros(len(readlat))
    _writeback_reads(
        design, readlat, (), readlat, (stq, zeros, zeros, zeros, stm), unat
    )
    _finish_cores(system, finish, last_read, nr, nw)
    system.events_processed += events
    system.now = now


# ----------------------------------------------------------------------
# ideal-lo kernel
# ----------------------------------------------------------------------
def _run_ideal_lo(system, starts):
    design = system.design
    memory = system.memory
    stacked = system.stacked
    mdemand, mbg, mflush, _ = _device_fns(memory)
    sdemand, sbg, sflush, _ = _device_fns(stacked)
    A, G, W, _, D, base, nr, nw, a_np = _flatten(system, starts, False)
    mb, mc, mr = _mem_decode(a_np, memory.mapping)
    store = design.cache
    si_np = a_np % store.num_sets
    SI = si_np.tolist()
    sb, sc, sr = _row_decode(si_np // design.sets_per_row, stacked)
    mapping = memory.mapping
    m_lpr = mapping.lines_per_row
    m_ch = mapping.channels
    m_banks = mapping.banks
    mlb = memory.timings.line_burst
    slb = stacked.timings.line_burst
    tags = store._tags
    dirty = store._dirty
    l3 = system._l3_latency
    wic = system._write_issue_cycles
    num_cores = len(base) - 1
    ends = base[1:]
    cur = list(base[:-1])
    mshrs = system._mshrs
    mlp = mshrs > 1
    outst = [[] for _ in range(num_cores)] if mlp else None
    finish = [0.0] * num_cores
    last_read = [0.0] * num_cores
    readlat, hitlat, misslat = array("d"), array("d"), array("d")
    # Predictor/tag stages are identically zero for this design: they are
    # np.zeros columns after the loop instead of appended per read.
    stq, std, stm = array("d"), array("d"), array("d")
    unat = array("d")
    ra, ha, ma = readlat.append, hitlat.append, misslat.append
    qa, da, mma = stq.append, std.append, stm.append
    ua = unat.append
    eps = ATTRIBUTION_EPSILON
    heap = []
    push = heappush
    pop = heappop
    seq = 0
    for ci in range(num_cores):
        if cur[ci] < ends[ci]:
            gap = G[cur[ci]]
            push(heap, (gap if gap >= 0.0 else 0.0, seq, _EV_CORE, ci, 0))
            seq += 1
    events = 0
    now = 0.0
    dm_h = dm_m = dm_f = n_evict = n_devict = 0
    n_mr = n_mw = n_wh = n_wm = n_drh = n_fills = 0
    while heap:
        now, _, kind, a, b = pop(heap)
        events += 1
        if kind == 0:
            ci = a
            if mlp:
                # MLP prologue (interpreter's _handle_core): retire finished
                # reads, stall on a full MSHR file or a dependent read whose
                # producer is still in flight. Each stall is a reschedule —
                # a separate heap pop, like the interpreter's.
                out = outst[ci]
                if out:
                    out = [t for t in out if t > now]
                    outst[ci] = out
                    if len(out) >= mshrs:
                        push(heap, (min(out), seq, _EV_CORE, ci, 0))
                        seq += 1
                        continue
                if D[cur[ci]] and last_read[ci] > now:
                    push(heap, (last_read[ci], seq, _EV_CORE, ci, 0))
                    seq += 1
                    continue
            g = cur[ci]
            addr = A[g]
            i = SI[g]
            if W[g]:
                if tags[i] == addr:
                    dirty[i] = True
                    dm_h += 1
                    n_wh += 1
                    push(heap, (now, seq, _EV_STACKWRITE, g, 0))
                else:
                    dm_m += 1
                    n_wm += 1
                    push(heap, (now, seq, _EV_MEMWRITE, addr, 0))
                seq += 1
                anchor = completed = now + wic
            else:
                arrival = now + l3
                if tags[i] == addr:
                    dm_h += 1
                    done, row_hit, q, serv = sdemand(
                        arrival, sb[g], sc[g], sr[g], slb, False
                    )
                    if row_hit:
                        n_drh += 1
                    lat = done - arrival
                    ha(lat)
                    qa(q)
                    da(serv)
                    mma(0.0)
                else:
                    dm_m += 1
                    n_mr += 1
                    done, _, q, serv = mdemand(
                        arrival, mb[g], mc[g], mr[g], mlb, False
                    )
                    push(heap, (done if done >= now else now, seq, _EV_FILL, g, 0))
                    seq += 1
                    lat = done - arrival
                    ma(lat)
                    qa(q)
                    da(0.0)
                    mma(serv)
                ra(lat)
                gap = lat - (q + serv)
                if gap < 0.0:
                    gap = -gap
                ua(gap if gap > eps else 0.0)
                completed = done if done >= arrival else arrival
                if mlp:
                    # Compute overlaps the outstanding miss: the next record
                    # issues relative to now, not the read's completion.
                    outst[ci].append(completed)
                    anchor = now
                else:
                    anchor = completed
                if completed > last_read[ci]:
                    last_read[ci] = completed
            if completed > finish[ci]:
                finish[ci] = completed
            g += 1
            cur[ci] = g
            if g < ends[ci]:
                nxt = anchor + G[g]
                push(heap, (nxt if nxt >= now else now, seq, _EV_CORE, ci, 0))
                seq += 1
        elif kind == 1:  # _EV_MEMWRITE
            n_mw += 1
            chunk = a // m_lpr
            ch = chunk % m_ch
            per = chunk // m_ch
            mbg(now, ch * m_banks + per % m_banks, ch, per // m_banks, mlb, True)
        elif kind == 2:  # _EV_FILL (DirectMappedCache.fill inlined)
            addr_f = A[a]
            i = SI[a]
            old = tags[i]
            t = now
            if old != addr_f:
                if old != -1:
                    n_evict += 1
                    if dirty[i]:
                        n_devict += 1
                        vdone = sbg(t, sb[a], sc[a], sr[a], slb, False)
                        push(heap, (vdone if vdone >= now else now, seq,
                                    _EV_MEMWRITE, old, 0))
                        seq += 1
                        t = vdone
                tags[i] = addr_f
                dirty[i] = False
                dm_f += 1
            sbg(t, sb[a], sc[a], sr[a], slb, True)
            n_fills += 1
        else:  # _EV_STACKWRITE
            sbg(now, sb[a], sc[a], sr[a], slb, True)
    stats = design.stats
    mflush()
    sflush()
    _flush(stats, "row_hits", n_drh)
    _flush(stats, "write_hits", n_wh)
    _flush(stats, "write_misses", n_wm)
    _flush(stats, "memory_reads", n_mr)
    _flush(stats, "memory_writes", n_mw)
    _flush(stats, "fills", n_fills)
    _flush(store.stats, "hits", dm_h)
    _flush(store.stats, "misses", dm_m)
    _flush(store.stats, "fills", dm_f)
    _flush(store.stats, "evictions", n_evict)
    _flush(store.stats, "dirty_evictions", n_devict)
    zeros = np.zeros(len(readlat))
    _writeback_reads(
        design, readlat, hitlat, misslat, (stq, zeros, zeros, std, stm), unat
    )
    _finish_cores(system, finish, last_read, nr, nw)
    system.events_processed += events
    system.now = now


# ----------------------------------------------------------------------
# sram-tag kernel
# ----------------------------------------------------------------------
def _run_sram(system, starts):
    design = system.design
    memory = system.memory
    stacked = system.stacked
    mdemand, mbg, mflush, _ = _device_fns(memory)
    sdemand, sbg, sflush, s_state = _device_fns(stacked)
    s_bdf, s_baf, s_udf, s_uaf = s_state
    (
        s_tact,
        s_tconf,
        s_tcas,
        s_casf,
        s_lburst,
        s_blockcap,
        s_wmark,
        s_buswmark,
        s_flb,
        s_tactf,
        s_tconff,
        s_lburstf,
    ) = _device_consts(stacked)
    s_open = stacked._open_row
    s_openpol = stacked.page_policy == "open"
    A, G, W, _, D, base, nr, nw, a_np = _flatten(system, starts, False)
    mb, mc, mr = _mem_decode(a_np, memory.mapping)
    tags_cache = design.tags
    si_np = a_np % tags_cache.num_sets
    SI = si_np.tolist()
    sb, sc, sr = _row_decode(si_np // design.sets_per_row, stacked)
    mapping = memory.mapping
    m_lpr = mapping.lines_per_row
    m_ch = mapping.channels
    m_banks = mapping.banks
    mlb = memory.timings.line_burst
    slb = stacked.timings.line_burst
    # Stacked accesses are all one full line; the open-row outcome picks
    # one of three precomputed latency bundles (see _run_lh).
    core_rh = s_tcas
    core_act = s_tact + s_tcas
    core_conf = s_tconf + s_tcas
    bs_rh = core_rh + slb
    bs_act = core_act + slb
    bs_conf = core_conf + slb
    serv_rh = (0.0 + s_casf) + s_lburstf
    serv_act = (s_tactf + s_casf) + s_lburstf
    serv_conf = (s_tconff + s_casf) + s_lburstf
    # Chained same-bank access after an opener (dirty-victim fills).
    act2 = 0 if s_openpol else s_tact
    bs2 = act2 + s_tcas + slb
    sets = tags_cache._sets
    pol = tags_cache.policy
    pol_kind = 2 if type(pol) is DIPPolicy else (1 if type(pol) is LRUPolicy else 0)
    dp = pol.dueling_period if pol_kind == 2 else 1
    pmax = pol.psel_max if pol_kind == 2 else 0
    half = (pol.psel_max + 1) // 2 if pol_kind == 2 else 0
    bip_inv = pol.bip_epsilon_inverse if pol_kind == 2 else 0
    rng_randrange = pol._rng.randrange if pol_kind != 1 else None
    tsl = design.config.sram_tag_latency
    tslf = float(tsl)
    l3 = system._l3_latency
    wic = system._write_issue_cycles
    num_cores = len(base) - 1
    ends = base[1:]
    cur = list(base[:-1])
    mshrs = system._mshrs
    mlp = mshrs > 1
    outst = [[] for _ in range(num_cores)] if mlp else None
    finish = [0.0] * num_cores
    last_read = [0.0] * num_cores
    readlat, hitlat, misslat = array("d"), array("d"), array("d")
    # stage buffers: predictor is identically 0.0 and tag identically tslf
    # for every read — both np.zeros/np.full columns after the loop.
    stq, std, stm = array("d"), array("d"), array("d")
    unat = array("d")
    ra, ha, ma = readlat.append, hitlat.append, misslat.append
    qa, da, mma = stq.append, std.append, stm.append
    ua = unat.append
    eps = ATTRIBUTION_EPSILON
    heap = []
    push = heappush
    pop = heappop
    seq = 0
    for ci in range(num_cores):
        if cur[ci] < ends[ci]:
            gap = G[cur[ci]]
            push(heap, (gap if gap >= 0.0 else 0.0, seq, _EV_CORE, ci, 0))
            seq += 1
    events = 0
    now = 0.0
    tg_h = tg_m = tg_f = n_evict = n_devict = 0
    n_mr = n_mw = n_wh = n_wm = n_vr = n_fills = 0
    k_acc = k_rh = k_act = k_rd = k_wr = k_bg = k_bus = k_byt = 0
    while heap:
        now, _, kind, a, b = pop(heap)
        events += 1
        if kind == 0:
            ci = a
            if mlp:
                # MLP prologue (interpreter's _handle_core): retire finished
                # reads, stall on a full MSHR file or a dependent read whose
                # producer is still in flight. Each stall is a reschedule —
                # a separate heap pop, like the interpreter's.
                out = outst[ci]
                if out:
                    out = [t for t in out if t > now]
                    outst[ci] = out
                    if len(out) >= mshrs:
                        push(heap, (min(out), seq, _EV_CORE, ci, 0))
                        seq += 1
                        continue
                if D[cur[ci]] and last_read[ci] > now:
                    push(heap, (last_read[ci], seq, _EV_CORE, ci, 0))
                    seq += 1
                    continue
            g = cur[ci]
            addr = A[g]
            is_wr = W[g]
            if is_wr:
                t_tag = now + tsl
            else:
                arrival = now + l3
                t_tag = arrival + tsl
            i = SI[g]
            cset = sets[i]
            way = cset.index_map.get(addr)
            if way is None:
                tg_m += 1
                if pol_kind == 2:
                    r = i % dp
                    if r == 0:
                        if pol.psel < pmax:
                            pol.psel += 1
                    elif r == 1:
                        if pol.psel > 0:
                            pol.psel -= 1
                hit = False
            else:
                if pol_kind:
                    state = cset.policy_state
                    state.remove(way)
                    state.insert(0, way)
                if is_wr:
                    cset.dirty[way] = True
                tg_h += 1
                hit = True
            if is_wr:
                if hit:
                    n_wh += 1
                    push(heap, (t_tag, seq, _EV_STACKWRITE, g, 0))
                else:
                    n_wm += 1
                    push(heap, (t_tag, seq, _EV_MEMWRITE, addr, 0))
                seq += 1
                anchor = completed = now + wic
            else:
                if hit:
                    # Single stacked data read, ``demand`` closure inlined.
                    bk = sb[g]
                    ch = sc[g]
                    row = sr[g]
                    open_row = s_open[bk]
                    if open_row == row:
                        core = core_rh
                        service = bs_rh
                        serv = serv_rh
                        k_rh += 1
                    elif open_row is None:
                        core = core_act
                        service = bs_act
                        serv = serv_act
                        k_act += 1
                    else:
                        core = core_conf
                        service = bs_conf
                        serv = serv_conf
                        k_act += 1
                    free = s_bdf[bk]
                    start = t_tag if t_tag >= free else free
                    backlog = s_baf[bk] - start
                    if backlog > 0:
                        blocked = backlog if backlog <= s_blockcap else s_blockcap
                        drain = backlog - s_wmark
                        start += blocked + (drain if drain > 0.0 else 0.0)
                    s_bdf[bk] = start + service
                    free = s_baf[bk]
                    s_baf[bk] = (free if free >= start else start) + service
                    data_ready = start + core
                    free = s_udf[ch]
                    bus_start = data_ready if data_ready >= free else free
                    backlog = s_uaf[ch] - bus_start
                    if backlog > 0:
                        blocked = backlog if backlog <= s_lburst else s_lburst
                        drain = backlog - s_buswmark
                        bus_start += blocked + (drain if drain > 0.0 else 0.0)
                    s_udf[ch] = bus_start + slb
                    free = s_uaf[ch]
                    s_uaf[ch] = (free if free >= bus_start else bus_start) + slb
                    done = bus_start + slb
                    s_open[bk] = row if s_openpol else None
                    q = (start - t_tag) + (bus_start - data_ready)
                    k_acc += 1
                    k_rd += 1
                    k_bus += slb
                    k_byt += s_flb
                    lat = done - arrival
                    ha(lat)
                    da(serv)
                    mma(0.0)
                else:
                    n_mr += 1
                    done, _, q, serv = mdemand(
                        t_tag, mb[g], mc[g], mr[g], mlb, False
                    )
                    push(heap, (done, seq, _EV_FILL, g, 0))
                    seq += 1
                    lat = done - arrival
                    ma(lat)
                    da(0.0)
                    mma(serv)
                ra(lat)
                qa(q)
                gap = lat - (q + tslf + serv)
                if gap < 0.0:
                    gap = -gap
                ua(gap if gap > eps else 0.0)
                completed = done if done >= arrival else arrival
                if mlp:
                    # Compute overlaps the outstanding miss: the next record
                    # issues relative to now, not the read's completion.
                    outst[ci].append(completed)
                    anchor = now
                else:
                    anchor = completed
                if completed > last_read[ci]:
                    last_read[ci] = completed
            if completed > finish[ci]:
                finish[ci] = completed
            g += 1
            cur[ci] = g
            if g < ends[ci]:
                nxt = anchor + G[g]
                push(heap, (nxt if nxt >= now else now, seq, _EV_CORE, ci, 0))
                seq += 1
        elif kind == 1:  # _EV_MEMWRITE
            n_mw += 1
            chunk = a // m_lpr
            ch = chunk % m_ch
            per = chunk // m_ch
            mbg(now, ch * m_banks + per % m_banks, ch, per // m_banks, mlb, True)
        elif kind == 2:  # _EV_FILL (SetAssocCache.fill + on_insert inlined)
            addr_f = A[a]
            i = SI[a]
            cset = sets[i]
            ctags = cset.tags
            imap = cset.index_map
            way = imap.get(addr_f)
            ev_dirty = False
            ev_addr = -1
            if way is None:
                if -1 in ctags:
                    way = ctags.index(-1)
                else:
                    if pol_kind:
                        way = cset.policy_state[-1]
                    else:
                        way = rng_randrange(cset.policy_state)
                    ev_addr = ctags[way]
                    ev_dirty = cset.dirty[way]
                    del imap[ev_addr]
                    n_evict += 1
                    if ev_dirty:
                        n_devict += 1
                ctags[way] = addr_f
                imap[addr_f] = way
                cset.dirty[way] = False
                tg_f += 1
            if pol_kind == 1:
                state = cset.policy_state
                state.remove(way)
                state.insert(0, way)
            elif pol_kind == 2:
                state = cset.policy_state
                state.remove(way)
                r = i % dp
                if r == 0:
                    lru_ins = True
                elif r == 1:
                    lru_ins = False
                else:
                    lru_ins = pol.psel < half
                if lru_ins:
                    state.insert(0, way)
                elif rng_randrange(bip_inv) == 0:
                    state.insert(0, way)
                else:
                    state.append(way)
            bk = sb[a]
            ch = sc[a]
            row = sr[a]
            # First stacked access resolves the open row (``background``
            # closure inlined); a chained second access after a dirty
            # victim read statically row-hits/re-activates (act2).
            open_row = s_open[bk]
            if open_row == row:
                act = 0
                service = bs_rh
                k_rh += 1
            elif open_row is None:
                act = s_tact
                service = bs_act
                k_act += 1
            else:
                act = s_tconf
                service = bs_conf
                k_act += 1
            if ev_dirty:
                free = s_baf[bk]
                start = now if now >= free else free
                s_baf[bk] = start + service
                data_ready = start + act + s_tcas
                free = s_uaf[ch]
                bus_start = data_ready if data_ready >= free else free
                s_uaf[ch] = bus_start + slb
                vdone = bus_start + slb
                n_vr += 1
                push(heap, (vdone, seq, _EV_MEMWRITE, ev_addr, 0))
                seq += 1
                # Fill write, chained behind the victim read.
                free = s_baf[bk]
                start = vdone if vdone >= free else free
                s_baf[bk] = start + bs2
                data_ready = start + act2 + s_tcas
                free = s_uaf[ch]
                bus_start = data_ready if data_ready >= free else free
                s_uaf[ch] = bus_start + slb
                if s_openpol:
                    k_rh += 1
                else:
                    k_act += 1
                k_acc += 2
                k_rd += 1
                k_wr += 1
                k_bg += 2
                k_bus += slb + slb
                k_byt += s_flb + s_flb
            else:
                free = s_baf[bk]
                start = now if now >= free else free
                s_baf[bk] = start + service
                data_ready = start + act + s_tcas
                free = s_uaf[ch]
                bus_start = data_ready if data_ready >= free else free
                s_uaf[ch] = bus_start + slb
                k_acc += 1
                k_wr += 1
                k_bg += 1
                k_bus += slb
                k_byt += s_flb
            s_open[bk] = row if s_openpol else None
            n_fills += 1
        else:  # _EV_STACKWRITE
            bk = sb[a]
            ch = sc[a]
            row = sr[a]
            open_row = s_open[bk]
            if open_row == row:
                act = 0
                service = bs_rh
                k_rh += 1
            elif open_row is None:
                act = s_tact
                service = bs_act
                k_act += 1
            else:
                act = s_tconf
                service = bs_conf
                k_act += 1
            free = s_baf[bk]
            start = now if now >= free else free
            s_baf[bk] = start + service
            data_ready = start + act + s_tcas
            free = s_uaf[ch]
            bus_start = data_ready if data_ready >= free else free
            s_uaf[ch] = bus_start + slb
            s_open[bk] = row if s_openpol else None
            k_acc += 1
            k_wr += 1
            k_bg += 1
            k_bus += slb
            k_byt += s_flb
    stats = design.stats
    mflush()
    sflush()
    _flush_device(stacked, k_acc, k_rh, k_act, k_rd, k_wr, k_bg, k_bus, k_byt)
    _flush(stats, "write_hits", n_wh)
    _flush(stats, "write_misses", n_wm)
    _flush(stats, "memory_reads", n_mr)
    _flush(stats, "memory_writes", n_mw)
    _flush(stats, "victim_reads", n_vr)
    _flush(stats, "fills", n_fills)
    _flush(tags_cache.stats, "hits", tg_h)
    _flush(tags_cache.stats, "misses", tg_m)
    _flush(tags_cache.stats, "fills", tg_f)
    _flush(tags_cache.stats, "evictions", n_evict)
    _flush(tags_cache.stats, "dirty_evictions", n_devict)
    n = len(readlat)
    _writeback_reads(
        design, readlat, hitlat, misslat,
        (stq, np.zeros(n), np.full(n, tslf), std, stm), unat
    )
    _finish_cores(system, finish, last_read, nr, nw)
    system.events_processed += events
    system.now = now


# ----------------------------------------------------------------------
# lh-cache kernel
# ----------------------------------------------------------------------
def _run_lh(system, starts):
    design = system.design
    memory = system.memory
    stacked = system.stacked
    mdemand, mbg, mflush, _ = _device_fns(memory)
    sdemand, sbg, sflush, s_state = _device_fns(stacked)
    s_bdf, s_baf, s_udf, s_uaf = s_state
    (
        s_tact,
        s_tconf,
        s_tcas,
        s_casf,
        s_lburst,
        s_blockcap,
        s_wmark,
        s_buswmark,
        s_flb,
        s_tactf,
        s_tconff,
        s_lburstf,
    ) = _device_consts(stacked)
    s_open = stacked._open_row
    s_openpol = stacked.page_policy == "open"
    A, G, W, _, D, base, nr, nw, a_np = _flatten(system, starts, False)
    mb, mc, mr = _mem_decode(a_np, memory.mapping)
    tags_cache = design.tags
    si_np = a_np % tags_cache.num_sets
    SI = si_np.tolist()
    sb, sc, sr = _row_decode(si_np // design.sets_per_row, stacked)
    mapping = memory.mapping
    m_lpr = mapping.lines_per_row
    m_ch = mapping.channels
    m_banks = mapping.banks
    mlb = memory.timings.line_burst
    sets = tags_cache._sets
    pol = tags_cache.policy
    pol_kind = 2 if type(pol) is DIPPolicy else (1 if type(pol) is LRUPolicy else 0)
    dp = pol.dueling_period if pol_kind == 2 else 1
    pmax = pol.psel_max if pol_kind == 2 else 0
    half = (pol.psel_max + 1) // 2 if pol_kind == 2 else 0
    bip_inv = pol.bip_epsilon_inverse if pol_kind == 2 else 0
    rng_randrange = pol._rng.randrange if pol_kind != 1 else None
    missmap = design.missmap
    mm_present = missmap._present
    mml = design._missmap_latency
    mmlf = design._missmap_latency_f
    tag_b = design._tag_burst_v
    lb = design._line_burst_v
    ub = design._update_burst_v
    requpd = design._requires_update
    tcc = TAG_CHECK_CYCLES
    # Per-burst constants preresolved for the inlined stacked accesses.
    tag_bf = s_lburstf if tag_b == s_lburst else float(tag_b)
    lb_f = s_lburstf if lb == s_lburst else float(lb)
    tag_bytes = s_flb if tag_b == s_lburst else int(tag_b * LINE_SIZE / s_lburst)
    lb_bytes = s_flb if lb == s_lburst else int(lb * LINE_SIZE / s_lburst)
    ub_bytes = s_flb if ub == s_lburst else int(ub * LINE_SIZE / s_lburst)
    # Chained same-bank accesses after an opener: with the open-row policy
    # they hit the just-opened row; with the closed policy the bank is
    # always precharged (open row None -> a plain activation).
    act2 = 0 if s_openpol else s_tact
    act2_f = 0.0 if s_openpol else s_tactf
    core2 = act2 + s_tcas
    bs2_lb = core2 + lb
    bs2_ub = core2 + ub
    serv2_lb = (act2_f + s_casf) + lb_f
    # First access of each compound sequence resolves the open row at run
    # time; its derived latencies take one of three values.
    core_rh = s_tcas
    core_act = s_tact + s_tcas
    core_conf = s_tconf + s_tcas
    bst_rh = core_rh + tag_b
    bst_act = core_act + tag_b
    bst_conf = core_conf + tag_b
    servt_rh = (0.0 + s_casf) + tag_bf
    servt_act = (s_tactf + s_casf) + tag_bf
    servt_conf = (s_tconff + s_casf) + tag_bf
    tst_rh = servt_rh + tcc
    tst_act = servt_act + tcc
    tst_conf = servt_conf + tcc
    mm_pop = missmap._segment_population
    mm_pop_get = mm_pop.get
    mm_lps = _MM_LINES_PER_SEGMENT
    l3 = system._l3_latency
    wic = system._write_issue_cycles
    num_cores = len(base) - 1
    ends = base[1:]
    cur = list(base[:-1])
    mshrs = system._mshrs
    mlp = mshrs > 1
    outst = [[] for _ in range(num_cores)] if mlp else None
    finish = [0.0] * num_cores
    last_read = [0.0] * num_cores
    readlat, hitlat, misslat = array("d"), array("d"), array("d")
    # The predictor stage is identically the MissMap latency for every
    # read — an np.full column after the loop instead of appended per read.
    stq, stt, std, stm = (
        array("d"), array("d"), array("d"), array("d")
    )
    unat = array("d")
    ra, ha, ma = readlat.append, hitlat.append, misslat.append
    qa, ta, da, mma = stq.append, stt.append, std.append, stm.append
    ua = unat.append
    eps = ATTRIBUTION_EPSILON
    heap = []
    push = heappush
    pop = heappop
    seq = 0
    for ci in range(num_cores):
        if cur[ci] < ends[ci]:
            gap = G[cur[ci]]
            push(heap, (gap if gap >= 0.0 else 0.0, seq, _EV_CORE, ci, 0))
            seq += 1
    events = 0
    now = 0.0
    tg_h = tg_m = tg_f = n_evict = n_devict = 0
    n_mml = n_mmh = n_mmm = 0
    n_mr = n_mw = n_wh = n_wm = n_vr = n_fills = n_reopen = n_upd = 0
    # Stacked-device counter tallies for the inlined access sequences
    # (added to the device after ``sflush`` drains the closure-side ones).
    k_acc = k_rh = k_act = k_rd = k_wr = k_bg = k_bus = k_byt = 0
    while heap:
        now, _, kind, a, b = pop(heap)
        events += 1
        if kind == 0:
            ci = a
            if mlp:
                # MLP prologue (interpreter's _handle_core): retire finished
                # reads, stall on a full MSHR file or a dependent read whose
                # producer is still in flight. Each stall is a reschedule —
                # a separate heap pop, like the interpreter's.
                out = outst[ci]
                if out:
                    out = [t for t in out if t > now]
                    outst[ci] = out
                    if len(out) >= mshrs:
                        push(heap, (min(out), seq, _EV_CORE, ci, 0))
                        seq += 1
                        continue
                if D[cur[ci]] and last_read[ci] > now:
                    push(heap, (last_read[ci], seq, _EV_CORE, ci, 0))
                    seq += 1
                    continue
            g = cur[ci]
            addr = A[g]
            is_wr = W[g]
            if is_wr:
                t0 = now + mml
            else:
                arrival = now + l3
                t0 = arrival + mml
            n_mml += 1
            present = addr in mm_present
            if present:
                n_mmh += 1
            else:
                n_mmm += 1
            i = SI[g]
            cset = sets[i]
            way = cset.index_map.get(addr)
            if way is None:
                tg_m += 1
                if pol_kind == 2:
                    r = i % dp
                    if r == 0:
                        if pol.psel < pmax:
                            pol.psel += 1
                    elif r == 1:
                        if pol.psel > 0:
                            pol.psel -= 1
                hit = False
            else:
                if pol_kind:
                    state = cset.policy_state
                    state.remove(way)
                    state.insert(0, way)
                if is_wr:
                    cset.dirty[way] = True
                tg_h += 1
                hit = True
            assert present == hit, "MissMap diverged from the tag array"
            if is_wr:
                if hit:
                    n_wh += 1
                    push(heap, (t0, seq, _EV_WHT, g, 0))
                else:
                    n_wm += 1
                    push(heap, (t0, seq, _EV_MEMWRITE, addr, 0))
                seq += 1
                anchor = completed = now + wic
            else:
                if hit:
                    # Compound hit sequence, device arithmetic inlined
                    # (mirrors the ``demand`` closure expression-for-
                    # expression). All accesses touch one bank/row, so
                    # only the tag read resolves the open row at run time;
                    # the chained accesses statically row-hit (open
                    # policy) or re-activate (closed).
                    bk = sb[g]
                    ch = sc[g]
                    row = sr[g]
                    open_row = s_open[bk]
                    if open_row == row:
                        core = core_rh
                        service = bst_rh
                        serv_t = servt_rh
                        t_stage = tst_rh
                        k_rh += 1
                    elif open_row is None:
                        core = core_act
                        service = bst_act
                        serv_t = servt_act
                        t_stage = tst_act
                        k_act += 1
                    else:
                        core = core_conf
                        service = bst_conf
                        serv_t = servt_conf
                        t_stage = tst_conf
                        k_act += 1
                    free = s_bdf[bk]
                    start = t0 if t0 >= free else free
                    backlog = s_baf[bk] - start
                    if backlog > 0:
                        blocked = backlog if backlog <= s_blockcap else s_blockcap
                        drain = backlog - s_wmark
                        start += blocked + (drain if drain > 0.0 else 0.0)
                    s_bdf[bk] = start + service
                    free = s_baf[bk]
                    s_baf[bk] = (free if free >= start else start) + service
                    data_ready = start + core
                    free = s_udf[ch]
                    bus_start = data_ready if data_ready >= free else free
                    backlog = s_uaf[ch] - bus_start
                    if backlog > 0:
                        blocked = backlog if backlog <= s_lburst else s_lburst
                        drain = backlog - s_buswmark
                        bus_start += blocked + (drain if drain > 0.0 else 0.0)
                    s_udf[ch] = bus_start + tag_b
                    free = s_uaf[ch]
                    s_uaf[ch] = (free if free >= bus_start else bus_start) + tag_b
                    done_t = bus_start + tag_b
                    q_t = (start - t0) + (bus_start - data_ready)
                    # Data read, chained on the same bank.
                    now2 = done_t + tcc
                    free = s_bdf[bk]
                    start = now2 if now2 >= free else free
                    backlog = s_baf[bk] - start
                    if backlog > 0:
                        blocked = backlog if backlog <= s_blockcap else s_blockcap
                        drain = backlog - s_wmark
                        start += blocked + (drain if drain > 0.0 else 0.0)
                    s_bdf[bk] = start + bs2_lb
                    free = s_baf[bk]
                    s_baf[bk] = (free if free >= start else start) + bs2_lb
                    data_ready = start + core2
                    free = s_udf[ch]
                    bus_start = data_ready if data_ready >= free else free
                    backlog = s_uaf[ch] - bus_start
                    if backlog > 0:
                        blocked = backlog if backlog <= s_lburst else s_lburst
                        drain = backlog - s_buswmark
                        bus_start += blocked + (drain if drain > 0.0 else 0.0)
                    s_udf[ch] = bus_start + lb
                    free = s_uaf[ch]
                    s_uaf[ch] = (free if free >= bus_start else bus_start) + lb
                    done = bus_start + lb
                    q_d = (start - now2) + (bus_start - data_ready)
                    if s_openpol:
                        k_rh += 1
                    else:
                        k_act += 1
                        n_reopen += 1
                    if requpd:
                        # Replacement-metadata write (outputs discarded).
                        free = s_bdf[bk]
                        start = done if done >= free else free
                        backlog = s_baf[bk] - start
                        if backlog > 0:
                            blocked = (
                                backlog if backlog <= s_blockcap else s_blockcap
                            )
                            drain = backlog - s_wmark
                            start += blocked + (drain if drain > 0.0 else 0.0)
                        s_bdf[bk] = start + bs2_ub
                        free = s_baf[bk]
                        s_baf[bk] = (free if free >= start else start) + bs2_ub
                        data_ready = start + core2
                        free = s_udf[ch]
                        bus_start = data_ready if data_ready >= free else free
                        backlog = s_uaf[ch] - bus_start
                        if backlog > 0:
                            blocked = backlog if backlog <= s_lburst else s_lburst
                            drain = backlog - s_buswmark
                            bus_start += blocked + (drain if drain > 0.0 else 0.0)
                        s_udf[ch] = bus_start + ub
                        free = s_uaf[ch]
                        s_uaf[ch] = (free if free >= bus_start else bus_start) + ub
                        if s_openpol:
                            k_rh += 1
                        else:
                            k_act += 1
                        k_acc += 1
                        k_wr += 1
                        k_bus += ub
                        k_byt += ub_bytes
                        n_upd += 1
                    s_open[bk] = row if s_openpol else None
                    k_acc += 2
                    k_rd += 2
                    k_bus += tag_b + lb
                    k_byt += tag_bytes + lb_bytes
                    lat = done - arrival
                    ha(lat)
                    q = q_t + q_d
                    qa(q)
                    ta(t_stage)
                    da(serv2_lb)
                    mma(0.0)
                    gap = lat - (q + mmlf + t_stage + serv2_lb)
                else:
                    n_mr += 1
                    done, _, q, serv = mdemand(
                        t0, mb[g], mc[g], mr[g], mlb, False
                    )
                    push(heap, (done, seq, _EV_FILL, g, 0))
                    seq += 1
                    lat = done - arrival
                    ma(lat)
                    qa(q)
                    ta(0.0)
                    da(0.0)
                    mma(serv)
                    gap = lat - (q + mmlf + serv)
                ra(lat)
                if gap < 0.0:
                    gap = -gap
                ua(gap if gap > eps else 0.0)
                completed = done if done >= arrival else arrival
                if mlp:
                    # Compute overlaps the outstanding miss: the next record
                    # issues relative to now, not the read's completion.
                    outst[ci].append(completed)
                    anchor = now
                else:
                    anchor = completed
                if completed > last_read[ci]:
                    last_read[ci] = completed
            if completed > finish[ci]:
                finish[ci] = completed
            g += 1
            cur[ci] = g
            if g < ends[ci]:
                nxt = anchor + G[g]
                push(heap, (nxt if nxt >= now else now, seq, _EV_CORE, ci, 0))
                seq += 1
        elif kind == 1:  # _EV_MEMWRITE
            n_mw += 1
            chunk = a // m_lpr
            ch = chunk % m_ch
            per = chunk // m_ch
            mbg(now, ch * m_banks + per % m_banks, ch, per // m_banks, mlb, True)
        elif kind == 2:  # _EV_FILL (SetAssocCache.fill + on_insert inlined)
            addr2 = A[a]
            bk = sb[a]
            ch = sc[a]
            row = sr[a]
            # Tag read (``background`` closure inlined; background
            # accesses reserve only the all-traffic horizons).
            open_row = s_open[bk]
            if open_row == row:
                act = 0
                service = bst_rh
                k_rh += 1
            elif open_row is None:
                act = s_tact
                service = bst_act
                k_act += 1
            else:
                act = s_tconf
                service = bst_conf
                k_act += 1
            free = s_baf[bk]
            start = now if now >= free else free
            s_baf[bk] = start + service
            data_ready = start + act + s_tcas
            free = s_uaf[ch]
            bus_start = data_ready if data_ready >= free else free
            s_uaf[ch] = bus_start + tag_b
            td = bus_start + tag_b
            k_acc += 1
            k_rd += 1
            k_bg += 1
            k_bus += tag_b
            k_byt += tag_bytes
            i = SI[a]
            cset = sets[i]
            ctags = cset.tags
            imap = cset.index_map
            way = imap.get(addr2)
            ev_valid = False
            ev_dirty = False
            ev_addr = -1
            if way is None:
                if -1 in ctags:
                    way = ctags.index(-1)
                else:
                    if pol_kind:
                        way = cset.policy_state[-1]
                    else:
                        way = rng_randrange(cset.policy_state)
                    ev_valid = True
                    ev_addr = ctags[way]
                    ev_dirty = cset.dirty[way]
                    del imap[ev_addr]
                    n_evict += 1
                    if ev_dirty:
                        n_devict += 1
                ctags[way] = addr2
                imap[addr2] = way
                cset.dirty[way] = False
                tg_f += 1
            if pol_kind == 1:
                state = cset.policy_state
                state.remove(way)
                state.insert(0, way)
            elif pol_kind == 2:
                state = cset.policy_state
                state.remove(way)
                r = i % dp
                if r == 0:
                    lru_ins = True
                elif r == 1:
                    lru_ins = False
                else:
                    lru_ins = pol.psel < half
                if lru_ins:
                    state.insert(0, way)
                elif rng_randrange(bip_inv) == 0:
                    state.insert(0, way)
                else:
                    state.append(way)
            # missmap.insert(addr2), segment accounting included
            if addr2 not in mm_present:
                mm_present.add(addr2)
                seg = addr2 // mm_lps
                mm_pop[seg] = mm_pop_get(seg, 0) + 1
            t = td + tcc
            if ev_valid:
                # missmap.remove(ev_addr)
                if ev_addr in mm_present:
                    mm_present.discard(ev_addr)
                    seg = ev_addr // mm_lps
                    remaining = mm_pop[seg] - 1
                    if remaining:
                        mm_pop[seg] = remaining
                    else:
                        del mm_pop[seg]
                if ev_dirty:
                    # Victim line read, chained on the same bank.
                    free = s_baf[bk]
                    start = t if t >= free else free
                    s_baf[bk] = start + bs2_lb
                    data_ready = start + act2 + s_tcas
                    free = s_uaf[ch]
                    bus_start = data_ready if data_ready >= free else free
                    s_uaf[ch] = bus_start + lb
                    vdone = bus_start + lb
                    if s_openpol:
                        k_rh += 1
                    else:
                        k_act += 1
                    k_acc += 1
                    k_rd += 1
                    k_bg += 1
                    k_bus += lb
                    k_byt += lb_bytes
                    n_vr += 1
                    push(heap, (vdone, seq, _EV_MEMWRITE, ev_addr, 0))
                    seq += 1
                    t = vdone
            # Data write, then the tag-line update chained behind it.
            free = s_baf[bk]
            start = t if t >= free else free
            s_baf[bk] = start + bs2_lb
            data_ready = start + act2 + s_tcas
            free = s_uaf[ch]
            bus_start = data_ready if data_ready >= free else free
            s_uaf[ch] = bus_start + lb
            dw = bus_start + lb
            free = s_baf[bk]
            start = dw if dw >= free else free
            s_baf[bk] = start + bs2_lb
            data_ready = start + act2 + s_tcas
            free = s_uaf[ch]
            bus_start = data_ready if data_ready >= free else free
            s_uaf[ch] = bus_start + lb
            s_open[bk] = row if s_openpol else None
            if s_openpol:
                k_rh += 2
            else:
                k_act += 2
            k_acc += 2
            k_wr += 2
            k_bg += 2
            k_bus += lb + lb
            k_byt += lb_bytes + lb_bytes
            n_fills += 1
        else:  # _EV_WHT (write-hit traffic): tag read, then data write
            bk = sb[a]
            ch = sc[a]
            row = sr[a]
            open_row = s_open[bk]
            if open_row == row:
                act = 0
                service = bst_rh
                k_rh += 1
            elif open_row is None:
                act = s_tact
                service = bst_act
                k_act += 1
            else:
                act = s_tconf
                service = bst_conf
                k_act += 1
            free = s_baf[bk]
            start = now if now >= free else free
            s_baf[bk] = start + service
            data_ready = start + act + s_tcas
            free = s_uaf[ch]
            bus_start = data_ready if data_ready >= free else free
            s_uaf[ch] = bus_start + tag_b
            td = bus_start + tag_b
            t = td + tcc
            free = s_baf[bk]
            start = t if t >= free else free
            s_baf[bk] = start + bs2_lb
            data_ready = start + act2 + s_tcas
            free = s_uaf[ch]
            bus_start = data_ready if data_ready >= free else free
            s_uaf[ch] = bus_start + lb
            s_open[bk] = row if s_openpol else None
            if s_openpol:
                k_rh += 1
            else:
                k_act += 1
            k_acc += 2
            k_rd += 1
            k_wr += 1
            k_bg += 2
            k_bus += tag_b + lb
            k_byt += tag_bytes + lb_bytes
    stats = design.stats
    mflush()
    sflush()
    _flush_device(stacked, k_acc, k_rh, k_act, k_rd, k_wr, k_bg, k_bus, k_byt)
    _flush(stats, "compound_row_reopens", n_reopen)
    _flush(stats, "replacement_updates", n_upd)
    _flush(stats, "write_hits", n_wh)
    _flush(stats, "write_misses", n_wm)
    _flush(stats, "memory_reads", n_mr)
    _flush(stats, "memory_writes", n_mw)
    _flush(stats, "victim_reads", n_vr)
    _flush(stats, "fills", n_fills)
    _flush(tags_cache.stats, "hits", tg_h)
    _flush(tags_cache.stats, "misses", tg_m)
    _flush(tags_cache.stats, "fills", tg_f)
    _flush(tags_cache.stats, "evictions", n_evict)
    _flush(tags_cache.stats, "dirty_evictions", n_devict)
    _flush(missmap.stats, "lookups", n_mml)
    _flush(missmap.stats, "predicted_hits", n_mmh)
    _flush(missmap.stats, "predicted_misses", n_mmm)
    _writeback_reads(
        design, readlat, hitlat, misslat,
        (stq, np.full(len(readlat), mmlf), stt, std, stm), unat
    )
    _finish_cores(system, finish, last_read, nr, nw)
    system.events_processed += events
    system.now = now


# ----------------------------------------------------------------------
# alloy kernel (direct-mapped, all predictor variants)
# ----------------------------------------------------------------------
def _mact_indices(pcs_np, index_bits):
    """Vectorized :func:`repro.core.predictors.folded_xor` over a PC array."""
    value = pcs_np.astype(np.uint64)
    mask = np.uint64((1 << index_bits) - 1)
    shift = np.uint64(index_bits)
    folded = np.zeros_like(value)
    while value.any():
        folded ^= value & mask
        value >>= shift
    return folded.astype(np.int64).tolist()


def _run_alloy(system, starts):
    design = system.design
    memory = system.memory
    stacked = system.stacked
    mdemand, mbg, mflush, _ = _device_fns(memory)
    sdemand, sbg, sflush, _ = _device_fns(stacked)
    predictor = design.predictor
    dkind = design._pred_kind
    if dkind == 3:
        ptype = type(predictor)
        pk = {MapIPredictor: 3, MapGPredictor: 4, SamPredictor: 5, PamPredictor: 6}[
            ptype
        ]
    else:
        pk = dkind  # 0 = none, 1 = MissMap, 2 = Perfect
    A, G, W, P, D, base, nr, nw, a_np = _flatten(system, starts, pk == 3)
    mb, mc, mr = _mem_decode(a_np, memory.mapping)
    si_np = a_np % design._num_sets
    SI = si_np.tolist()
    sb, sc, sr = _row_decode(si_np // design._sets_per_row, stacked)
    slot_np = si_np % design._sets_per_row
    BU = np.asarray(design._burst_by_slot, dtype=np.int64)[slot_np].tolist()
    IDX = _mact_indices(P, predictor._index_bits) if pk == 3 else None
    mapping = memory.mapping
    m_lpr = mapping.lines_per_row
    m_ch = mapping.channels
    m_banks = mapping.banks
    mlb = memory.timings.line_burst
    store = design.cache._store
    # Multi-way Alloy keeps the TAD array in a SetAssocCache (always LRU,
    # guarded in _select_kernel); direct-mapped uses the flat tag arrays.
    mw = design.cache.ways != 1
    if mw:
        sets = store._sets
        tags = dirty = None
    else:
        tags = store._tags
        dirty = store._dirty
    # The victim-buffer variant (always direct-mapped) layers a single-set
    # LRU SetAssocCache probe over the read path.
    victim = type(design) is AlloyVictimDesign
    if victim:
        vset = design.victims._sets[0]
        vtags = vset.tags
        vdirty = vset.dirty
        vstate = vset.policy_state
        vimap = vset.index_map
    vhc = VICTIM_HIT_CYCLES
    vhcf = float(VICTIM_HIT_CYCLES)
    mact = predictor._mact if pk == 3 else None
    mac_g = predictor._mac if pk == 4 else None
    missmap = design._missmap
    plat = design._pred_latency if dkind == 3 else 0
    mml = design._missmap_latency
    l3 = system._l3_latency
    wic = system._write_issue_cycles
    num_cores = len(base) - 1
    ends = base[1:]
    cur = list(base[:-1])
    mshrs = system._mshrs
    mlp = mshrs > 1
    outst = [[] for _ in range(num_cores)] if mlp else None
    finish = [0.0] * num_cores
    last_read = [0.0] * num_cores
    readlat, hitlat, misslat = array("d"), array("d"), array("d")
    stq, stp, stt, std, stm = (
        array("d"), array("d"), array("d"), array("d"), array("d")
    )
    unat = array("d")
    ra, ha, ma = readlat.append, hitlat.append, misslat.append
    qa, pa, ta, da, mma = stq.append, stp.append, stt.append, std.append, stm.append
    ua = unat.append
    eps = ATTRIBUTION_EPSILON
    heap = []
    push = heappush
    pop = heappop
    seq = 0
    if victim and system._heap:
        # Warmup can overflow the victim buffer: each dirty casualty was
        # scheduled as a _memory_write(t, addr) closure on the system heap
        # (address captured as the lambda's default). The interpreter pops
        # them at run start, before any core event — translate them, in
        # pop order, ahead of the core start pushes.
        for when, _, fn in sorted(system._heap):
            push(heap, (when, seq, _EV_MEMWRITE, fn.__defaults__[0], 0))
            seq += 1
        system._heap.clear()
    for ci in range(num_cores):
        if cur[ci] < ends[ci]:
            gap = G[cur[ci]]
            push(heap, (gap if gap >= 0.0 else 0.0, seq, _EV_CORE, ci, 0))
            seq += 1
    events = 0
    now = 0.0
    dm_h = dm_m = dm_f = n_evict = n_devict = 0
    pm = pc_ = 0  # predictor _note tallies
    s_mm = s_mc = s_cm = s_cc = 0  # Table 5 scenarios
    n_mr = n_mw = n_wh = n_wm = n_trh = n_wasted = n_fills = 0
    n_vhit = v_h = v_m = v_f = v_evict = v_devict = 0

    if victim:

        def stash(ev_a, ev_d, tnow):
            # _stash_victim_functional inlined: victims.fill(ev_a, ev_d)
            # on the single LRU set, plus the dirty-overflow writeback.
            nonlocal seq, v_f, v_evict, v_devict
            w = vimap.get(ev_a)
            if w is None:
                ov_addr = -1
                ov_dirty = False
                if -1 in vtags:
                    w = vtags.index(-1)
                else:
                    w = vstate[-1]
                    ov_addr = vtags[w]
                    ov_dirty = vdirty[w]
                    del vimap[ov_addr]
                    v_evict += 1
                    if ov_dirty:
                        v_devict += 1
                vtags[w] = ev_a
                vimap[ev_a] = w
                vdirty[w] = ev_d
                v_f += 1
                if ov_dirty:
                    push(heap, (tnow, seq, _EV_MEMWRITE, ov_addr, 0))
                    seq += 1
            elif ev_d:
                vdirty[w] = True
            vstate.remove(w)
            vstate.insert(0, w)

    while heap:
        now, _, kind, a, b = pop(heap)
        events += 1
        if kind == 0:
            ci = a
            if mlp:
                # MLP prologue (interpreter's _handle_core): retire finished
                # reads, stall on a full MSHR file or a dependent read whose
                # producer is still in flight. Each stall is a reschedule —
                # a separate heap pop, like the interpreter's.
                out = outst[ci]
                if out:
                    out = [t for t in out if t > now]
                    outst[ci] = out
                    if len(out) >= mshrs:
                        push(heap, (min(out), seq, _EV_CORE, ci, 0))
                        seq += 1
                        continue
                if D[cur[ci]] and last_read[ci] > now:
                    push(heap, (last_read[ci], seq, _EV_CORE, ci, 0))
                    seq += 1
                    continue
            g = cur[ci]
            addr = A[g]
            i = SI[g]
            if W[g]:
                if mw:
                    cset = sets[i]
                    way = cset.index_map.get(addr)
                    if way is not None:
                        state = cset.policy_state
                        state.remove(way)
                        state.insert(0, way)
                        cset.dirty[way] = True
                        hit_w = True
                    else:
                        hit_w = False
                elif tags[i] == addr:
                    dirty[i] = True
                    hit_w = True
                else:
                    hit_w = False
                if hit_w:
                    dm_h += 1
                    n_wh += 1
                    hit_flag = 1
                else:
                    dm_m += 1
                    n_wm += 1
                    hit_flag = 0
                push(heap, (now, seq, _EV_WTRAFFIC, g, hit_flag))
                seq += 1
                anchor = completed = now + wic
            else:
                arrival = now + l3
                if victim:
                    vway = vimap.get(addr)
                    if vway is None:
                        v_m += 1
                    else:
                        # SRAM victim-buffer hit: fixed-latency service, no
                        # DRAM/predictor probe; the line swaps back into the
                        # TAD array and the displaced occupant is stashed.
                        vstate.remove(vway)
                        vstate.insert(0, vway)
                        v_h += 1
                        n_vhit += 1
                        s_cc += 1
                        done = arrival + vhc
                        lat = done - arrival
                        ha(lat)
                        qa(0.0)
                        pa(0.0)
                        ta(0.0)
                        da(vhcf)
                        mma(0.0)
                        if pk == 3:
                            row_m = mact[ci]
                            i2 = IDX[g]
                            m2 = row_m[i2]
                            row_m[i2] = m2 - 1 if m2 > 0 else 0
                        elif pk == 4:
                            m2 = mac_g[ci]
                            mac_g[ci] = m2 - 1 if m2 > 0 else 0
                        # _swap_back_functional: victims.invalidate, then
                        # DirectMappedCache.fill(addr, dirty=was_d).
                        was_d = vdirty[vway]
                        del vimap[addr]
                        vtags[vway] = -1
                        vdirty[vway] = False
                        old = tags[i]
                        if old == addr:
                            if was_d:
                                dirty[i] = True
                        else:
                            if old != -1:
                                disp_d = dirty[i]
                                n_evict += 1
                                if disp_d:
                                    n_devict += 1
                                tags[i] = addr
                                dirty[i] = was_d
                                dm_f += 1
                                stash(old, disp_d, now)
                            else:
                                tags[i] = addr
                                dirty[i] = was_d
                                dm_f += 1
                        push(heap, (arrival, seq, _EV_STACKWRITE, g, 0))
                        seq += 1
                        ra(lat)
                        gap = lat - vhcf
                        if gap < 0.0:
                            gap = -gap
                        ua(gap if gap > eps else 0.0)
                        completed = done if done >= arrival else arrival
                        if mlp:
                            outst[ci].append(completed)
                            anchor = now
                        else:
                            anchor = completed
                        if completed > last_read[ci]:
                            last_read[ci] = completed
                        if completed > finish[ci]:
                            finish[ci] = completed
                        g += 1
                        cur[ci] = g
                        if g < ends[ci]:
                            nxt = anchor + G[g]
                            push(
                                heap,
                                (nxt if nxt >= now else now, seq, _EV_CORE, ci, 0),
                            )
                            seq += 1
                        continue
                if mw:
                    cset = sets[i]
                    way = cset.index_map.get(addr)
                    hit = way is not None
                    if hit:
                        state = cset.policy_state
                        state.remove(way)
                        state.insert(0, way)
                        dm_h += 1
                    else:
                        dm_m += 1
                elif tags[i] == addr:
                    hit = True
                    dm_h += 1
                else:
                    hit = False
                    dm_m += 1
                if pk == 3:
                    row_m = mact[ci]
                    i2 = IDX[g]
                    p = row_m[i2] >= 4
                    if p:
                        pm += 1
                    else:
                        pc_ += 1
                    pready = arrival + plat
                elif pk == 4:
                    p = mac_g[ci] >= 4
                    if p:
                        pm += 1
                    else:
                        pc_ += 1
                    pready = arrival + plat
                elif pk == 5:
                    p = False
                    pc_ += 1
                    pready = arrival + plat
                elif pk == 6:
                    p = True
                    pm += 1
                    pready = arrival + plat
                elif pk == 1:
                    p = not hit
                    pready = arrival + mml
                elif pk == 2:
                    p = not hit
                    if p:
                        pm += 1
                    else:
                        pc_ += 1
                    pready = arrival
                else:
                    p = False
                    pready = arrival
                if p:
                    if hit:
                        s_mc += 1
                    else:
                        s_mm += 1
                elif hit:
                    s_cc += 1
                else:
                    s_cm += 1
                pd = pready - arrival
                done_t, rh_t, q_t, serv_t = sdemand(
                    pready, sb[g], sc[g], sr[g], BU[g], False
                )
                if rh_t:
                    n_trh += 1
                if hit:
                    if p:
                        n_mr += 1
                        mdemand(pready, mb[g], mc[g], mr[g], mlb, False)
                        n_wasted += 1
                    done = done_t
                    lat = done - arrival
                    ha(lat)
                    qa(q_t)
                    pa(pd)
                    ta(0.0)
                    da(serv_t)
                    mma(0.0)
                    gap = lat - (q_t + pd + serv_t)
                    if pk == 3:
                        m2 = row_m[i2]
                        row_m[i2] = m2 - 1 if m2 > 0 else 0
                    elif pk == 4:
                        m2 = mac_g[ci]
                        mac_g[ci] = m2 - 1 if m2 > 0 else 0
                else:
                    n_mr += 1
                    if p:  # PAM: parallel memory access
                        done_m, _, q_m, serv_m = mdemand(
                            pready, mb[g], mc[g], mr[g], mlb, False
                        )
                        done = done_m if done_m >= done_t else done_t
                        lat = done - arrival
                        if done_t > done_m:
                            qa(q_t)
                            pa(pd)
                            ta(serv_t)
                            da(0.0)
                            mma(0.0)
                            gap = lat - (q_t + pd + serv_t)
                        else:
                            qa(q_m)
                            pa(pd)
                            ta(0.0)
                            da(0.0)
                            mma(serv_m)
                            gap = lat - (q_m + pd + serv_m)
                    else:  # SAM: serialized after the probe
                        done, _, q_m, serv_m = mdemand(
                            done_t, mb[g], mc[g], mr[g], mlb, False
                        )
                        lat = done - arrival
                        q = q_t + q_m
                        qa(q)
                        pa(pd)
                        ta(serv_t)
                        da(0.0)
                        mma(serv_m)
                        gap = lat - (q + pd + serv_t + serv_m)
                    ma(lat)
                    if pk == 3:
                        m2 = row_m[i2]
                        row_m[i2] = m2 + 1 if m2 < 7 else 7
                    elif pk == 4:
                        m2 = mac_g[ci]
                        mac_g[ci] = m2 + 1 if m2 < 7 else 7
                    push(heap, (done, seq, _EV_FILL, g, 0))
                    seq += 1
                ra(lat)
                if gap < 0.0:
                    gap = -gap
                ua(gap if gap > eps else 0.0)
                completed = done if done >= arrival else arrival
                if mlp:
                    # Compute overlaps the outstanding miss: the next record
                    # issues relative to now, not the read's completion.
                    outst[ci].append(completed)
                    anchor = now
                else:
                    anchor = completed
                if completed > last_read[ci]:
                    last_read[ci] = completed
            if completed > finish[ci]:
                finish[ci] = completed
            g += 1
            cur[ci] = g
            if g < ends[ci]:
                nxt = anchor + G[g]
                push(heap, (nxt if nxt >= now else now, seq, _EV_CORE, ci, 0))
                seq += 1
        elif kind == 1:  # _EV_MEMWRITE
            n_mw += 1
            chunk = a // m_lpr
            ch = chunk % m_ch
            per = chunk // m_ch
            mbg(now, ch * m_banks + per % m_banks, ch, per // m_banks, mlb, True)
        elif kind == 2:  # _EV_FILL (cache fill + replacement inlined)
            addr2 = A[a]
            i = SI[a]
            ev_valid = False
            ev_dirty = False
            old = -1
            if mw:
                # SetAssocCache.fill + LRU on_insert (both branches).
                cset = sets[i]
                ctags = cset.tags
                imap = cset.index_map
                way = imap.get(addr2)
                if way is None:
                    if -1 in ctags:
                        way = ctags.index(-1)
                    else:
                        way = cset.policy_state[-1]
                        old = ctags[way]
                        ev_valid = True
                        ev_dirty = cset.dirty[way]
                        del imap[old]
                        n_evict += 1
                        if ev_dirty:
                            n_devict += 1
                    ctags[way] = addr2
                    imap[addr2] = way
                    cset.dirty[way] = False
                    dm_f += 1
                state = cset.policy_state
                state.remove(way)
                state.insert(0, way)
            else:
                # DirectMappedCache.fill inlined.
                old = tags[i]
                if old != addr2:
                    if old != -1:
                        ev_valid = True
                        ev_dirty = dirty[i]
                        n_evict += 1
                        if ev_dirty:
                            n_devict += 1
                    tags[i] = addr2
                    dirty[i] = False
                    dm_f += 1
            if missmap is not None:
                missmap.insert(addr2)
                if ev_valid:
                    missmap.remove(old)
            if victim:
                # Displaced lines (clean or dirty) go to the victim buffer
                # instead of straight to memory.
                if ev_valid:
                    stash(old, ev_dirty, now)
            elif ev_dirty:
                push(heap, (now, seq, _EV_MEMWRITE, old, 0))
                seq += 1
            sbg(now, sb[a], sc[a], sr[a], BU[a], True)
            n_fills += 1
        elif kind == 3:  # _EV_STACKWRITE (victim swap-back TAD refill)
            sbg(now, sb[a], sc[a], sr[a], BU[a], True)
        else:  # _EV_WTRAFFIC: probe the TAD, then write it or go to memory
            probe_done = sbg(now, sb[a], sc[a], sr[a], BU[a], False)
            if b:
                sbg(probe_done, sb[a], sc[a], sr[a], BU[a], True)
            else:
                n_mw += 1
                mbg(probe_done, mb[a], mc[a], mr[a], mlb, True)
    stats = design.stats
    mflush()
    sflush()
    _flush(stats, _SCENARIO_KEYS[(True, True)], s_mm)
    _flush(stats, _SCENARIO_KEYS[(True, False)], s_mc)
    _flush(stats, _SCENARIO_KEYS[(False, True)], s_cm)
    _flush(stats, _SCENARIO_KEYS[(False, False)], s_cc)
    _flush(stats, "tad_row_hits", n_trh)
    _flush(stats, "wasted_memory_reads", n_wasted)
    _flush(stats, "write_hits", n_wh)
    _flush(stats, "write_misses", n_wm)
    _flush(stats, "memory_reads", n_mr)
    _flush(stats, "memory_writes", n_mw)
    _flush(stats, "fills", n_fills)
    _flush(store.stats, "hits", dm_h)
    _flush(store.stats, "misses", dm_m)
    _flush(store.stats, "fills", dm_f)
    _flush(store.stats, "evictions", n_evict)
    _flush(store.stats, "dirty_evictions", n_devict)
    if victim:
        _flush(stats, "victim_hits", n_vhit)
        vstats = design.victims.stats
        _flush(vstats, "hits", v_h)
        _flush(vstats, "misses", v_m)
        _flush(vstats, "fills", v_f)
        _flush(vstats, "evictions", v_evict)
        _flush(vstats, "dirty_evictions", v_devict)
    if pk >= 2:  # kinds with a _note()-tracking predictor
        predictor.predicted_memory += pm
        predictor.predicted_cache += pc_
    _writeback_reads(
        design, readlat, hitlat, misslat, (stq, stp, stt, std, stm), unat
    )
    _finish_cores(system, finish, last_read, nr, nw)
    system.events_processed += events
    system.now = now
