"""Batch simulation engine: vectorized precompute + generated scalar kernels.

The interpreter in :mod:`repro.sim.system` walks one heap event at a time
through layers of design/device method calls. This engine restructures that
loop for throughput while producing **bit-identical** :class:`SimResult`s:

* **Vectorized precompute** (numpy): everything independent of the event
  timeline is computed for the whole trace up front — address decode for
  off-chip memory, set-index/stacked-row decode per design, TAD burst
  lengths, and MAP-I predictor table indices.
* **Generated kernels**: the serial part (bank/bus timeline reservations,
  replacement state, predictor training) runs in one flat event loop over
  integer-coded heap tuples. Each loop is generated from source templates
  the first time a process meets its configuration, then cached for the
  process (:func:`_kernel`). One skeleton — the core-event prologue with
  the MLP in-flight lists, the heap dispatch, the read-record buffer and
  the counter flush — takes per-family read, write, fill and background
  bodies. Every configuration flag (:func:`_flags`) is resolved while
  generating, so a loop has no branch on any of them, and no loop makes a
  Python-level function call per trace record. A core event's successor
  enters the heap through one ``heappushpop``, and the event count is the
  push sequence number once the heap drains.
* **Float-typed timeline arithmetic**: every cycle constant a kernel adds
  to a time — the DRAM timings and watermarks (:func:`_device_consts`),
  the bursts, the L3, write-issue, tag, MissMap and predictor latencies —
  is an integer-valued float, so each add and compare on the timeline has
  two float operands (CPython specializes those; exact below 2**53).
  Every tally that reaches a counter stays an ``int``.
* **One device template**: the DRAM reservation arithmetic exists once, as
  the ``demand`` and ``background`` templates below, written expression for
  expression like :meth:`repro.dram.device.DramDevice.access` and expanded
  inline at every reservation site. ``repro check`` compiles the same
  templates into plain callables (:func:`device_fns`) and diffs them
  against the device on randomized streams.
* **Deferred statistics**: each demand read writes one record — hit flag,
  latency and the five stage cycles — with a single
  ``Struct("7d").pack_into`` into a ``bytearray`` sized from the read
  count, and the kernel checks it wrote exactly one per read. The
  records are folded into the accumulators and histograms once at the
  end, over zero-copy numpy views (:func:`_fold_reads`), which also
  splits hits from misses and derives the unattributed gap.
  ``np.add.accumulate`` is a strict left fold in sample order, so float
  sums match the interpreter's per-sample ``total += v`` bit-for-bit.
* **Warmup without design.warm**: every design with tag state warms in a
  flat loop generated for its configuration (:func:`_warm_loop`), built
  from the kernels' own lookup, fill, replacement, MissMap, victim-buffer
  and predictor-training bodies; the direct-mapped (``dm_*``) and
  set-associative (``sa_*``) stores each have one lookup and one fill
  body. Only the interpreter replays ``design.warm``.
* **Lean cores**: no per-record :class:`~repro.sim.core_model.Core`
  cursors; a run keeps one :class:`CoreOutcome` per core.

Bit-exactness is defined over the :class:`SimResult` surface (what
``repro golden`` hashes and the differential fuzzer compares), as
byte-identical canonical JSON: equal values of equal types. Device
*accumulators* (queue-delay samples etc.) are not observable there — only
the device counters feed energy/utilization — so the inlined reservations
skip accumulator sampling; everything observable is reproduced exactly.

Engine selection lives in :meth:`repro.sim.system.System.run`; this module's
:func:`run` returns ``None`` when a configuration is outside the supported
envelope (verify runs, unknown design or policy types), and the caller
falls back to the interpreter. The envelope covers every design family —
including multi-way Alloy, the victim-buffer variant and MLP cores
(``mshrs_per_core > 1``).
"""

from __future__ import annotations

import linecache
import re
from functools import partial
from string import Template
from struct import Struct
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.cache.missmap import MissMap
from repro.cache.replacement import DIPPolicy, LRUPolicy, RandomPolicy
from repro.core.predictors import (
    MapGPredictor,
    MapIPredictor,
    PamPredictor,
    PerfectPredictor,
    SamPredictor,
)
from repro.dramcache.alloy import AlloyCacheDesign
from repro.dramcache.alloy_victim import AlloyVictimDesign
from repro.dramcache.base import ATTRIBUTION_EPSILON, LATENCY_BUCKETS
from repro.dramcache.ideal_lo import IdealLODesign
from repro.dramcache.lh_cache import LHCacheDesign
from repro.dramcache.no_cache import NoCacheDesign
from repro.dramcache.sram_tag import SramTagDesign
from repro.lifecycle import STAGES
from repro.units import LINE_SIZE

# Names only the generated code uses: it runs in this module's globals.
from heapq import heappop, heappush, heappushpop  # noqa: F401
from itertools import repeat  # noqa: F401
from repro.cache.missmap import LINES_PER_SEGMENT  # noqa: F401
from repro.core.predictors import MAC_MAX, MAC_MSB_THRESHOLD  # noqa: F401
from repro.dramcache.alloy import _SCENARIO_KEYS  # noqa: F401
from repro.dramcache.alloy_victim import VICTIM_HIT_CYCLES  # noqa: F401
from repro.dramcache.lh_cache import TAG_CHECK_CYCLES  # noqa: F401

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

#: Replacement policies the templates inline, by their flag value.
_POLICIES = {DIPPolicy: "dip", LRUPolicy: "lru", RandomPolicy: "random"}

#: Alloy predictor types the templates inline, by their flag value.
_PREDICTORS = {
    type(None): "none",
    MissMap: "missmap",
    PerfectPredictor: "perfect",
    MapIPredictor: "map-i",
    MapGPredictor: "map-g",
    SamPredictor: "sam",
    PamPredictor: "pam",
}

# Heap event kinds (tuple layout: (when, seq, kind, a, b)):
#   0 core event            a = core index
#   1 off-chip write        a = line address (posted writeback)
#   2 fill                  a = flat record index
#   3 stacked line write    a = flat record index (background)
#   4 Alloy write traffic   a = flat record index, b = hit
#   5 LH write-hit traffic  a = flat record index


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(system) -> Optional["object"]:
    """Run ``system`` under the batch engine, or return ``None`` if the
    configuration is outside the supported envelope (caller falls back to
    the interpreter). All eligibility checks happen before any mutation."""
    if system.checker is not None:
        return None
    family = _family(system.design)
    if family is None:
        return None
    # Dirty lines the victim warmup pushes out of the buffer: the kernel
    # writes them back first, as the interpreter's heap would.
    overflow: List[int] = []
    starts = system._warm(partial(_warm_batch, overflow=overflow))
    # Looked up at call time: profilers replace the entry points.
    globals()[f"_run_{family}"](system, starts, overflow)
    system.engine_used = "batch"
    return system._collect()


def _family(design) -> Optional[str]:
    """The kernel family that runs ``design``, or None outside the
    envelope. The kernels and the warmup loops share this dispatch."""
    kind = type(design)
    if kind is NoCacheDesign:
        return "no_cache"
    if kind is IdealLODesign:
        return "ideal_lo"
    if kind is SramTagDesign or kind is LHCacheDesign:
        if type(design.tags.policy) not in _POLICIES:
            return None
        return "sram" if kind is SramTagDesign else "lh"
    if kind is AlloyCacheDesign or kind is AlloyVictimDesign:
        if (
            design.cache.ways != 1
            and type(design.cache._store.policy) is not LRUPolicy
        ):
            return None
        if kind is AlloyVictimDesign and type(design.victims.policy) is not LRUPolicy:
            return None
        if type(design.predictor) not in _PREDICTORS:
            return None
        return "alloy"
    return None


# One entry point per kernel family (profilers time them by name); each
# runs the loop generated for the system's configuration.
def _run_no_cache(system, starts, overflow=()):
    _kernel("no_cache", system)(system, starts, overflow)


def _run_ideal_lo(system, starts, overflow=()):
    _kernel("ideal_lo", system)(system, starts, overflow)


def _run_sram(system, starts, overflow=()):
    _kernel("sram", system)(system, starts, overflow)


def _run_lh(system, starts, overflow=()):
    _kernel("lh", system)(system, starts, overflow)


def _run_alloy(system, starts, overflow=()):
    _kernel("alloy", system)(system, starts, overflow)


def _warm_batch(system, starts, overflow) -> bool:
    """:meth:`System._warm`'s hook on the batch path: bring the design to
    its post-warmup state in the flat loop generated for it, without
    ``design.warm``; the victim buffer's dirty overflow is appended to
    ``overflow``. No-cache keeps no state to warm."""
    warm = _warm_loop(system.design)
    if warm is not None:
        warm(system, starts, overflow)
    return True


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


def _device_consts(dev):
    """Per-access constants of ``dev``, taken from its timings and its
    block-cap/watermark policy methods: ACT, precharge + ACT and CAS
    cycles, a full line's bus bytes, the line burst (also the bus block
    cap), the bank block cap, the bank watermark and the bus watermark.

    Every cycle figure is an integer-valued float: the timeline arithmetic
    then adds and compares floats only (exact for integers below 2**53),
    which CPython runs faster than mixed int/float operations. The byte
    count stays an int; it only feeds a counter.
    """
    timings = dev.timings
    line_burst = timings.line_burst
    return (
        float(timings.t_act),
        float(timings.t_rp + timings.t_act),
        float(timings.t_cas),
        int(line_burst * LINE_SIZE / line_burst),
        float(line_burst),
        float(dev._block_cap()),
        float(dev._watermark()),
        float(dev._bus_watermark()),
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


#: One demand read's sample record: the hit flag (1.0 or 0.0), the latency
#: and the cycles of each lifecycle stage, in :data:`STAGES` order.
_RECORD = Struct("7d")


def _fold_reads(design, buf):
    """Flush a kernel's demand-read records (``buf``, one :data:`_RECORD`
    per read in event order) into the design's stat groups, reproducing the
    interpreter's lazy-creation key sets (nothing is created when no demand
    read occurred).

    Each column is folded through a zero-copy float64 view
    (:func:`_fold_acc`, :func:`_add_hist`). The hit flag splits hits from
    misses, and the unattributed gap is derived here as the interpreter's
    ``abs(latency - sum(stages.values()))``: every read path sums its
    nonzero stages in ``STAGES`` order, and adding a 0.0 stage changes no
    sum.
    """
    if not buf:
        return
    rec = np.frombuffer(buf, dtype=np.float64).reshape(-1, 7)
    hit = rec[:, 0] != 0.0
    lat = rec[:, 1]
    stats = design.stats
    hits = lat[hit]
    if len(hits):
        stats.counter("read_hits").value += len(hits)
        _fold_acc(stats.accumulator("hit_latency"), hits)
        _add_hist(design.hit_latency_hist, hits)
    misses = lat[~hit]
    if len(misses):
        stats.counter("read_misses").value += len(misses)
        _fold_acc(stats.accumulator("miss_latency"), misses)
    _fold_acc(stats.accumulator("read_latency"), lat)
    _add_hist(design.read_latency_hist, lat)
    stage_stats = design.stage_stats
    for column, stage in enumerate(STAGES, 2):
        values = rec[:, column]
        _fold_acc(stage_stats.accumulator(stage), values)
        _add_hist(stage_stats.histogram(stage, LATENCY_BUCKETS), values)
    queue, predictor, tag, data, memory = rec[:, 2:].T
    gap = np.abs(lat - ((((queue + predictor) + tag) + data) + memory))
    _fold_acc(
        stats.accumulator("unattributed_cycles"),
        np.where(gap > ATTRIBUTION_EPSILON, gap, 0.0),
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
# Kernel generation
# ----------------------------------------------------------------------
# A template is Python source with two additions, both resolved while
# generating:
#
# * ``#if COND`` / ``#elif COND`` / ``#else`` / ``#endif`` lines keep or
#   drop the lines they bracket; COND is a Python expression over the
#   configuration flags (:func:`_flags`).
# * A line ``@name(param=value, ...)`` is replaced by the snippet ``name``
#   at that line's indentation, its ``$param`` placeholders bound to the
#   values (plain names or expressions without commas; a snippet expands
#   each ``$param`` textually, so pass names for values it reads twice).
#
# The ``demand`` and ``background`` snippets are DRAM reservation sites:
# each expansion gets a counter of its own (``$site``), and the device's
# counter flush sums those counters with the sites' static read/write,
# background, burst and byte figures. Lines ``@@sites d``, ``@@nonlocal d``
# and ``@@flush d dev`` are filled in from the sites once the whole
# function has been expanded.

_DIRECTIVE = re.compile(r"\s*#(if|elif|else|endif)\b\s*(.*)$")
_SNIPPET_CALL = re.compile(r"(\s*)@(\w+)\((.*)\)\s*$")
_MARKER = re.compile(r"(\s*)@@(\w+)\s*(.*)$")
_SITES = ("demand", "background")

#: Generated functions by (template name, configuration), built on first
#: use and kept for the process. Threads share it: two racing on one key at
#: most compile it twice, to equal functions.
_KERNELS: Dict[tuple, object] = {}
#: Each snippet's ``(defaults, source)``; a ``None`` default is required.
_SNIPPETS: Dict[str, tuple] = {}


def _snippet(name, params, source):
    """Register template snippet ``name``; ``params`` is a space-separated
    list of ``param`` (required) or ``param=default`` entries."""
    defaults = {}
    for entry in params.split():
        key, _, default = entry.partition("=")
        defaults[key] = default or None
    _SNIPPETS[name] = (defaults, source)


class _Generator:
    """Expands one template for one configuration."""

    def __init__(self, flags):
        self.flags = flags
        self.lines: List[str] = []
        #: Reservation sites in expansion order:
        #: (device, counter, write, background, fixed, burst, bytes).
        self.sites: List[tuple] = []

    def expand(self, text, indent=""):
        live = [True]  # is each open #if's current branch kept?
        taken: List[bool] = []  # has each open #if kept a branch yet?
        for line in text.split("\n"):
            directive = _DIRECTIVE.match(line)
            if directive:
                word, cond = directive.groups()
                if word == "if":
                    keep = live[-1] and bool(eval(cond, {}, self.flags))
                    taken.append(keep)
                    live.append(keep)
                elif word == "endif":
                    live.pop()
                    taken.pop()
                else:
                    live.pop()
                    keep = live[-1] and not taken[-1] and (
                        word == "else" or bool(eval(cond, {}, self.flags))
                    )
                    taken[-1] = taken[-1] or keep
                    live.append(keep)
                continue
            if not live[-1] or not line.strip():
                continue
            call = _SNIPPET_CALL.match(line)
            if call is None:
                self.lines.append(indent + line)
                continue
            pad, name, args = call.groups()
            defaults, source = _SNIPPETS[name]
            values = dict(defaults)
            for arg in filter(None, (a.strip() for a in args.split(","))):
                key, _, value = arg.partition("=")
                if key not in defaults:
                    raise TypeError(f"snippet {name!r} has no parameter {key!r}")
                values[key] = value
            missing = [key for key, value in values.items() if value is None]
            if missing:
                raise TypeError(f"snippet {name!r} needs {missing}")
            if name in _SITES:
                values["site"] = f"n_{values['d']}{len(self.sites)}"
                self.sites.append(
                    (
                        values["d"],
                        values["site"],
                        values["write"] == "True",
                        name == "background",
                        values["fixed"] == "True",
                        values["burst"],
                        values["bytes"],
                    )
                )
            self.expand(Template(source).substitute(values), indent + pad)

    def source(self):
        """The expanded lines, with the site markers filled in."""
        out = []
        for line in self.lines:
            marker = _MARKER.match(line)
            if marker is None:
                out.append(line)
                continue
            pad, word, args = marker.groups()
            d, *rest = args.split()
            sites = [s for s in self.sites if s[0] == d]
            counters = [s[1] for s in sites]
            if word == "sites":
                out.append(f"{pad}{' = '.join(counters + ['0'])}")
            elif word == "nonlocal":
                names = counters + [f"{d}_rh", f"{d}_bus", f"{d}_byt"]
                out.append(f"{pad}nonlocal {', '.join(names)}")
            else:  # flush
                out.extend(pad + flush for flush in _flush_source(d, rest[0], sites))
        return "\n".join(out) + "\n"


def _sum(terms):
    return " + ".join(terms) or "0"


def _flush_source(d, dev, sites):
    """Lines writing device ``dev``'s timelines and tallies back."""
    fixed = [s for s in sites if s[4]]
    return [
        f"_store_timelines({dev}, {d}_bdf, {d}_baf, {d}_udf, {d}_uaf)",
        f"{d}_acc = {_sum(s[1] for s in sites)}",
        f"_flush_device({dev}, {d}_acc, {d}_rh, {d}_acc - {d}_rh,",
        f"    {_sum(s[1] for s in sites if not s[2])},",
        f"    {_sum(s[1] for s in sites if s[2])},",
        f"    {_sum(s[1] for s in sites if s[3])},",
        f"    int({_sum([f'{d}_bus'] + [f'{s[1]} * {s[5]}' for s in fixed])}),",
        f"    {_sum([f'{d}_byt'] + [f'{s[1]} * {s[6]}' for s in fixed])})",
    ]


def _generate(template, name, flags):
    """Compile ``template`` for ``flags``; returns the function ``name``.

    The source gets a synthetic filename naming the configuration, and is
    registered with :mod:`linecache`, so a traceback through a generated
    function names its variant and shows its lines.
    """
    gen = _Generator(flags)
    gen.expand(Template(template).substitute(name=name, family=flags["family"]))
    source = gen.source()
    label = " ".join(
        f"{key}={value}" for key, value in sorted(flags.items()) if key != "family"
    )
    filename = f"<repro.sim.batch {name} {label}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: Dict[str, object] = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace[name]


def _cached(template, name, flags):
    key = (name, tuple(sorted(flags.items())))
    fn = _KERNELS.get(key)
    if fn is None:
        fn = _KERNELS[key] = _generate(template, name, flags)
    return fn


def _flags(family, system):
    """The configuration a kernel is generated for: its family, then each
    flag its templates branch on."""
    design = system.design
    flags = {
        "family": family,
        "mlp": system._mshrs > 1,
        "m_open_page": system.memory.page_policy == "open",
        "s_open_page": system.stacked.page_policy == "open",
        "warm": False,
    }
    flags.update(_design_flags(family, design))
    return flags


def _design_flags(family, design):
    """Flags that depend on the design alone (the warmup's whole key)."""
    flags = {
        "ways1": True,
        "victim": False,
        "pred": "none",
        "policy": "none",
        "update": False,
    }
    if family in ("sram", "lh"):
        flags["ways1"] = design.tags.ways == 1
        flags["policy"] = _POLICIES[type(design.tags.policy)]
        flags["update"] = family == "lh" and design._requires_update
    elif family == "alloy":
        flags["ways1"] = design.cache.ways == 1
        if not flags["ways1"]:
            flags["policy"] = "lru"
        flags["victim"] = type(design) is AlloyVictimDesign
        flags["pred"] = _PREDICTORS[type(design.predictor)]
    return flags


def _kernel(family, system):
    """The event loop generated for ``system``'s configuration."""
    return _cached(_KERNEL, f"kernel_{family}", _flags(family, system))


def _warm_loop(design):
    """The flat warmup loop generated for ``design``'s configuration, or
    None for no-cache, which keeps no state to warm."""
    family = _family(design)
    if family == "no_cache":
        return None
    flags = _design_flags(family, design)
    flags.update(family=family, warm=True)
    return _cached(_WARM, f"warm_{family}", flags)


def device_fns(dev):
    """``(demand, background, flush)`` callables over ``dev``, compiled from
    the kernels' own reservation templates.

    ``demand(now, bank_idx, channel, row, burst_cycles, is_write)`` returns
    ``(done, row_hit, queue_cycles, service_cycles)`` combined the way
    :meth:`LatencyBreakdown.attribute_device` folds an
    :class:`~repro.dram.device.AccessResult`; ``background`` (same
    arguments) returns ``done``. Timelines and tallies live in the
    callables until ``flush`` writes them back to ``dev``. ``repro check``
    diffs these against :meth:`DramDevice.access`, so it checks exactly the
    arithmetic the kernels inline.
    """
    flags = {"family": "device", "d_open_page": dev.page_policy == "open"}
    return _cached(_DEVICE, "device_fns", flags)(dev)


def _store_timelines(dev, bank_demand, bank_all, bus_demand, bus_all):
    """Write a kernel's bank and bus horizons back to ``dev``."""
    for i, bank in enumerate(dev._banks):
        bank.demand_free = bank_demand[i]
        bank.all_free = bank_all[i]
    for i, bus in enumerate(dev._buses):
        bus.demand_free = bus_demand[i]
        bus.all_free = bus_all[i]


def _flush_warm(group, hits, hit_at, chain):
    """Add a warmup's store tallies to ``group``, creating each new counter
    where the per-record replay would have: ``chain`` holds ``(name,
    count)`` pairs a replay first touches in list order (a fill follows a
    miss, an eviction a fill), and ``hits`` comes right after the chain
    counters already nonzero in ``hit_at``, their counts at the first hit.
    """
    if hits:
        before = len([count for count in hit_at if count])
        chain = chain[:before] + (("hits", hits),) + chain[before:]
    for name, count in chain:
        _flush(group, name, count)


# ----------------------------------------------------------------------
# Templates: one DRAM access
# ----------------------------------------------------------------------
# Mirrors DramDevice.access: the open-row outcome, PriorityTimeline.reserve
# on the bank and then on the channel bus, the open-row update, and the
# device counters (as site tallies). ``chained`` marks an access that
# directly follows one to the same bank and row, which the open-page
# policy makes a static row hit. A closed-page device never keeps a row
# open, so every one of its accesses activates. Every cycle figure is an
# integer-valued float (:func:`_device_consts`), so demand ``serv``, the
# act + CAS + burst service, is exact.
_snippet(
    "activate",
    "d bk row chained hits rowhit",
    """
#if not ${d}_open_page
act = ${d}_tact
#if "$rowhit" != "_"
$rowhit = False
#endif
#elif $chained
act = 0.0
${d}_rh += 1
#if "$hits" != "_"
$hits += 1
#endif
#if "$rowhit" != "_"
$rowhit = True
#endif
#else
open_row = ${d}_open[$bk]
#if "$rowhit" != "_"
$rowhit = open_row == $row
if $rowhit:
#else
if open_row == $row:
#endif
    act = 0.0
    ${d}_rh += 1
#if "$hits" != "_"
    $hits += 1
#endif
elif open_row is None:
    act = ${d}_tact
else:
    act = ${d}_tconf
#endif
""",
)

_SITE_TAIL = """
#if ${d}_open_page
${d}_open[$bk] = $row
#endif
$site += 1
#if not $fixed
${d}_bus += $burst
${d}_byt += $bytes
#endif
"""

_snippet(
    "demand",
    "d now burst bytes bk=bk ch=ch row=row write=False chained=False "
    "fixed=True done=done q=_ serv=_ hits=_ rowhit=_",
    """
@activate(d=$d, bk=$bk, row=$row, chained=$chained, hits=$hits, rowhit=$rowhit)
core = act + ${d}_tcas
service = core + $burst
free = ${d}_bdf[$bk]
start = $now if $now >= free else free
backlog = ${d}_baf[$bk] - start
if backlog > 0.0:
    blocked = backlog if backlog <= ${d}_blockcap else ${d}_blockcap
    drain = backlog - ${d}_wmark
    start += blocked + (drain if drain > 0.0 else 0.0)
${d}_bdf[$bk] = start + service
free = ${d}_baf[$bk]
${d}_baf[$bk] = (free if free >= start else start) + service
ready = start + core
free = ${d}_udf[$ch]
bus = ready if ready >= free else free
backlog = ${d}_uaf[$ch] - bus
if backlog > 0.0:
    blocked = backlog if backlog <= ${d}_lb else ${d}_lb
    drain = backlog - ${d}_buswmark
    bus += blocked + (drain if drain > 0.0 else 0.0)
${d}_udf[$ch] = bus + $burst
free = ${d}_uaf[$ch]
${d}_uaf[$ch] = (free if free >= bus else bus) + $burst
#if "$done" != "_"
$done = bus + $burst
#endif
#if "$q" != "_"
$q = (start - $now) + (bus - ready)
#endif
#if "$serv" != "_"
$serv = service
#endif
"""
    + _SITE_TAIL,
)

_snippet(
    "background",
    "d now burst bytes bk=bk ch=ch row=row write=True chained=False "
    "fixed=True done=_",
    """
@activate(d=$d, bk=$bk, row=$row, chained=$chained, hits=_, rowhit=_)
core = act + ${d}_tcas
free = ${d}_baf[$bk]
start = $now if $now >= free else free
${d}_baf[$bk] = start + (core + $burst)
ready = start + core
free = ${d}_uaf[$ch]
bus = ready if ready >= free else free
${d}_uaf[$ch] = bus + $burst
#if "$done" != "_"
$done = bus + $burst
#endif
"""
    + _SITE_TAIL,
)

# A device's constants, timelines and tallies as kernel locals.
_snippet(
    "device",
    "d dev",
    """
(${d}_tact, ${d}_tconf, ${d}_tcas, ${d}_flb, ${d}_lb, ${d}_blockcap,
 ${d}_wmark, ${d}_buswmark) = _device_consts($dev)
${d}_open = $dev._open_row
${d}_bdf = [b.demand_free for b in $dev._banks]
${d}_baf = [b.all_free for b in $dev._banks]
${d}_udf = [b.demand_free for b in $dev._buses]
${d}_uaf = [b.all_free for b in $dev._buses]
${d}_rh = ${d}_bus = ${d}_byt = 0
@@sites $d
""",
)

# ``repro check``'s view of the templates: one device, any burst.
_DEVICE = """
def $name(dev):
    @device(d=d, dev=dev)

    def demand(now, bk, ch, row, burst, is_write):
        @@nonlocal d
        if is_write:
            @demand(d=d, now=now, burst=burst, bytes=int(burst * LINE_SIZE / d_lb), write=True, fixed=False, q=q, serv=serv, rowhit=row_hit)
        else:
            @demand(d=d, now=now, burst=burst, bytes=int(burst * LINE_SIZE / d_lb), write=False, fixed=False, q=q, serv=serv, rowhit=row_hit)
        return done, row_hit, q, serv

    def background(now, bk, ch, row, burst, is_write):
        @@nonlocal d
        if is_write:
            @background(d=d, now=now, burst=burst, bytes=int(burst * LINE_SIZE / d_lb), write=True, fixed=False, done=done)
        else:
            @background(d=d, now=now, burst=burst, bytes=int(burst * LINE_SIZE / d_lb), write=False, fixed=False, done=done)
        return done

    def flush():
        @@flush d dev

    return demand, background, flush
"""


# ----------------------------------------------------------------------
# Templates: tag stores, MissMap, victim buffer, MAP predictors
# ----------------------------------------------------------------------
# SetAssocCache.lookup with its policy's on_hit/on_miss; ``way`` is None
# on a miss. DIP's PSEL lives in the local ``psel`` while a loop runs.
_snippet(
    "sa_lookup",
    "addr i write",
    """
cset = sets[$i]
way = cset.index_map.get($addr)
if way is None:
    st_m += 1
#if policy == "dip"
    r = $i % dp
    if r == 0:
        if psel < pmax:
            psel += 1
    elif r == 1:
        if psel > 0:
            psel -= 1
#endif
else:
#if policy in ("lru", "dip") and not ways1
    state = cset.policy_state
    state.remove(way)
    state.insert(0, way)
#endif
#if $write
    cset.dirty[way] = True
#endif
#if warm
    if not st_h:
        hit_at = (st_m, st_f, st_ev, st_dev)
#endif
    st_h += 1
""",
)

# SetAssocCache.fill (clean) with its policy's victim_way/on_insert.
# ``ev_addr`` is the evicted line, -1 when nothing was evicted.
_snippet(
    "sa_fill",
    "addr i",
    """
cset = sets[$i]
ctags = cset.tags
imap = cset.index_map
way = imap.get($addr)
ev_addr = -1
ev_dirty = False
if way is None:
#if ways1
    if ctags[0] == -1:
        way = 0
#else
    if -1 in ctags:
        way = ctags.index(-1)
#endif
    else:
#if policy == "random"
        @randbelow(n=rand_n, k=rand_k, out=way)
#elif ways1
        way = 0
#else
        way = cset.policy_state[-1]
#endif
        ev_addr = ctags[way]
        ev_dirty = cset.dirty[way]
        del imap[ev_addr]
        st_ev += 1
        if ev_dirty:
            st_dev += 1
    ctags[way] = $addr
    imap[$addr] = way
    cset.dirty[way] = False
    st_f += 1
#if policy == "dip"
r = $i % dp
#if ways1
if r != 0 and (r == 1 or psel >= half):
    @randbelow(n=bip_n, k=bip_k, out=x)
#else
state = cset.policy_state
state.remove(way)
if r == 0 or (r != 1 and psel < half):
    state.insert(0, way)
else:
    @randbelow(n=bip_n, k=bip_k, out=x)
    if x:
        state.append(way)
    else:
        state.insert(0, way)
#endif
#elif policy == "lru" and not ways1
state = cset.policy_state
state.remove(way)
state.insert(0, way)
#endif
""",
)

# Random.randrange(n) for n > 0, inline: the same getrandbits draws (and
# the same generator state afterwards) as its _randbelow_with_getrandbits.
_snippet(
    "randbelow",
    "n k out",
    """
$out = getrandbits($k)
while $out >= $n:
    $out = getrandbits($k)
""",
)

# A set-associative store's locals (``cache`` names the SetAssocCache).
_snippet(
    "sa_setup",
    "cache",
    """
sets = $cache._sets
#if policy == "dip"
pol = $cache.policy
dp = pol.dueling_period
pmax = pol.psel_max
half = (pol.psel_max + 1) // 2
bip_n = pol.bip_epsilon_inverse
bip_k = bip_n.bit_length()
psel = pol.psel
getrandbits = pol._rng.getrandbits
#elif policy == "random"
pol = $cache.policy
rand_n = $cache.ways
rand_k = rand_n.bit_length()
getrandbits = pol._rng.getrandbits
#endif
""",
)

# DirectMappedCache.lookup; ``hit`` tells a hit from a miss.
_snippet(
    "dm_lookup",
    "addr i write",
    """
hit = tags[$i] == $addr
if hit:
#if $write
    dirty[$i] = True
#endif
#if warm
    if not st_h:
        hit_at = (st_m, st_f, st_ev, st_dev)
#endif
    st_h += 1
else:
    st_m += 1
""",
)

# DirectMappedCache.fill. ``ev_addr`` is the evicted line, -1 when nothing
# was evicted.
_snippet(
    "dm_fill",
    "addr i dirty=False",
    """
old = tags[$i]
ev_addr = -1
ev_dirty = False
if old != $addr:
    if old != -1:
        ev_addr = old
        ev_dirty = dirty[$i]
        st_ev += 1
        if ev_dirty:
            st_dev += 1
    tags[$i] = $addr
    dirty[$i] = $dirty
    st_f += 1
#if "$dirty" != "False"
elif $dirty:
    dirty[$i] = True
#endif
""",
)

_snippet(
    "mm_setup",
    "missmap",
    """
mm_present = $missmap._present
mm_pop = $missmap._segment_population
mm_pop_get = mm_pop.get
mm_lps = LINES_PER_SEGMENT
""",
)

# MissMap.insert / MissMap.remove.
_snippet(
    "mm_insert",
    "addr",
    """
if $addr not in mm_present:
    mm_present.add($addr)
    seg = $addr // mm_lps
    mm_pop[seg] = mm_pop_get(seg, 0) + 1
""",
)

_snippet(
    "mm_remove",
    "addr",
    """
if $addr in mm_present:
    mm_present.discard($addr)
    seg = $addr // mm_lps
    remaining = mm_pop[seg] - 1
    if remaining:
        mm_pop[seg] = remaining
    else:
        del mm_pop[seg]
""",
)

# AlloyVictimDesign._stash_victim_functional: victims.fill(ev, dirty=ev_d)
# on the buffer's single LRU set; a dirty line falling out is written back
# (after warmup, the kernel writes it back first).
_snippet(
    "stash",
    "ev ev_d",
    """
w2 = vimap.get($ev)
if w2 is None:
    if -1 in vtags:
        w2 = vtags.index(-1)
    else:
        w2 = vstate[-1]
        ov = vtags[w2]
        del vimap[ov]
        v_ev += 1
        if vdirty[w2]:
            v_dev += 1
#if warm
            overflow.append(ov)
#else
            push(heap, (now, seq, 1, ov, 0))
            seq += 1
#endif
    vtags[w2] = $ev
    vimap[$ev] = w2
    vdirty[w2] = $ev_d
    v_f += 1
elif $ev_d:
    vdirty[w2] = True
vstate.remove(w2)
vstate.insert(0, w2)
""",
)

# AlloyVictimDesign._swap_back_functional: the buffered line returns to the
# direct-mapped array, and the line it displaces goes to the buffer.
_snippet(
    "swap_back",
    "addr i",
    """
vstate.remove(vway)
vstate.insert(0, vway)
#if warm
if not v_h:
    v_hit_at = (v_f, v_ev, v_dev)
#endif
v_h += 1
was_d = vdirty[vway]
del vimap[$addr]
vtags[vway] = -1
vdirty[vway] = False
@dm_fill(addr=$addr, i=$i, dirty=was_d)
if ev_addr != -1:
    @stash(ev=ev_addr, ev_d=ev_dirty)
""",
)

# MemoryAccessPredictor.update for MAP-I (``row_m``/``i2`` bound) and MAP-G.
_snippet(
    "train",
    "went",
    """
#if pred == "map-i"
m2 = row_m[i2]
#if $went
row_m[i2] = m2 + 1 if m2 < mac_max else mac_max
#else
row_m[i2] = m2 - 1 if m2 > 0 else 0
#endif
#elif pred == "map-g"
m2 = mac_g[ci]
#if $went
mac_g[ci] = m2 + 1 if m2 < mac_max else mac_max
#else
mac_g[ci] = m2 - 1 if m2 > 0 else 0
#endif
#endif
""",
)

_snippet(
    "predictor_setup",
    "",
    """
predictor = design.predictor
mac_max = MAC_MAX
mac_msb = MAC_MSB_THRESHOLD
#if pred == "map-i"
mact = predictor._mact
index_bits = predictor._index_bits
#elif pred == "map-g"
mac_g = predictor._mac
#elif pred == "missmap"
@mm_setup(missmap=predictor)
#endif
#if victim
vset = design.victims._sets[0]
vtags = vset.tags
vdirty = vset.dirty
vstate = vset.policy_state
vimap = vset.index_map
v_h = v_m = v_f = v_ev = v_dev = 0
v_hit_at = ()
#endif
""",
)


# ----------------------------------------------------------------------
# Templates: the kernel skeleton
# ----------------------------------------------------------------------
# Per family (``$family``), the skeleton expands ``<family>_setup`` (decode
# and locals), ``<family>_write`` (a posted writeback), ``<family>_read``
# (a demand read: sets ``done`` and writes the read's one sample record
# through ``@record``), ``<family>_events`` (its heap events past the core
# and off-chip write events) and ``<family>_flush``. The core-event
# prologue mirrors the interpreter's System._handle_core. A core event's
# successor goes in through ``heappushpop``, which returns what a push and
# then a pop would (every entry's ``seq`` is unique); every entry pushed is
# popped, so ``seq`` is the event count once the heap drains.
_KERNEL = """
def $name(system, starts, overflow):
    design = system.design
    memory = system.memory
    stacked = system.stacked
#if family == "alloy" and pred == "map-i"
    A, G, W, P, D, base, nr, nw, a_np = _flatten(system, starts, True)
#else
    A, G, W, P, D, base, nr, nw, a_np = _flatten(system, starts, False)
#endif
    mb, mc, mr = _mem_decode(a_np, memory.mapping)
    m_lpr = memory.mapping.lines_per_row
    m_ch = memory.mapping.channels
    m_banks = memory.mapping.banks
    @device(d=m, dev=memory)
#if family != "no_cache"
    @device(d=s, dev=stacked)
#endif
    @${family}_setup()
    l3 = float(system._l3_latency)
    wic = float(system._write_issue_cycles)
    num_cores = len(base) - 1
    ends = base[1:]
    cur = base[:-1]
    finish = [0.0] * num_cores
    last_read = [0.0] * num_cores
#if mlp
    mshrs = system._mshrs
    outst = [[] for _ in range(num_cores)]
#endif
    rsize = _RECORD.size
    buf = bytearray(rsize * sum(nr))
    rec = _RECORD.pack_into
    off = 0
    n_mr = n_mw = n_wm = 0
    heap = []
    push = heappush
    pop = heappop
    pushpop = heappushpop
    seq = 0
#if victim
    for addr in overflow:
        push(heap, (0.0, seq, 1, addr, 0))
        seq += 1
#endif
    for ci in range(num_cores):
        if cur[ci] < ends[ci]:
            gap = G[cur[ci]]
            push(heap, (gap if gap >= 0.0 else 0.0, seq, 0, ci, 0))
            seq += 1
    now = 0.0
    entry = pop(heap) if heap else None
    while entry:
        now, _, kind, a, b = entry
        if kind == 0:
            ci = a
#if mlp
            # Retire finished reads; stall on a full MSHR file or on a
            # dependent read whose producer is still in flight. Each stall
            # is a reschedule, a separate heap pop like the interpreter's.
            out = outst[ci]
            if out:
                out = outst[ci] = list(filter(now.__lt__, out))
                if len(out) >= mshrs:
                    entry = pushpop(heap, (min(out), seq, 0, ci, 0))
                    seq += 1
                    continue
            if D[cur[ci]] and last_read[ci] > now:
                entry = pushpop(heap, (last_read[ci], seq, 0, ci, 0))
                seq += 1
                continue
#endif
            g = cur[ci]
            if W[g]:
                @${family}_write()
                anchor = completed = now + wic
            else:
                arrival = now + l3
                @${family}_read()
                completed = done if done >= arrival else arrival
#if mlp
                # Compute overlaps the outstanding miss: the next record
                # issues relative to now, not the read's completion.
                outst[ci].append(completed)
                anchor = now
#else
                anchor = completed
#endif
                if completed > last_read[ci]:
                    last_read[ci] = completed
            if completed > finish[ci]:
                finish[ci] = completed
            g += 1
            cur[ci] = g
            if g < ends[ci]:
                nxt = anchor + G[g]
                entry = pushpop(heap, (nxt if nxt >= now else now, seq, 0, ci, 0))
                seq += 1
                continue
        elif kind == 1:
            n_mw += 1
            chunk = a // m_lpr
            ch = chunk % m_ch
            per = chunk // m_ch
            bk = ch * m_banks + per % m_banks
            row = per // m_banks
            @background(d=m, now=now, burst=m_lb, bytes=m_flb)
        @${family}_events()
        entry = pop(heap) if heap else None
    if off != len(buf):
        raise RuntimeError(
            f"wrote {off // rsize} read records for {len(buf) // rsize} "
            "demand reads"
        )
    stats = design.stats
    @@flush m memory
#if family != "no_cache"
    @@flush s stacked
#endif
    _flush(stats, "write_misses", n_wm)
    _flush(stats, "memory_reads", n_mr)
    _flush(stats, "memory_writes", n_mw)
    @${family}_flush()
    _fold_reads(design, buf)
    _finish_cores(system, finish, last_read, nr, nw)
    system.events_processed += seq
    system.now = now
"""

# An off-chip demand read of record ``g`` at ``now``.
_snippet(
    "memory_read",
    "now done=done q=_ serv=_",
    """
bk = mb[g]
ch = mc[g]
row = mr[g]
@demand(d=m, now=$now, burst=m_lb, bytes=m_flb, done=$done, q=$q, serv=$serv)
""",
)

# A demand read's sample record: hit flag, latency, then the stages in
# STAGES order (queue, predictor, tag, data, memory).
_snippet(
    "record",
    "hit lat=done-arrival q=0.0 p=0.0 t=0.0 d=0.0 m=0.0",
    """
rec(buf, off, $hit, $lat, $q, $p, $t, $d, $m)
off += rsize
""",
)

# A stacked access to record ``g``'s (or event record ``a``'s) row.
_snippet(
    "stacked_row",
    "at",
    """
bk = sb[$at]
ch = sc[$at]
row = sr[$at]
""",
)

# ---- no-cache: every read goes off-chip -------------------------------
_snippet("no_cache_setup", "", "")

_snippet(
    "no_cache_write",
    "",
    """
n_wm += 1
push(heap, (now, seq, 1, A[g], 0))
seq += 1
""",
)

_snippet(
    "no_cache_read",
    "",
    """
n_mr += 1
@memory_read(now=arrival, q=q, serv=serv)
@record(hit=0.0, q=q, m=serv)
""",
)

_snippet("no_cache_events", "", "")

_snippet("no_cache_flush", "", "")

# ---- IDEAL-LO: direct-mapped tags, free tag checks --------------------
_snippet(
    "ideal_lo_setup",
    "",
    """
store = design.cache
si_np = a_np % store.num_sets
SI = si_np.tolist()
sb, sc, sr = _row_decode(si_np // design.sets_per_row, stacked)
tags = store._tags
dirty = store._dirty
st_h = st_m = st_f = st_ev = st_dev = 0
n_wh = n_drh = n_fills = 0
""",
)

_snippet(
    "ideal_lo_write",
    "",
    """
addr = A[g]
i = SI[g]
@dm_lookup(addr=addr, i=i, write=True)
if hit:
    n_wh += 1
    push(heap, (now, seq, 3, g, 0))
else:
    n_wm += 1
    push(heap, (now, seq, 1, addr, 0))
seq += 1
""",
)

_snippet(
    "ideal_lo_read",
    "",
    """
addr = A[g]
i = SI[g]
@dm_lookup(addr=addr, i=i, write=False)
if hit:
    @stacked_row(at=g)
    @demand(d=s, now=arrival, burst=s_lb, bytes=s_flb, q=q, serv=serv, hits=n_drh)
    @record(hit=1.0, q=q, d=serv)
else:
    n_mr += 1
    @memory_read(now=arrival, q=q, serv=serv)
    push(heap, (done if done >= now else now, seq, 2, g, 0))
    seq += 1
    @record(hit=0.0, q=q, m=serv)
""",
)

_snippet(
    "ideal_lo_events",
    "",
    """
elif kind == 2:
    # DirectMappedCache.fill; a dirty victim is read out, then written back.
    addr = A[a]
    i = SI[a]
    @dm_fill(addr=addr, i=i)
    @stacked_row(at=a)
    t = now
    if ev_dirty:
        @background(d=s, now=now, burst=s_lb, bytes=s_flb, write=False, done=t)
        push(heap, (t, seq, 1, ev_addr, 0))
        seq += 1
    @background(d=s, now=t, burst=s_lb, bytes=s_flb)
    n_fills += 1
else:
    @stacked_row(at=a)
    @background(d=s, now=now, burst=s_lb, bytes=s_flb)
""",
)

_snippet(
    "ideal_lo_flush",
    "",
    """
_flush(stats, "row_hits", n_drh)
_flush(stats, "write_hits", n_wh)
_flush(stats, "fills", n_fills)
@store_flush(stats=store.stats)
""",
)

_snippet(
    "store_flush",
    "stats",
    """
_flush($stats, "hits", st_h)
_flush($stats, "misses", st_m)
_flush($stats, "fills", st_f)
_flush($stats, "evictions", st_ev)
_flush($stats, "dirty_evictions", st_dev)
""",
)

# ---- SRAM-Tag: SRAM tag lookup, then data or memory -------------------
_snippet(
    "sram_setup",
    "",
    """
tags_cache = design.tags
si_np = a_np % tags_cache.num_sets
SI = si_np.tolist()
sb, sc, sr = _row_decode(si_np // design.sets_per_row, stacked)
@sa_setup(cache=tags_cache)
tsl = float(design.config.sram_tag_latency)
st_h = st_m = st_f = st_ev = st_dev = 0
n_wh = n_vr = n_fills = 0
""",
)

_snippet(
    "sram_write",
    "",
    """
addr = A[g]
i = SI[g]
t_tag = now + tsl
@sa_lookup(addr=addr, i=i, write=True)
if way is None:
    n_wm += 1
    push(heap, (t_tag, seq, 1, addr, 0))
else:
    n_wh += 1
    push(heap, (t_tag, seq, 3, g, 0))
seq += 1
""",
)

_snippet(
    "sram_read",
    "",
    """
addr = A[g]
i = SI[g]
t_tag = arrival + tsl
@sa_lookup(addr=addr, i=i, write=False)
if way is None:
    n_mr += 1
    @memory_read(now=t_tag, q=q, serv=serv)
    push(heap, (done, seq, 2, g, 0))
    seq += 1
    @record(hit=0.0, q=q, t=tsl, m=serv)
else:
    @stacked_row(at=g)
    @demand(d=s, now=t_tag, burst=s_lb, bytes=s_flb, q=q, serv=serv)
    @record(hit=1.0, q=q, t=tsl, d=serv)
""",
)

_snippet(
    "sram_events",
    "",
    """
elif kind == 2:
    # SetAssocCache.fill; a dirty victim is read out before the fill write.
    addr = A[a]
    i = SI[a]
    @sa_fill(addr=addr, i=i)
    @stacked_row(at=a)
    if ev_dirty:
        @background(d=s, now=now, burst=s_lb, bytes=s_flb, write=False, done=vdone)
        n_vr += 1
        push(heap, (vdone, seq, 1, ev_addr, 0))
        seq += 1
        @background(d=s, now=vdone, burst=s_lb, bytes=s_flb, chained=True)
    else:
        @background(d=s, now=now, burst=s_lb, bytes=s_flb)
    n_fills += 1
else:
    @stacked_row(at=a)
    @background(d=s, now=now, burst=s_lb, bytes=s_flb)
""",
)

_snippet(
    "sram_flush",
    "",
    """
_flush(stats, "write_hits", n_wh)
_flush(stats, "victim_reads", n_vr)
_flush(stats, "fills", n_fills)
@store_flush(stats=tags_cache.stats)
#if policy == "dip"
pol.psel = psel
#endif
""",
)

# ---- LH-Cache: MissMap, then tags-in-DRAM compound accesses -----------
_snippet(
    "lh_setup",
    "",
    """
tags_cache = design.tags
si_np = a_np % tags_cache.num_sets
SI = si_np.tolist()
sb, sc, sr = _row_decode(si_np // design.sets_per_row, stacked)
@sa_setup(cache=tags_cache)
missmap = design.missmap
@mm_setup(missmap=missmap)
mml = design._missmap_latency_f
tag_b = float(design._tag_burst_v)
lb = float(design._line_burst_v)
ub = float(design._update_burst_v)
tag_bytes = int(tag_b * LINE_SIZE / s_lb)
lb_bytes = int(lb * LINE_SIZE / s_lb)
ub_bytes = int(ub * LINE_SIZE / s_lb)
tcc = float(TAG_CHECK_CYCLES)
st_h = st_m = st_f = st_ev = st_dev = 0
n_mmh = n_mmm = 0
n_wh = n_vr = n_fills = n_reopen = n_upd = 0
""",
)

# MissMap.contains, then the tag lookup it must agree with.
_snippet(
    "lh_lookup",
    "write",
    """
present = addr in mm_present
if present:
    n_mmh += 1
else:
    n_mmm += 1
i = SI[g]
@sa_lookup(addr=addr, i=i, write=$write)
assert present == (way is not None), "MissMap diverged from the tag array"
""",
)

_snippet(
    "lh_write",
    "",
    """
addr = A[g]
t0 = now + mml
@lh_lookup(write=True)
if way is None:
    n_wm += 1
    push(heap, (t0, seq, 1, addr, 0))
else:
    n_wh += 1
    push(heap, (t0, seq, 5, g, 0))
seq += 1
""",
)

_snippet(
    "lh_read",
    "",
    """
addr = A[g]
t0 = arrival + mml
@lh_lookup(write=False)
if way is None:
    n_mr += 1
    @memory_read(now=t0, q=q, serv=serv)
    push(heap, (done, seq, 2, g, 0))
    seq += 1
    @record(hit=0.0, q=q, p=mml, m=serv)
else:
    # Compound access: tag lines, tag check, then the data line from the
    # row the tag read opened (and the replacement-state update).
    @stacked_row(at=g)
    @demand(d=s, now=t0, burst=tag_b, bytes=tag_bytes, done=done_t, q=q_t, serv=serv_t)
    t_data = done_t + tcc
    @demand(d=s, now=t_data, burst=lb, bytes=lb_bytes, chained=True, q=q_d, serv=serv)
#if not s_open_page
    n_reopen += 1
#endif
#if update
    @demand(d=s, now=done, burst=ub, bytes=ub_bytes, write=True, chained=True, done=_)
    n_upd += 1
#endif
    @record(hit=1.0, q=q_t + q_d, p=mml, t=serv_t + tcc, d=serv)
""",
)

_snippet(
    "lh_events",
    "",
    """
elif kind == 2:
    # Fill: tag read, SetAssocCache.fill, a dirty victim read, the data
    # write and the tag-line update, all in the request's row.
    addr = A[a]
    @stacked_row(at=a)
    @background(d=s, now=now, burst=tag_b, bytes=tag_bytes, write=False, done=t)
    i = SI[a]
    @sa_fill(addr=addr, i=i)
    @mm_insert(addr=addr)
    t += tcc
    if ev_addr != -1:
        @mm_remove(addr=ev_addr)
        if ev_dirty:
            @background(d=s, now=t, burst=lb, bytes=lb_bytes, write=False, chained=True, done=t_victim)
            n_vr += 1
            push(heap, (t_victim, seq, 1, ev_addr, 0))
            seq += 1
            t = t_victim
    @background(d=s, now=t, burst=lb, bytes=lb_bytes, chained=True, done=t_data)
    @background(d=s, now=t_data, burst=lb, bytes=lb_bytes, chained=True)
    n_fills += 1
else:
    # Write-hit traffic: tag read, then the data write.
    @stacked_row(at=a)
    @background(d=s, now=now, burst=tag_b, bytes=tag_bytes, write=False, done=t)
    t += tcc
    @background(d=s, now=t, burst=lb, bytes=lb_bytes, chained=True)
""",
)

_snippet(
    "lh_flush",
    "",
    """
_flush(stats, "compound_row_reopens", n_reopen)
_flush(stats, "replacement_updates", n_upd)
_flush(stats, "write_hits", n_wh)
_flush(stats, "victim_reads", n_vr)
_flush(stats, "fills", n_fills)
@store_flush(stats=tags_cache.stats)
#if policy == "dip"
pol.psel = psel
#endif
_flush(missmap.stats, "lookups", n_mmh + n_mmm)
_flush(missmap.stats, "predicted_hits", n_mmh)
_flush(missmap.stats, "predicted_misses", n_mmm)
""",
)

# ---- Alloy: one TAD stream per access, a memory access predictor -------
_snippet(
    "alloy_setup",
    "",
    """
si_np = a_np % design._num_sets
SI = si_np.tolist()
sb, sc, sr = _row_decode(si_np // design._sets_per_row, stacked)
slot_np = si_np % design._sets_per_row
BU = np.asarray(design._burst_by_slot, dtype=np.float64)[slot_np].tolist()
tad_bytes = {float(b): int(b * LINE_SIZE / s_lb) for b in design._burst_by_slot}
@predictor_setup()
#if pred == "map-i"
IDX = _mact_indices(P, index_bits)
#endif
#if pred in ("map-i", "map-g", "sam", "pam")
plat = float(design._pred_latency)
#elif pred == "missmap"
mml = float(design._missmap_latency)
#endif
store = design.cache._store
#if ways1
tags = store._tags
dirty = store._dirty
#else
@sa_setup(cache=store)
#endif
#if victim
vhc = float(VICTIM_HIT_CYCLES)
n_vhit = 0
#endif
st_h = st_m = st_f = st_ev = st_dev = 0
pm = pc_ = 0
s_mm = s_mc = s_cm = s_cc = 0
n_wh = n_trh = n_wasted = n_fills = 0
""",
)

# The TAD array's lookup of ``addr`` in set ``i``; ``hit`` tells a hit.
_snippet(
    "alloy_lookup",
    "write",
    """
#if ways1
@dm_lookup(addr=addr, i=i, write=$write)
#else
@sa_lookup(addr=addr, i=i, write=$write)
hit = way is not None
#endif
""",
)

# Fill the TAD array with ``addr``: the MissMap follows the array, and the
# displaced line drops into the victim buffer or, if dirty, is written back
# (the warmup replays no writebacks).
_snippet(
    "alloy_fill",
    "",
    """
#if ways1
@dm_fill(addr=addr, i=i)
#else
@sa_fill(addr=addr, i=i)
#endif
#if pred == "missmap"
@mm_insert(addr=addr)
if ev_addr != -1:
    @mm_remove(addr=ev_addr)
#endif
#if victim
if ev_addr != -1:
    @stash(ev=ev_addr, ev_d=ev_dirty)
#elif not warm
if ev_dirty:
    push(heap, (now, seq, 1, ev_addr, 0))
    seq += 1
#endif
""",
)

_snippet(
    "alloy_write",
    "",
    """
addr = A[g]
i = SI[g]
@alloy_lookup(write=True)
if hit:
    n_wh += 1
    push(heap, (now, seq, 4, g, 1))
else:
    n_wm += 1
    push(heap, (now, seq, 4, g, 0))
seq += 1
""",
)

_snippet(
    "alloy_read",
    "",
    """
addr = A[g]
i = SI[g]
#if pred == "map-i"
row_m = mact[ci]
i2 = IDX[g]
#endif
#if victim
vway = vimap.get(addr)
if vway is not None:
    # SRAM victim-buffer hit: fixed-latency service, no DRAM or predictor
    # probe; the line swaps back into the TAD array in the background.
    n_vhit += 1
    s_cc += 1
    done = arrival + vhc
    @record(hit=1.0, d=vhc)
    @train(went=False)
    @swap_back(addr=addr, i=i)
    push(heap, (arrival, seq, 3, g, 0))
    seq += 1
else:
    v_m += 1
    @alloy_array_read()
#else
@alloy_array_read()
#endif
""",
)

_snippet(
    "alloy_array_read",
    "",
    """
@alloy_lookup(write=False)
#if pred == "map-i"
p = row_m[i2] >= mac_msb
#elif pred == "map-g"
p = mac_g[ci] >= mac_msb
#elif pred in ("missmap", "perfect")
p = not hit
#elif pred == "pam"
p = True
#else
p = False
#endif
#if pred in ("map-i", "map-g", "perfect")
if p:
    pm += 1
else:
    pc_ += 1
#elif pred == "pam"
pm += 1
#elif pred == "sam"
pc_ += 1
#endif
#if pred in ("map-i", "map-g", "sam", "pam")
pready = arrival + plat
#elif pred == "missmap"
pready = arrival + mml
#else
pready = arrival
#endif
pd = pready - arrival
@stacked_row(at=g)
bu = BU[g]
@demand(d=s, now=pready, burst=bu, bytes=tad_bytes[bu], fixed=False, done=done_t, q=q_t, serv=serv_t, hits=n_trh)
if hit:
    if p:
        s_mc += 1
        # A wasted parallel memory read: bandwidth only.
        n_mr += 1
        @memory_read(now=pready, done=_)
        n_wasted += 1
    else:
        s_cc += 1
    done = done_t
    @record(hit=1.0, q=q_t, p=pd, d=serv_t)
    @train(went=False)
else:
    n_mr += 1
    if p:
        # PAM: memory in parallel; its data waits for the tag check.
        s_mm += 1
        @memory_read(now=pready, done=done_m, q=q_m, serv=serv_m)
        if done_t > done_m:
            done = done_t
            @record(hit=0.0, q=q_t, p=pd, t=serv_t)
        else:
            done = done_m
            @record(hit=0.0, q=q_m, p=pd, m=serv_m)
    else:
        # SAM: memory after the probe rules the access a miss.
        s_cm += 1
        @memory_read(now=done_t, q=q_m, serv=serv_m)
        @record(hit=0.0, q=q_t + q_m, p=pd, t=serv_t, m=serv_m)
    @train(went=True)
    push(heap, (done, seq, 2, g, 0))
    seq += 1
""",
)

_snippet(
    "alloy_events",
    "",
    """
elif kind == 2:
    # Fill the TAD array; the probe already streamed the victim out.
    addr = A[a]
    i = SI[a]
    @alloy_fill()
    @stacked_row(at=a)
    bu = BU[a]
    @background(d=s, now=now, burst=bu, bytes=tad_bytes[bu], fixed=False)
    n_fills += 1
#if victim
elif kind == 3:
    # The swapped-back line's TAD refill.
    @stacked_row(at=a)
    bu = BU[a]
    @background(d=s, now=now, burst=bu, bytes=tad_bytes[bu], fixed=False)
#endif
else:
    # Posted write: probe the TAD, then write it (hit) or go to memory.
    @stacked_row(at=a)
    bu = BU[a]
    @background(d=s, now=now, burst=bu, bytes=tad_bytes[bu], write=False, fixed=False, done=t)
    if b:
        @background(d=s, now=t, burst=bu, bytes=tad_bytes[bu], chained=True, fixed=False)
    else:
        n_mw += 1
        bk = mb[a]
        ch = mc[a]
        row = mr[a]
        @background(d=m, now=t, burst=m_lb, bytes=m_flb)
""",
)

_snippet(
    "alloy_flush",
    "",
    """
_flush(stats, _SCENARIO_KEYS[(True, True)], s_mm)
_flush(stats, _SCENARIO_KEYS[(True, False)], s_mc)
_flush(stats, _SCENARIO_KEYS[(False, True)], s_cm)
_flush(stats, _SCENARIO_KEYS[(False, False)], s_cc)
_flush(stats, "tad_row_hits", n_trh)
_flush(stats, "wasted_memory_reads", n_wasted)
_flush(stats, "write_hits", n_wh)
_flush(stats, "fills", n_fills)
@store_flush(stats=store.stats)
#if victim
_flush(stats, "victim_hits", n_vhit)
vstats = design.victims.stats
_flush(vstats, "hits", v_h)
_flush(vstats, "misses", v_m)
_flush(vstats, "fills", v_f)
_flush(vstats, "evictions", v_ev)
_flush(vstats, "dirty_evictions", v_dev)
#endif
#if pred in ("map-i", "map-g", "sam", "pam", "perfect")
predictor.predicted_memory += pm
predictor.predicted_cache += pc_
#endif
""",
)


# ----------------------------------------------------------------------
# Templates: the flat warmup loop
# ----------------------------------------------------------------------
# Each record as ``design.warm`` replays it, built from the kernels' own
# lookup, fill and replacement bodies: every design fills on a read miss
# (LH-Cache and the MissMap Alloy keep their MissMap in step); the Alloy
# also trains its predictor; the victim Alloy serves a read from its buffer
# when it can, and its dirty overflow is appended to ``overflow``.
_WARM = """
def $name(system, starts, overflow):
    design = system.design
#if family in ("sram", "lh")
    store = design.tags
#elif family == "ideal_lo"
    store = design.cache
#else
    store = design.cache._store
    @predictor_setup()
#endif
#if family == "lh"
    @mm_setup(missmap=design.missmap)
#endif
#if family == "ideal_lo" or family == "alloy" and ways1
    tags = store._tags
    dirty = store._dirty
#else
    @sa_setup(cache=store)
#endif
    nsets = store.num_sets
    st_h = st_m = st_f = st_ev = st_dev = 0
    hit_at = ()
    for ci, trace in enumerate(system.workload.cores):
        split = starts[ci]
        if not split:
            continue
        addrs = trace.addresses[:split].tolist()
        writes = trace.is_write[:split].tolist()
#if pred == "map-i"
        row_m = mact[ci]
        slots = _mact_indices(trace.pcs[:split], index_bits)
#else
        slots = repeat(0)
#endif
        for addr, w, i2 in zip(addrs, writes, slots):
            i = addr % nsets
            @${family}_warm()
    @warm_flush()
"""

_snippet(
    "sram_warm",
    "",
    """
if w:
    @sa_lookup(addr=addr, i=i, write=True)
else:
    @sa_lookup(addr=addr, i=i, write=False)
    if way is None:
        @sa_fill(addr=addr, i=i)
""",
)

_snippet(
    "lh_warm",
    "",
    """
if w:
    @sa_lookup(addr=addr, i=i, write=True)
else:
    @sa_lookup(addr=addr, i=i, write=False)
    if way is None:
        @sa_fill(addr=addr, i=i)
        @mm_insert(addr=addr)
        if ev_addr != -1:
            @mm_remove(addr=ev_addr)
""",
)

_snippet(
    "ideal_lo_warm",
    "",
    """
if w:
    @dm_lookup(addr=addr, i=i, write=True)
else:
    @dm_lookup(addr=addr, i=i, write=False)
    if not hit:
        @dm_fill(addr=addr, i=i)
""",
)

_snippet(
    "alloy_warm",
    "",
    """
#if victim
if not w and addr in vimap:
    vway = vimap[addr]
    @swap_back(addr=addr, i=i)
    @train(went=False)
    continue
#endif
if w:
    @alloy_lookup(write=True)
else:
    @alloy_lookup(write=False)
    if not hit:
        @alloy_fill()
        @train(went=True)
#if pred in ("map-i", "map-g")
    else:
        @train(went=False)
#endif
""",
)

_snippet(
    "warm_flush",
    "",
    """
_flush_warm(
    store.stats, st_h, hit_at,
    (("misses", st_m), ("fills", st_f), ("evictions", st_ev),
     ("dirty_evictions", st_dev)),
)
#if victim
_flush_warm(
    design.victims.stats, v_h, v_hit_at,
    (("fills", v_f), ("evictions", v_ev), ("dirty_evictions", v_dev)),
)
#endif
#if policy == "dip"
pol.psel = psel
#endif
""",
)
