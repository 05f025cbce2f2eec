"""Synthetic access-pattern generators standing in for SPEC2006 traces.

We do not have SPEC binaries or a Pin front-end, so each benchmark is modeled
as a weighted mixture of canonical memory behaviours (DESIGN.md, substitution
1). The DRAM-cache trade-offs the paper measures depend on four properties of
the post-L3 stream, and each is a first-class parameter here:

* miss arrival rate      -> ``mpki`` (gap cycles between demand misses),
* spatial locality       -> ``sequential`` components with long run lengths
                            (row-buffer friendly "type X" accesses),
* temporal reuse         -> ``hot``/``zipf`` components sized relative to the
                            cache (DRAM-cache hit rate, associativity
                            sensitivity),
* streaming/cold traffic -> ``pointer`` and large ``sequential`` components
                            ("type Y" accesses, compulsory misses).

Hit/miss outcomes correlate with the generating component, and each component
draws from its own small pool of instruction addresses — which is precisely
the correlation MAP-I exploits (Section 5.3.2).

:func:`generate_core_trace` draws a trace in two passes. Pass 1 walks the
phases (runs of bursts from one component) and bursts, and only records
each component's random draws. Pass 2 turns them into line addresses and
PC slots with a few numpy calls per component for the whole trace. A fixed
draw order per generator (see its docstring) keeps every stream identical,
bit for bit, to the original record-at-a-time generator's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.units import LINE_SIZE
from repro.workloads.trace import CoreTrace

#: Version of the generated trace *streams*. Part of every workload-arena
#: cache key (:mod:`repro.workloads.arena`): bump whenever a change to this
#: module alters the emitted addresses/pcs/gaps for any (config, seed), so
#: persisted ``.npz`` arenas from older generators are invalidated. Pure
#: speedups that keep streams bit-identical must NOT bump it: they must
#: reproduce every digest in ``tests/goldens/trace_digests.json`` (every
#: catalog benchmark and mix at several lengths and scales) unedited.
GENERATOR_VERSION = 1

#: Compute CPI between misses for a 4-wide core (gap cycles per instruction).
COMPUTE_CPI = 0.25

#: Geometric mean burst length for non-sequential components.
DEFAULT_BURST = 3

#: Geometric mean number of bursts a component stays active once selected.
PHASE_BURSTS = 10

#: Kinds issued from interchangeable instructions: the trace's main
#: generator draws their PC slots. Hot and zipf bind the slot to the address.
_SLOT_FREE_KINDS = ("sequential", "strided", "pointer")


@dataclass(frozen=True)
class Component:
    """One access-pattern component of a benchmark mixture.

    Attributes:
        kind: ``sequential`` (streaming runs), ``strided`` (fixed-stride
            walks, ``run_length`` lines apart), ``hot`` (uniform reuse
            within a small region), ``zipf`` (skewed reuse), or ``pointer``
            (dependent chasing over a large region, negligible reuse).
        weight: Mixture weight (relative).
        region_bytes: *Nominal* region size; divided by the capacity scale
            when a trace is generated.
        run_length: Mean consecutive-line run length (sequential locality).
        zipf_alpha: Skew for ``zipf`` components.
        pc_pool: Distinct instruction addresses this component issues from.
    """

    kind: str
    weight: float
    region_bytes: int
    run_length: int = 1
    zipf_alpha: float = 1.4
    pc_pool: int = 4


@dataclass(frozen=True)
class PatternConfig:
    """Full generative description of one benchmark's memory behaviour."""

    name: str
    mpki: float
    components: Tuple[Component, ...]
    write_fraction: float = 0.2
    footprint_bytes: int = 0  # nominal; defaults to the sum of regions
    #: Mean compute cycles between demand misses. Calibrated per benchmark
    #: so the no-DRAM-cache baseline reproduces Table 3's perfect-L3
    #: speedup; falls back to ``1000/mpki * COMPUTE_CPI`` when unset.
    gap_mean_cycles: float = 0.0

    def total_region_bytes(self) -> int:
        return self.footprint_bytes or sum(c.region_bytes for c in self.components)


def zipf_ranks(uniforms: np.ndarray, power: float, region: int) -> np.ndarray:
    """Zipf ranks ``min(int(u ** power) - 1, region - 1)`` of ``uniforms``.

    Inverse-CDF power-law sample over ranks, clipped to the region. The
    power is Python's ``**`` on Python floats, not ``np.power``, whose
    SIMD loops can differ from it in the last ulp depending on the CPU's
    vector extensions. A zero uniform clips to the region's last line.
    """
    top = region - 1
    return np.array(
        [min(int(u**power) - 1, top) if u else top for u in uniforms.tolist()],
        dtype=np.int64,
    )


class _ComponentDraws:
    """One component's generator, and the draws pass 1 records from it."""

    def __init__(self, comp: Component, region_lines: int, base_line: int, rng) -> None:
        if comp.kind not in _SLOT_FREE_KINDS + ("hot", "zipf"):
            raise ValueError(f"unknown component kind {comp.kind!r}")
        self.comp = comp
        self.region = region = max(region_lines, 1)
        self.base_line = base_line
        self.rng = rng
        self.cursor = int(rng.integers(region))
        #: The pool the main generator draws this kind's PC slots from (0
        #: for hot and zipf, whose slot follows the address).
        self.slot_pool = comp.pc_pool if comp.kind in _SLOT_FREE_KINDS else 0
        #: Records drawn so far; per burst, its length and draw (hot: the
        #: start line; zipf: the uniforms; pointer: the lines).
        self.records = 0
        self.lengths: List[int] = []
        self.draws: List = []
        self._burst = {
            "hot": lambda length: int(rng.integers(region)),
            "zipf": lambda length: rng.random(length),
            # The first value is the burst's start, which goes unused.
            "pointer": lambda length: rng.integers(region, size=length + 1)[1:],
        }.get(comp.kind)

    def draw_phase(self, bursts: int, remaining: int) -> int:
        """Pass 1: draw one phase of ``bursts`` bursts; return its records.

        The phase ends early, mid-burst, after ``remaining`` records.
        """
        comp = self.comp
        if self._burst is None:
            # Sequential and strided records are a pure function of the
            # running record count, so only the burst lengths are drawn.
            mean = comp.run_length if comp.kind == "sequential" else DEFAULT_BURST
            lengths = self.rng.geometric(1.0 / mean, size=bursts)
            drawn = min(int(lengths.sum()), remaining)
        else:
            # The busiest loop of trace generation: locals, no min().
            geometric = self.rng.geometric
            burst = self._burst
            add_length = self.lengths.append
            add_draw = self.draws.append
            p = 1.0 / DEFAULT_BURST
            drawn = 0
            for _ in range(bursts):
                left = remaining - drawn
                if left <= 0:
                    break
                length = geometric(p)
                if length > left:
                    length = left
                add_length(length)
                add_draw(burst(length))
                drawn += length
        self.records += drawn
        return drawn

    def lines_and_slots(self):
        """Pass 2: this component's line addresses and PC slots, in order.

        Slots are None for slot-free kinds. Hot and zipf components bind
        the slot to the address/rank: hot and cold data are touched by
        different code paths, the correlation MAP-I exploits.
        """
        comp = self.comp
        region = self.region
        index = np.arange(self.records, dtype=np.int64)
        if comp.kind == "sequential":
            # Bursts continue where the last one ended, across phases.
            return self.base_line + (self.cursor + index) % region, None
        if comp.kind == "strided":
            # Fixed-stride walk (column sweeps, HPC grids): run_length is
            # the stride in lines. Strides >= a row's 32 lines defeat the
            # row buffer entirely (pure "type Y" traffic).
            stride = max(comp.run_length, 1)
            return self.base_line + (self.cursor + stride * index) % region, None
        if comp.kind == "pointer":
            return self.base_line + np.concatenate(self.draws), None
        if comp.kind == "hot":
            # PC binds to the address chunk: distinct loads walk distinct
            # structures, so a chunk that loses its cache slots to
            # conflicts keeps missing under the same PC — the per-PC
            # outcome bias MAP-I learns.
            lengths = np.array(self.lengths, dtype=np.int64)
            first = np.cumsum(lengths) - lengths
            starts = np.array(self.draws, dtype=np.int64)
            rel = (np.repeat(starts - first, lengths) + index) % region
            return self.base_line + rel, rel * comp.pc_pool // region
        # Zipf: rank maps to a contiguous line, so hot data is clustered,
        # as in real heaps, which keeps direct-mapped conflicts between the
        # hot head and cold tail realistic rather than maximal.
        power = -1.0 / (comp.zipf_alpha - 1.0)
        ranks = zipf_ranks(np.concatenate(self.draws), power, region)
        # frexp's exponent is exactly bit_length for ints < 2**53.
        # (int64, not frexp's native int32: pc bases exceed 2**31.)
        bit_lengths = np.frexp(ranks.astype(np.float64))[1].astype(np.int64)
        return self.base_line + ranks, np.minimum(bit_lengths, comp.pc_pool - 1)


def generate_core_trace(
    config: PatternConfig,
    num_reads: int,
    seed: int,
    capacity_scale: int = 256,
    base_line: int = 0,
) -> CoreTrace:
    """Generate one core's trace from a :class:`PatternConfig`.

    ``base_line`` offsets every address so rate-mode copies occupy disjoint
    physical ranges. Region sizes are divided by ``capacity_scale`` to match
    the scaled cache capacity (DESIGN.md, substitution 2).

    Programs execute in phases: once a component becomes active it stays
    active for several bursts (geometric, mean :data:`PHASE_BURSTS`), the
    temporal clustering of hits and misses that history-based predictors
    exploit (Section 5.3's MMMMHHHH example).

    Draw order per generator (each component's first draws its cursor):

    * main, per phase: ``random()`` (component), ``geometric(0.1)``
      (bursts), then for a slot-free kind with ``pc_pool > 1`` one
      ``integers(pc_pool, size=n)`` for the phase's ``n`` records; after
      the last phase, the gaps and the writebacks;
    * sequential and strided: one ``geometric(p, size=bursts)`` per phase;
    * hot: per burst, ``geometric(1/3)`` then ``integers(region)``;
    * zipf: per burst, ``geometric(1/3)`` then ``random(size=L)``;
    * pointer: per burst, ``geometric(1/3)`` then
      ``integers(region, size=L + 1)`` (the first value is the start).

    These are the record-at-a-time generator's streams, bit for bit: a
    sized call equals that many scalar calls, same-bound ``integers``
    calls concatenate (PCG64 keeps its spare 32-bit half), generators are
    independent, and lengths drawn past the trace's end are never used.
    ``tests/test_trace_digests.py`` pins each of these numpy facts.
    """
    rng = np.random.default_rng(seed)
    comps = config.components
    # Component weights are *per access*, but generation draws bursts: a
    # sequential component with run_length 64 emits ~64 accesses per draw.
    # Draw probabilities are therefore weight / expected-burst-length.
    burst_means = np.array(
        [c.run_length if c.kind == "sequential" else DEFAULT_BURST for c in comps],
        dtype=float,
    )  # strided/hot/zipf/pointer bursts all average DEFAULT_BURST accesses
    weights = np.array([c.weight for c in comps], dtype=float) / burst_means
    weights /= weights.sum()
    # Phase draws replicate ``rng.choice(len(comps), p=weights)`` with the
    # CDF hoisted out of the loop: Generator.choice is exactly
    # ``cdf.searchsorted(self.random(), side="right")`` after normalizing,
    # and bisect_right on the same doubles finds the same index.
    comp_cdf = weights.cumsum()
    comp_cdf = (comp_cdf / comp_cdf[-1]).tolist()

    # Lay components out back-to-back inside the core's region.
    states: List[_ComponentDraws] = []
    offset = 0
    for i, comp in enumerate(comps):
        region_lines = max(comp.region_bytes // capacity_scale // LINE_SIZE, 1)
        comp_rng = np.random.default_rng(seed * 1000003 + i)
        states.append(_ComponentDraws(comp, region_lines, base_line + offset, comp_rng))
        offset += region_lines

    # Pass 1: phases and bursts; only the draws are kept.
    slots = np.zeros(num_reads, dtype=np.int64)
    phase_comps: List[int] = []
    phase_records: List[int] = []
    total = 0
    while total < num_reads:
        comp_idx = bisect_right(comp_cdf, rng.random())
        state = states[comp_idx]
        bursts = int(rng.geometric(1.0 / PHASE_BURSTS))
        records = state.draw_phase(bursts, num_reads - total)
        if state.slot_pool > 1:  # a one-PC pool draws nothing
            slots[total : total + records] = rng.integers(state.slot_pool, size=records)
        phase_comps.append(comp_idx)
        phase_records.append(records)
        total += records

    # Pass 2: each component's records, scattered through the per-record
    # component index.
    record_comp = np.repeat(
        np.array(phase_comps, dtype=np.intp), np.array(phase_records, dtype=np.intp)
    )
    read_addrs_arr = np.empty(num_reads, dtype=np.int64)
    for comp_idx, state in enumerate(states):
        if state.records:
            lines, comp_slots = state.lines_and_slots()
            mine = record_comp == comp_idx
            read_addrs_arr[mine] = lines
            if comp_slots is not None:
                slots[mine] = comp_slots
    pc_base = 0x400000 + (seed & 0xFFFF) * 0x10000
    comp_pc_bases = pc_base + 0x1000 * np.arange(len(comps), dtype=np.int64)
    read_pcs_arr = comp_pc_bases[record_comp] + slots * 4
    is_pointer = np.array([c.kind == "pointer" for c in comps], dtype=bool)
    read_dep_arr = is_pointer[record_comp]

    # Gap cycles: calibrated mean compute time between misses (see
    # PatternConfig.gap_mean_cycles) with exponential jitter for burstiness.
    mean_gap = config.gap_mean_cycles or (1000.0 / config.mpki) * COMPUTE_CPI
    gaps = rng.exponential(mean_gap, size=num_reads)

    # Writebacks: dirty L3 victims. Each is an address read a while ago
    # (L3-residency lag), posted alongside a demand miss (gap 0).
    num_writes = int(num_reads * config.write_fraction / (1.0 - config.write_fraction))
    src = rng.integers(0, num_reads, size=num_writes)
    lag = rng.integers(1, 512, size=num_writes)
    write_addrs = read_addrs_arr[np.maximum(src - lag, 0)]
    insert_pos = np.sort(rng.integers(0, num_reads + 1, size=num_writes))
    is_write = np.zeros(num_reads + num_writes, dtype=bool)
    is_write[insert_pos + np.arange(num_writes)] = True
    return CoreTrace(
        gaps=np.insert(gaps, insert_pos, 0.0),
        addresses=np.insert(read_addrs_arr, insert_pos, write_addrs),
        is_write=is_write,
        pcs=np.insert(read_pcs_arr, insert_pos, 0),
        instructions=int(num_reads * 1000.0 / config.mpki),
        is_dependent=np.insert(read_dep_arr, insert_pos, False),
    )
