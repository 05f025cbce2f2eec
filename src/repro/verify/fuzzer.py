"""Differential fuzzer: batch engine vs. the plain reference, bit for bit.

Two layers, both driven from ``repro check``:

* **Device streams** — a seeded generator produces randomized access
  streams (mixed demand/background, reads/writes, variable bursts, open and
  closed page policy, and deliberate backlog phases hugging the block-cap
  and watermark boundaries) and replays each stream through a plain
  :class:`~repro.dram.device.DramDevice` and through the batch engine's
  device closures (:func:`repro.sim.batch._device_fns`) over a second
  device built from the same timings. Every closure result must equal the
  matching fields of the reference ``AccessResult``, and at end of stream
  the bank/bus timelines, open-row state and device counters must match
  exactly. Each reference result is also run through the per-access
  invariant checks.
* **System runs** — whole paired :class:`~repro.sim.system.System`
  simulations over randomized small workloads (design, benchmark, core
  count, and page policies drawn from the seed), asserting field-identical
  :class:`~repro.sim.results.SimResult` payloads between the interpreter
  and the batch engine, plus one invariant-enabled run of the same cell
  proving the invariant layer passes on real workloads.

Divergences are collected as human-readable strings (capped) rather than
raised, so one bad seed reports every layer it broke.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.dram.device import BACKGROUND_BACKLOG_OPS, DramDevice
from repro.dram.mapping import RowLocation
from repro.dram.timings import OFFCHIP_DDR3, STACKED_DRAM, DramTimings
from repro.sim import batch
from repro.verify.invariants import InvariantChecker, InvariantViolation

#: (timings, page_policy) combinations every device seed is fuzzed under.
DEVICE_MATRIX: Tuple[Tuple[DramTimings, str], ...] = (
    (STACKED_DRAM, "open"),
    (STACKED_DRAM, "closed"),
    (OFFCHIP_DDR3, "open"),
    (OFFCHIP_DDR3, "closed"),
)

#: Designs and benchmarks the System-level differential draws from. The
#: designs rotate (see :func:`system_design`) through every design the batch
#: engine has a kernel for, so ``--system-seeds 20`` walks them all; the
#: first six span the kernel families (direct-mapped and multi-way Alloy,
#: LH-Cache, SRAM-tag, IDEAL-LO, the victim buffer).
SYSTEM_DESIGNS = batch.BATCH_DESIGNS
SYSTEM_BENCHMARKS = ("mcf_r", "gcc_r", "milc_r", "lbm_r")
#: MSHRs-per-core values the system seeds rotate through — >1 exercises
#: the kernels' in-flight (MLP) path against the interpreter's.
SYSTEM_MSHRS = (1, 1, 4)

#: Stop collecting after this many divergences (one broken invariant tends
#: to cascade; the first few messages carry the signal).
MAX_DIVERGENCES = 32


# ----------------------------------------------------------------------
# Stream generation
# ----------------------------------------------------------------------
def _stream(
    rng: random.Random, timings: DramTimings, accesses: int
) -> List[Tuple[float, RowLocation, Optional[int], bool, bool]]:
    """One randomized access stream: (now, loc, burst, is_write, background).

    ``now`` is non-decreasing with a mix of zero, fractional, and large
    gaps. Interleaved phases deliberately pile background work onto one
    bank (hugging the bank watermark, ``BACKGROUND_BACKLOG_OPS`` lines) or
    onto one channel bus via oversized bursts around the bus watermark
    (``BACKGROUND_BACKLOG_OPS * line_burst`` cycles), then probe with
    demand reads — the paths a uniform random stream rarely stresses.
    """
    channels = timings.channels
    banks = timings.banks_per_channel
    line_burst = timings.line_burst
    bus_watermark = BACKGROUND_BACKLOG_OPS * line_burst
    out: List[Tuple[float, RowLocation, Optional[int], bool, bool]] = []
    now = 0.0

    def loc(channel=None, bank=None):
        return RowLocation(
            channel=rng.randrange(channels) if channel is None else channel,
            bank=rng.randrange(banks) if bank is None else bank,
            row=rng.randrange(4),
        )

    while len(out) < accesses:
        phase = rng.random()
        if phase < 0.55:
            # Mixed traffic with clustered addresses (row hits + conflicts).
            for _ in range(rng.randrange(4, 12)):
                now += rng.choice((0.0, 0.0, 0.5, 1.0, 3.0, 25.0))
                burst = rng.choice(
                    (None, None, line_burst, line_burst + 1, 1)
                )
                out.append(
                    (now, loc(), burst, rng.random() < 0.3, rng.random() < 0.4)
                )
        elif phase < 0.8:
            # Bank backlog hugging the write-buffer watermark, then demand.
            target = loc()
            depth = BACKGROUND_BACKLOG_OPS + rng.randrange(-2, 4)
            for _ in range(max(1, depth)):
                out.append((now, target, None, True, True))
            for _ in range(rng.randrange(1, 4)):
                out.append((now, target, None, False, False))
            now += rng.choice((0.0, 50.0, 1000.0))
        else:
            # Bus backlog around the bus watermark: one oversized
            # background burst on a neighbor bank, then a demand probe on
            # the same channel whose data finds the bus occupied.
            channel = rng.randrange(channels)
            burst = bus_watermark + rng.randrange(-line_burst, 2 * line_burst)
            out.append(
                (now, loc(channel=channel, bank=0), max(1, burst), True, True)
            )
            out.append((now, loc(channel=channel, bank=1), None, False, False))
            now += rng.choice((0.0, 10.0, 500.0))
    return out[:accesses]


# ----------------------------------------------------------------------
# Device-level differential
# ----------------------------------------------------------------------
def fuzz_device_pair(
    timings: DramTimings,
    page_policy: str,
    seed: int,
    accesses: int = 350,
) -> List[str]:
    """Replay one seeded stream through the batch device closures and the
    plain device; return divergences."""
    # str seeds hash deterministically in random.Random (unlike tuple
    # hashes, which PYTHONHASHSEED salts per process).
    rng = random.Random(f"{seed}:{timings.name}:{page_policy}")
    ref = DramDevice(timings, name="fuzz", page_policy=page_policy)
    dut = DramDevice(timings, name="fuzz", page_policy=page_policy)
    demand, background, flush, _ = batch._device_fns(dut)
    checker = InvariantChecker()
    divergences: List[str] = []
    where = f"{timings.name}/{page_policy}/seed={seed}"

    for i, (now, loc, burst, is_write, is_bg) in enumerate(
        _stream(rng, timings, accesses)
    ):
        want = ref.access(now, loc, burst, is_write=is_write, background=is_bg)
        args = (
            now,
            ref._bank_index(loc),
            loc.channel,
            loc.row,
            timings.line_burst if burst is None else burst,
            is_write,
        )
        if is_bg:
            got = background(*args)
            expect = want.done
        else:
            got = demand(*args)
            expect = (
                want.done,
                want.row_hit,
                want.queue_delay + want.bus_queue_delay,
                want.act_cycles + want.cas_cycles + want.burst_cycles,
            )
        if got != expect:
            divergences.append(
                f"{where} access #{i} (now={now}, {loc}, burst={burst}, "
                f"write={is_write}, background={is_bg}): "
                f"batch {got!r} != reference {expect!r}"
            )
        try:
            checker.check_access("fuzz", now, want)
        except InvariantViolation as exc:
            divergences.append(f"{where} access #{i}: {exc}")
        if len(divergences) >= MAX_DIVERGENCES:
            return divergences

    flush()
    for kind, duts, refs in (
        ("bank", dut._banks, ref._banks),
        ("bus", dut._buses, ref._buses),
    ):
        for idx, (a, b) in enumerate(zip(duts, refs)):
            if (a.demand_free, a.all_free) != (b.demand_free, b.all_free):
                divergences.append(
                    f"{where} {kind}[{idx}] timeline: batch "
                    f"({a.demand_free}, {a.all_free}) != reference "
                    f"({b.demand_free}, {b.all_free})"
                )
    if dut._open_row != ref._open_row:
        divergences.append(f"{where}: open-row state diverged")
    got_counts = {k: c.value for k, c in dut.stats.counters.items()}
    want_counts = {k: c.value for k, c in ref.stats.counters.items()}
    if got_counts != want_counts:
        bad = {
            k: (got_counts.get(k), want_counts.get(k))
            for k in sorted(set(got_counts) | set(want_counts))
            if got_counts.get(k) != want_counts.get(k)
        }
        divergences.append(f"{where}: device counters diverged: {bad}")
    try:
        checker.check_device_totals(dut)
    except InvariantViolation as exc:
        divergences.append(f"{where}: {exc}")
    return divergences


# ----------------------------------------------------------------------
# System-level differential
# ----------------------------------------------------------------------
def system_design(seed: int) -> str:
    """The design that system seed ``seed`` pairs across the engines."""
    return SYSTEM_DESIGNS[seed % len(SYSTEM_DESIGNS)]


def fuzz_system_pair(
    seed: int,
    reads_per_core: int = 300,
    check_invariants: bool = True,
) -> List[str]:
    """One paired System run: interpreter vs batch, identical SimResult.

    The cell (design, benchmark, core count, page policies) is drawn from
    the seed so a seed sweep covers the design matrix. The batch run must
    actually run on the batch engine and be field-identical to the
    interpreter's. With ``check_invariants`` the cell is run once more with
    the invariant layer installed — violations surface as divergences.
    """
    from dataclasses import replace

    from repro.sim.config import SystemConfig
    from repro.sim.system import System
    from repro.workloads.spec import build_workload

    rng = random.Random(seed)
    design = system_design(seed)
    benchmark = rng.choice(SYSTEM_BENCHMARKS)
    num_cores = rng.choice((1, 2, 4))
    offchip_policy = rng.choice(("open", "closed"))
    stacked_policy = rng.choice(("open", "closed"))
    mshrs = rng.choice(SYSTEM_MSHRS)
    config = SystemConfig(
        num_cores=num_cores,
        offchip_page_policy=offchip_policy,
        stacked_page_policy=stacked_policy,
        mshrs_per_core=mshrs,
    )
    workload = build_workload(
        benchmark,
        num_cores=num_cores,
        reads_per_core=reads_per_core,
        capacity_scale=config.capacity_scale,
        seed=seed + 1,
    )
    where = (
        f"system seed={seed} ({design}/{benchmark}, cores={num_cores}, "
        f"pages={offchip_policy}/{stacked_policy}, mshrs={mshrs})"
    )
    divergences: List[str] = []

    want = dataclasses.asdict(
        System(replace(config, engine="interp"), design, workload).run()
    )
    batch_system = System(replace(config, engine="auto"), design, workload)
    got = dataclasses.asdict(batch_system.run())
    if batch_system.engine_used != "batch":
        divergences.append(
            f"{where}: batch engine declined an in-envelope cell "
            f"(engine_used={batch_system.engine_used!r})"
        )
    for key in got:
        if got[key] != want[key]:
            divergences.append(
                f"{where}: SimResult.{key}: batch {got[key]!r} != "
                f"interp {want[key]!r}"
            )
            if len(divergences) >= MAX_DIVERGENCES:
                return divergences

    if check_invariants:
        try:
            System(replace(config, verify=True), design, workload).run()
        except InvariantViolation as exc:
            divergences.append(f"{where}: invariant run failed: {exc}")
    return divergences


# ----------------------------------------------------------------------
# The check entry point (CLI: ``repro check``)
# ----------------------------------------------------------------------
@dataclass
class CheckReport:
    """Outcome of one full fuzz matrix (``repro check``)."""

    seeds: int
    system_seeds: int
    device_streams: int = 0
    device_accesses: int = 0
    system_runs: int = 0
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = [
            f"repro check: {self.device_streams} device streams "
            f"({self.device_accesses} differential accesses) over "
            f"{self.seeds} seeds x {len(DEVICE_MATRIX)} device configs, "
            f"{self.system_runs} paired system runs",
        ]
        if self.ok:
            lines.append(
                "OK: zero batch-vs-reference divergences, zero invariant "
                "violations"
            )
        else:
            lines.append(f"FAILED: {len(self.divergences)} divergence(s):")
            lines.extend(f"  {d}" for d in self.divergences)
        return "\n".join(lines)


def run_check(
    seeds: int = 25,
    accesses: int = 350,
    system_seeds: Optional[int] = None,
    reads_per_core: int = 300,
    progress: Optional[Callable[[str], None]] = None,
) -> CheckReport:
    """Run the full differential + invariant matrix.

    ``seeds`` streams per device config; ``system_seeds`` paired full-system
    runs (default ``max(1, seeds // 10)`` — system runs are ~100x the cost
    of a device stream).
    """
    if system_seeds is None:
        system_seeds = max(1, seeds // 10)
    report = CheckReport(seeds=seeds, system_seeds=system_seeds)

    for timings, page_policy in DEVICE_MATRIX:
        found = 0
        for seed in range(seeds):
            divergences = fuzz_device_pair(
                timings, page_policy, seed, accesses=accesses
            )
            report.device_streams += 1
            report.device_accesses += accesses
            found += len(divergences)
            report.divergences.extend(divergences)
            if len(report.divergences) >= MAX_DIVERGENCES:
                return report
        if progress:
            progress(
                f"  device {timings.name}/{page_policy}: {seeds} streams, "
                f"{found or 'no'} divergences"
            )

    for seed in range(system_seeds):
        divergences = fuzz_system_pair(seed, reads_per_core=reads_per_core)
        report.system_runs += 1
        report.divergences.extend(divergences)
        if progress:
            status = f"{len(divergences)} divergences" if divergences else "ok"
            progress(f"  system seed {seed}: {status}")
        if len(report.divergences) >= MAX_DIVERGENCES:
            return report
    return report
