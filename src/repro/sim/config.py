"""System configuration (paper Table 2) and the capacity-scaling rule.

The paper simulates 8 cores at 4 GHz, an 8 MB L3 with a 24-cycle latency,
2-channel off-chip DDR3 and 4-channel stacked DRAM. All latencies here are
processor cycles.

Capacity scaling
----------------
A pure-Python simulator cannot execute 1 B instructions per core, so we run
reduced traces and scale the DRAM-cache capacity and workload footprints down
by the same ``capacity_scale`` factor (default 256: 256 MB nominal -> 1 MB
simulated). Line size, row size and sets-per-row stay fixed, so hit rates,
row-buffer locality and per-access traffic — the quantities the paper's
trade-off analysis rests on — are preserved. All reports use nominal sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.dram.timings import DramTimings, OFFCHIP_DDR3, STACKED_DRAM
from repro.units import MB


@dataclass(frozen=True)
class SystemConfig:
    """Full system configuration for one simulation.

    Attributes:
        num_cores: Cores running in rate mode (paper: 8).
        l3_latency: L3 lookup latency in cycles; charged on every L3 miss
            before the request reaches the DRAM-cache controller, and equal
            to the SRAM-tag and MissMap lookup latencies (paper: 24).
        sram_tag_latency: Tag Serialization Latency of the SRAM-Tag design.
        missmap_latency: Predictor Serialization Latency of the MissMap.
        predictor_latency: Latency of the MAP predictors (paper: 1 cycle).
        cache_size_bytes: *Nominal* DRAM-cache capacity (e.g. 256 MB).
        capacity_scale: Divisor applied to the nominal capacity (and, by the
            workload builders, to footprints) to keep runs tractable.
        offchip: Off-chip DRAM timing preset.
        stacked: Stacked DRAM timing preset.
        write_issue_cycles: Cycles a core spends issuing a (posted) write.
        mshrs_per_core: Outstanding demand reads a core may overlap. 1 is
            the default blocking-read model; larger values approximate an
            out-of-order core's memory-level parallelism (see the
            ``mlp-sweep`` extension experiment).
    """

    num_cores: int = 8
    l3_latency: int = 24
    sram_tag_latency: int = 24
    missmap_latency: int = 24
    predictor_latency: int = 1
    cache_size_bytes: int = 256 * MB
    capacity_scale: int = 256
    offchip: DramTimings = field(default_factory=lambda: OFFCHIP_DDR3)
    stacked: DramTimings = field(default_factory=lambda: STACKED_DRAM)
    write_issue_cycles: int = 1
    mshrs_per_core: int = 1
    #: Row-buffer management for each device: "open" (paper) or "closed".
    offchip_page_policy: str = "open"
    stacked_page_policy: str = "open"
    #: Install the runtime invariant layer (:mod:`repro.verify.invariants`)
    #: on this system: per-access timing-order/decomposition checks plus
    #: end-of-run conservation audits. Also enabled by ``REPRO_VERIFY=1``.
    #: Off by default and genuinely zero-cost when off (nothing is
    #: installed, the hot path gains no branches).
    verify: bool = False
    #: Simulation engine: "auto" (:mod:`repro.sim.batch` — vectorized
    #: precompute plus a compact scalar core, bit-identical results —
    #: whenever the configuration is inside its envelope, the interpreter
    #: otherwise, e.g. for verify runs and designs without a kernel),
    #: "interp" (always the plain reference interpreter), or "" to defer to
    #: the ``REPRO_ENGINE`` environment variable, then "auto".
    #: ``System.engine_used`` reports which engine produced a result.
    engine: str = ""

    @property
    def scaled_cache_bytes(self) -> int:
        """The capacity actually simulated after scaling."""
        scaled = self.cache_size_bytes // self.capacity_scale
        # Keep a whole number of 2 KB rows.
        return max(scaled - scaled % self.stacked.row_bytes, self.stacked.row_bytes)

    def with_cache_size(self, nominal_bytes: int) -> "SystemConfig":
        """Copy with a different nominal cache size (Figure 9 sweeps)."""
        return replace(self, cache_size_bytes=nominal_bytes)

    def with_scale(self, capacity_scale: int) -> "SystemConfig":
        """Copy with a different capacity scale factor."""
        return replace(self, capacity_scale=capacity_scale)

    def to_dict(self) -> dict:
        """Every field as plain data, the two timing presets as nested dicts.

        Equal to ``dataclasses.asdict(self)``, but a walk over the fields
        rather than ``asdict``'s recursive deep copy, which cost ~70 µs:
        every cell key, job manifest and served cell flattens its config.
        """
        out = {name: getattr(self, name) for name in _CONFIG_FIELDS}
        for device in ("offchip", "stacked"):
            timings = out[device]
            out[device] = {name: getattr(timings, name) for name in _TIMING_FIELDS}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Rebuild a config from :meth:`to_dict` output.

        The inverse of the flattening used by job manifests
        (:mod:`repro.jobs`): nested timing dicts become
        :class:`DramTimings` again and unknown keys are ignored, so
        manifests written by newer code, or by older code with since-removed
        fields, still load (any semantic drift is caught by the content
        keys, which cover every field).
        """
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        timing_fields = {f.name for f in fields(DramTimings)}
        for device in ("offchip", "stacked"):
            value = kwargs.get(device)
            if isinstance(value, dict):
                kwargs[device] = DramTimings(
                    **{k: v for k, v in value.items() if k in timing_fields}
                )
        return cls(**kwargs)


_CONFIG_FIELDS = tuple(f.name for f in fields(SystemConfig))
_TIMING_FIELDS = tuple(f.name for f in fields(DramTimings))
