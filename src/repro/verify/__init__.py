"""Correctness subsystem: differential fuzzer and invariant layer.

The interpreter (:class:`~repro.sim.system.System` with
``engine="interp"``) is the plain reference model: its
:class:`~repro.dram.device.DramDevice` reserves every bank and bus through
:meth:`~repro.dram.device.PriorityTimeline.reserve` and samples every
statistic through :meth:`~repro.stats.Accumulator.sample`. The batch engine
(:mod:`repro.sim.batch`) reproduces that arithmetic in flat kernels for
speed. This package keeps the two honest:

* :mod:`repro.verify.fuzzer` — a differential fuzzer that replays seeded
  randomized access streams through the batch engine's device closures and
  a plain ``DramDevice``, and runs whole paired systems through both
  engines, requiring bit-identical results.
* :mod:`repro.verify.invariants` — a runtime invariant layer (enabled via
  ``REPRO_VERIFY=1`` or ``SystemConfig(verify=True)``, zero-cost when off)
  checking per-access timing ordering, per-device counter conservation, and
  the lifecycle attribution audit on real workloads.

The CLI front-end is ``repro check`` (see :func:`repro.verify.fuzzer.run_check`).
"""

from repro.verify.fuzzer import CheckReport, run_check
from repro.verify.invariants import (
    InvariantChecker,
    InvariantViolation,
    verify_enabled,
)

__all__ = [
    "CheckReport",
    "InvariantChecker",
    "InvariantViolation",
    "run_check",
    "verify_enabled",
]
