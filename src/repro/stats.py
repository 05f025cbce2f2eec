"""Lightweight statistics primitives used by the simulator.

The simulator accumulates everything through these small objects so that every
design exposes the same measurement surface (hit rates, latencies, traffic)
and the experiment harness can render paper tables uniformly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Accumulator:
    """Tracks a running sum/count/min/max of a sampled quantity.

    Used for latency statistics: each completed request samples its latency
    and the experiment reports the mean.
    """

    __slots__ = ("name", "total", "count", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def sample(self, value: float) -> None:
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
        self.min = None
        self.max = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Accumulator({self.name}: n={self.count}, mean={self.mean:.2f})"


class Histogram:
    """Fixed-bucket histogram for latency distributions."""

    __slots__ = ("name", "edges", "counts")

    def __init__(self, name: str, bucket_edges: Iterable[float]) -> None:
        self.name = name
        self.edges: List[float] = sorted(bucket_edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)

    def sample(self, value: float) -> None:
        # bisect_left finds the first edge with value <= edge (edges are
        # sorted), i.e. the bucket a linear scan would pick; index len(edges)
        # is the overflow bucket. Called once per latency sample (hot path).
        self.counts[bisect_left(self.edges, value)] += 1

    def reset(self) -> None:
        """Zero every bucket (the edges are part of the histogram's shape)."""
        self.counts = [0] * (len(self.edges) + 1)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def percentile(self, q: float) -> float:
        """Approximate percentile: the smallest bucket edge covering ``q``.

        Returns ``inf`` when the q-th sample falls in the overflow bucket.
        ``q=0.0`` returns the upper edge of the first *non-empty* bucket
        (the bucket actually holding the minimum sample), not ``edges[0]``
        regardless of occupancy.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        total = self.total
        if not total:
            return 0.0
        running = 0
        for i, edge in enumerate(self.edges):
            running += self.counts[i]
            if running and running / total >= q:
                return edge
        return float("inf")

    @property
    def overflow_count(self) -> int:
        """Samples that fell beyond the last bucket edge."""
        return self.counts[-1]

    @property
    def overflow_fraction(self) -> float:
        """Fraction of samples beyond the last bucket edge (0.0 if empty)."""
        total = self.total
        return self.counts[-1] / total if total else 0.0

    def fraction_at_or_below(self, edge: float) -> float:
        """Fraction of samples in buckets whose upper edge is <= ``edge``.

        The overflow bucket (samples beyond the last edge) has an upper
        edge of ``+inf``, so it is included exactly when ``edge`` is
        ``inf`` — making ``fraction_at_or_below(float("inf")) == 1.0``
        for any non-empty histogram. (It used to be silently excluded,
        so the fraction could never reach 1.0 once any sample overflowed;
        use :attr:`overflow_fraction` to inspect that mass directly.)
        """
        if not self.total:
            return 0.0
        running = 0
        for i, e in enumerate(self.edges):
            if e > edge:
                break
            running += self.counts[i]
        else:
            if edge == float("inf"):
                running += self.counts[-1]
        return running / self.total


def ratio(numerator: float, denominator: float) -> float:
    """Safe division returning 0.0 on an empty denominator."""
    return numerator / denominator if denominator else 0.0


@dataclass
class StatGroup:
    """A named bag of counters/accumulators with lazy creation.

    Components create their stats through a group so everything is
    discoverable for reporting: ``group.counter("row_hits").add()``.
    """

    name: str
    counters: Dict[str, Counter] = field(default_factory=dict)
    accumulators: Dict[str, Accumulator] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def accumulator(self, name: str) -> Accumulator:
        if name not in self.accumulators:
            self.accumulators[name] = Accumulator(name)
        return self.accumulators[name]

    def histogram(self, name: str, bucket_edges: Iterable[float]) -> Histogram:
        """Register (or fetch) a histogram so :meth:`reset` covers it.

        Histograms are excluded from :meth:`as_dict` (their buckets are not
        a scalar metric); registering them here only ties their lifetime to
        the group's reset path, fixing the stale-bucket leak between
        :meth:`repro.dram.device.DramDevice.reset` calls.
        """
        if name not in self.histograms:
            self.histograms[name] = Histogram(name, bucket_edges)
        return self.histograms[name]

    def reset(self) -> None:
        """Return the group to its fresh state: counters and accumulators
        are dropped (they reappear on first use, exactly as in a new group,
        so handles taken before the reset go stale), and registered
        histograms are zeroed in place."""
        self.counters.clear()
        self.accumulators.clear()
        for h in self.histograms.values():
            h.reset()

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, c in self.counters.items():
            out[name] = c.value
        for name, a in self.accumulators.items():
            out[f"{name}_mean"] = a.mean
            out[f"{name}_count"] = a.count
        return out
