"""Tests for the work the batch engine does around its event loop.

* the deferred-statistics fold (:func:`repro.sim.batch._fold_acc`) must be
  the interpreter's per-sample ``Accumulator.sample`` left fold, bit for
  bit, on data where a pairwise sum (``np.sum``) rounds differently;
* the array warmup (:func:`repro.sim.batch._warm_arrays`) must leave every
  design it covers in the state the per-record ``design.warm`` replay of
  :meth:`System._warm` leaves it in;
* a batch run keeps per-core outcomes, not per-record trace cursors.
"""

import copy
import random
from array import array
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.cache.missmap import MissMap
from repro.core.predictors import (
    MapGPredictor,
    MapIPredictor,
    MemoryAccessPredictor,
)
from repro.dramcache.ideal_lo import IdealLODesign
from repro.sim import batch
from repro.sim.batch import BATCH_DESIGNS
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.stats import Accumulator
from repro.workloads.spec import build_workload
from repro.workloads.trace import CoreTrace, Workload

#: Designs whose warmup the batch engine computes with arrays.
ARRAY_WARM_DESIGNS = (
    "ideal-lo",
    "ideal-lo-notag",
    "alloy-nopred",
    "alloy-missmap",
    "alloy-sam",
    "alloy-pam",
    "alloy-map-g",
    "alloy-map-i",
    "alloy-perfect",
    "alloy-burst8",
)

#: A multiple of every array-path design's set count at this scale (896
#: Alloy/IDEAL-LO sets, 1024 IDEAL-LO-notag sets): ``s + k * SET_PERIOD``
#: lands in set ``s`` whichever design runs.
SET_PERIOD = 7168


def _config(num_cores):
    return SystemConfig(num_cores=num_cores, capacity_scale=4096)


# ----------------------------------------------------------------------
# Fold
# ----------------------------------------------------------------------
def _mixed(rng, n):
    """Samples of mixed sign spanning twelve decades."""
    return [
        rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-6, 6)
        for _ in range(n)
    ]


def _sampled(values, acc=None):
    acc = acc or Accumulator("ref")
    for v in values:
        acc.sample(v)
    return acc


def _fields(acc):
    return (acc.total.hex(), acc.count, acc.min, acc.max)


class TestFold:
    def test_fold_is_the_per_sample_left_fold(self):
        rng = random.Random(2012)
        pairwise_differs = 0
        for _ in range(2000):
            samples = _mixed(rng, rng.randint(1, 80))
            want = _sampled(samples)
            buffer = array("d", samples)
            got = Accumulator("batch")
            batch._fold_acc(got, np.frombuffer(buffer, dtype=np.float64))
            assert _fields(got) == _fields(want), samples
            pairwise_differs += float(np.sum(buffer)) != want.total
        # The data tells a left fold from a pairwise one: a fold written as
        # np.sum fails the equality above.
        assert pairwise_differs > 500

    def test_fold_continues_a_running_accumulator(self):
        rng = random.Random(7)
        for _ in range(300):
            head = _mixed(rng, rng.randint(1, 20))
            tail = _mixed(rng, rng.randint(1, 60))
            want = _sampled(head + tail)
            got = _sampled(head, Accumulator("batch"))
            batch._fold_acc(got, np.asarray(tail, dtype=np.float64))
            assert _fields(got) == _fields(want)

    def test_zero_samples_fold_to_positive_zero(self):
        got = Accumulator("batch")
        batch._fold_acc(got, np.array([-0.0, -0.0]))
        assert _fields(got)[:2] == _fields(_sampled([-0.0, -0.0]))[:2]

    def test_constant_columns_fold_like_repeated_samples(self):
        got = Accumulator("batch")
        batch._fold_acc(got, np.full(1000, 0.1))
        assert _fields(got) == _fields(_sampled([0.1] * 1000))


# ----------------------------------------------------------------------
# Array warmup
# ----------------------------------------------------------------------
def _random_workload(seed, num_cores):
    """Short seeded streams with writes whose addresses share a handful of
    sets across cores (every trace is far shorter than the set count), so
    hits, conflict misses and MAC saturation in both directions all occur."""
    rng = np.random.default_rng(seed)
    cores = []
    for _ in range(num_cores):
        n = int(rng.integers(0, 120))
        sets = rng.integers(0, 12, n)
        tags = rng.integers(0, 3, n)
        addresses = sets + SET_PERIOD * tags
        wide = rng.random(n) < 0.1
        addresses[wide] = rng.integers(0, 1 << 30, int(wide.sum()))
        cores.append(
            CoreTrace(
                gaps=rng.random(n) * 20.0,
                addresses=addresses.astype(np.int64),
                is_write=rng.random(n) < 0.3,
                pcs=rng.choice(
                    np.array([0x400, 0x4A7, 0x7FFF_1234, 0x12_3456_789A]), n
                ).astype(np.int64),
                instructions=10 * n + 1,
            )
        )
    return Workload(f"random{seed}", cores)


def _store(design):
    if isinstance(design, IdealLODesign):
        return design.cache
    return design.cache._store


def _warm_state(design):
    """Everything a warmup may change; the MAP-I PC->index memo is a cache,
    not state, and is left out."""
    store = _store(design)
    state = {
        "tags": list(store._tags),
        "dirty": list(store._dirty),
        # Items in insertion order: which counters exist, and in what order.
        "store_counters": [(k, c.value) for k, c in store.stats.counters.items()],
        "design_counters": [
            (k, c.value) for k, c in design.stats.counters.items()
        ],
    }
    predictor = getattr(design, "predictor", None)
    if isinstance(predictor, MapIPredictor):
        state["mact"] = copy.deepcopy(predictor._mact)
    if isinstance(predictor, MapGPredictor):
        state["mac"] = list(predictor._mac)
    if isinstance(predictor, MemoryAccessPredictor):
        state["noted"] = (predictor.predicted_memory, predictor.predicted_cache)
    if isinstance(predictor, MissMap):
        state["missmap"] = (
            set(predictor._present),
            dict(predictor._segment_population),
        )
    return state


def _replay(design, workload):
    """Every record of ``workload`` through ``design.warm``, in order."""
    for core_id, trace in enumerate(workload.cores):
        for record in zip(
            trace.addresses.tolist(), trace.is_write.tolist(), trace.pcs.tolist()
        ):
            design.warm(*record, core_id)


def _warm_pair(design, workload, fraction):
    config = _config(workload.num_cores)
    ref = System(config, design, workload, warmup_fraction=fraction)
    fast = System(config, design, workload, warmup_fraction=fraction)
    return ref, fast


class TestArrayWarmup:
    @pytest.mark.parametrize("design", ARRAY_WARM_DESIGNS)
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.75])
    def test_matches_the_per_record_replay(self, design, fraction):
        for seed in range(16):
            num_cores = 1 + seed % 4
            workload = _random_workload(seed, num_cores)
            ref, fast = _warm_pair(design, workload, fraction)
            if seed % 2:
                # Start from a warmed store: resident, dirty lines that the
                # warmup re-reads, overwrites and evicts.
                primer = _random_workload(1000 + seed, num_cores)
                _replay(ref.design, primer)
                _replay(fast.design, primer)
            starts = ref._warm()
            assert batch._warm_arrays(fast, starts)
            assert _warm_state(fast.design) == _warm_state(ref.design), (
                f"{design} seed={seed} fraction={fraction}"
            )

    @pytest.mark.parametrize("design", ARRAY_WARM_DESIGNS)
    def test_matches_on_a_benchmark_trace(self, design):
        workload = build_workload(
            "mcf_r", num_cores=2, reads_per_core=800, capacity_scale=4096
        )
        ref, fast = _warm_pair(design, workload, 0.5)
        ref._warm()
        fast._warm(batch._warm_arrays)
        assert _warm_state(fast.design) == _warm_state(ref.design)

    def test_array_path_covers_exactly_the_direct_mapped_designs(self):
        workload = _random_workload(3, num_cores=2)
        covered = []
        for design in BATCH_DESIGNS:
            system = System(_config(2), design, workload)
            if batch._warm_arrays(system, [10, 10]):
                covered.append(design)
        assert sorted(covered) == sorted(ARRAY_WARM_DESIGNS + ("no-cache",))

    @pytest.mark.parametrize(
        "design", ["alloy-2way", "alloy-victim16", "lh-cache", "sram-tag-1way"]
    )
    def test_declining_designs_are_left_untouched(self, design):
        workload = _random_workload(5, num_cores=2)
        system = System(_config(2), design, workload)
        starts = [len(t) for t in workload.cores]
        assert not batch._warm_arrays(system, starts)
        design = system.design
        store = design.tags if hasattr(design, "tags") else design.cache
        assert store.stats.counters == {}

    def test_system_warm_replays_only_when_the_hook_declines(self):
        workload = _random_workload(1, num_cores=2)
        calls = []

        def declines(system, starts):
            calls.append(list(starts))
            return False

        ref = System(_config(2), "alloy-map-i", workload, warmup_fraction=0.5)
        hooked = System(_config(2), "alloy-map-i", workload, warmup_fraction=0.5)
        starts = ref._warm()
        assert hooked._warm(declines) == starts == calls[0]
        assert _warm_state(hooked.design) == _warm_state(ref.design)

        skipped = System(_config(2), "alloy-map-i", workload, warmup_fraction=0.5)
        assert skipped._warm(lambda system, starts: True) == starts
        assert _store(skipped.design).stats.counters == {}


# ----------------------------------------------------------------------
# Lean cores
# ----------------------------------------------------------------------
class TestLeanCores:
    @pytest.mark.parametrize("design", ["alloy-map-i", "lh-cache", "no-cache"])
    @pytest.mark.parametrize("mshrs", [1, 4])
    def test_batch_run_keeps_outcomes_not_trace_lists(self, design, mshrs):
        config = SystemConfig(
            num_cores=2, capacity_scale=4096, mshrs_per_core=mshrs
        )
        workload = build_workload(
            "gcc_r", num_cores=2, reads_per_core=300, capacity_scale=4096
        )
        interp = System(replace(config, engine="interp"), design, workload)
        fast = System(config, design, workload)
        want, got = interp.run(), fast.run()
        assert fast.engine_used == "batch"
        assert asdict(got) == asdict(want)
        assert len(fast._cores) == 2
        for outcome, core in zip(fast._cores, interp._cores):
            assert isinstance(outcome, batch.CoreOutcome)
            assert not any(isinstance(v, list) for v in outcome)
            assert outcome == (
                core.finish_time,
                core.last_read_done,
                core.reads_issued,
                core.writes_issued,
            )
