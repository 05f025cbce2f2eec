"""Tests for the work the batch engine does around its event loop.

* the deferred-statistics fold (:func:`repro.sim.batch._fold_acc`) must be
  the interpreter's per-sample ``Accumulator.sample`` left fold, bit for
  bit, on data where a pairwise sum (``np.sum``) rounds differently;
* the generated flat warmup loop (:func:`repro.sim.batch._warm_loop`)
  must leave every kernel design with state to warm in the state the
  per-record ``design.warm`` replay of :meth:`System._warm` leaves it in,
  and the batch path must never call ``design.warm``;
* a batch run keeps per-core outcomes, not per-record trace cursors.
"""

import copy
import random
from array import array
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.cache.direct_mapped import DirectMappedCache
from repro.core.predictors import (
    MAC_MAX,
    MapGPredictor,
    MapIPredictor,
    MemoryAccessPredictor,
)
from repro.sim import batch
from repro.sim.batch import BATCH_DESIGNS
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.stats import Accumulator
from repro.workloads.spec import build_workload
from repro.workloads.trace import CoreTrace, Workload


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
# Warmup
# ----------------------------------------------------------------------
#: Every kernel design with state to warm (no-cache has none).
WARM_DESIGNS = tuple(design for design in BATCH_DESIGNS if design != "no-cache")

#: Lines per crowded set of the wide set-associative stores: a few more
#: than a set holds (32 SRAM-tag ways, 29 LH-Cache ways).
_SPANS = {"sram-tag": 38, "lh-cache": 35, "lh-cache-rand": 35}

#: A trace with no records, to build a design and read its geometry.
_NO_RECORDS = Workload(
    "none",
    [
        CoreTrace(
            gaps=np.zeros(0),
            addresses=np.zeros(0, dtype=np.int64),
            is_write=np.zeros(0, dtype=bool),
            pcs=np.zeros(0, dtype=np.int64),
            instructions=1,
        )
    ],
)


def _store(design):
    """The tag store ``design``'s warmup fills."""
    if hasattr(design, "tags"):
        return design.tags
    return getattr(design.cache, "_store", design.cache)


def _streams(seed, num_cores, design):
    """Seeded streams with writes that crowd three sets (DIP's LRU leader,
    its BIP leader and a follower) from every core with more lines than a
    set (or the victim buffer) holds, plus a sprinkling of lines elsewhere,
    so evictions, dirty evictions, MissMap removals, PSEL movement in both
    directions, BIP draws and victim overflow all occur. A plain
    direct-mapped array gets two lines per set, so its hits and misses come
    in runs that saturate the MACs in both directions."""
    store = _store(System(_config(1), design, _NO_RECORDS).design)
    if "victim" in design:
        span = int(design.rsplit("victim", 1)[1]) // 2 + 6
    elif isinstance(store, DirectMappedCache):
        span = 2
    else:
        span = _SPANS.get(design, 10)
    rng = np.random.default_rng(seed)
    cores = []
    for _ in range(num_cores):
        n = int(rng.integers(0, 400))
        addresses = rng.integers(0, 3, n) + store.num_sets * rng.integers(0, span, n)
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
    return Workload(f"streams{seed}", cores)


def _sets_state(store):
    return [
        (list(s.tags), list(s.dirty), copy.copy(s.policy_state), dict(s.index_map))
        for s in store._sets
    ]


def _warm_state(system, overflow):
    """Everything a warmup may change, counters in creation order. The
    MAP-I PC->index memo is a cache, not state, and is left out."""
    design = system.design
    store = _store(design)
    state = {
        "store_counters": [(k, c.value) for k, c in store.stats.counters.items()],
        "design_counters": [
            (k, c.value) for k, c in design.stats.counters.items()
        ],
        # Dirty victim-buffer overflow, in write-back order.
        "overflow": [
            fn.__defaults__[0] for _, _, fn in sorted(system._heap)
        ] + list(overflow),
    }
    if hasattr(store, "_sets"):
        state["sets"] = _sets_state(store)
        policy = store.policy
        state["psel"] = getattr(policy, "psel", None)
        rng = getattr(policy, "_rng", None)
        state["rng"] = rng.getstate() if rng is not None else None
    else:
        state["tags"] = list(store._tags)
        state["dirty"] = list(store._dirty)
    missmap = getattr(design, "missmap", None) or getattr(design, "_missmap", None)
    if missmap is not None:
        state["missmap"] = (
            set(missmap._present),
            dict(missmap._segment_population),
        )
    predictor = getattr(design, "predictor", None)
    if isinstance(predictor, MapIPredictor):
        state["mact"] = copy.deepcopy(predictor._mact)
    if isinstance(predictor, MapGPredictor):
        state["mac"] = list(predictor._mac)
    if isinstance(predictor, MemoryAccessPredictor):
        state["noted"] = (predictor.predicted_memory, predictor.predicted_cache)
    victims = getattr(design, "victims", None)
    if victims is not None:
        state["victims"] = _sets_state(victims)
        state["victim_counters"] = [
            (k, c.value) for k, c in victims.stats.counters.items()
        ]
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


def _spy(design, name, seen):
    """Make ``design``'s per-record replay add to ``seen`` each saturating
    MAC update (``mac-up``/``mac-down``) and MissMap removal it makes."""
    predictor = getattr(design, "predictor", None)
    if isinstance(predictor, (MapIPredictor, MapGPredictor)):
        update = predictor.update

        def spy_update(core_id, pc, went):
            if isinstance(predictor, MapIPredictor):
                mac = predictor.counter(core_id, pc)
            else:
                mac = predictor.counter(core_id)
            if went and mac == MAC_MAX:
                seen.add((name, "mac-up"))
            if not went and mac == 0:
                seen.add((name, "mac-down"))
            update(core_id, pc, went)

        predictor.update = spy_update
    missmap = getattr(design, "missmap", None) or getattr(design, "_missmap", None)
    if missmap is not None:
        remove = missmap.remove

        def spy_remove(line_address):
            seen.add((name, "missmap-remove"))
            remove(line_address)

        missmap.remove = spy_remove


class TestFlatWarmup:
    @pytest.mark.parametrize("design", WARM_DESIGNS)
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.75])
    def test_matches_the_per_record_replay(self, design, fraction):
        for seed in range(8):
            num_cores = 1 + seed % 4
            workload = _streams(seed, num_cores, design)
            ref, fast = _warm_pair(design, workload, fraction)
            if seed % 2:
                # Start from a store another stream warmed: resident, dirty
                # and buffered lines the warmup re-reads and evicts.
                primer = _streams(1000 + seed, num_cores, design)
                _replay(ref.design, primer)
                _replay(fast.design, primer)
            starts = ref._warm()
            overflow = []
            assert batch._warm_batch(fast, starts, overflow)
            assert _warm_state(fast, overflow) == _warm_state(ref, []), (
                f"{design} seed={seed} fraction={fraction}"
            )

    @pytest.mark.parametrize("design", WARM_DESIGNS)
    def test_matches_on_a_benchmark_trace(self, design):
        workload = build_workload(
            "mcf_r", num_cores=2, reads_per_core=800, capacity_scale=4096
        )
        ref, fast = _warm_pair(design, workload, 0.5)
        ref._warm()
        overflow = []
        fast._warm(lambda system, starts: batch._warm_batch(system, starts, overflow))
        assert _warm_state(fast, overflow) == _warm_state(ref, [])

    def test_the_conflict_streams_reach_every_path(self):
        """The streams above evict, dirty-evict, remove MissMap lines,
        saturate the MACs both ways, move PSEL both ways, draw BIP
        insertions and overflow the victim buffer (seen in the per-record
        replay the warmup loops are compared against)."""
        seen = set()
        for design in WARM_DESIGNS:
            for seed in range(8):
                workload = _streams(seed, 1 + seed % 4, design)
                system = System(_config(workload.num_cores), design, workload)
                policy = getattr(getattr(system.design, "tags", None), "policy", None)
                psel0 = getattr(policy, "psel", None)
                rng0 = policy._rng.getstate() if hasattr(policy, "_rng") else None
                _spy(system.design, design, seen)
                _replay(system.design, workload)
                seen.update(
                    (design, k)
                    for k, c in _store(system.design).stats.counters.items()
                    if c.value
                )
                if psel0 is not None:
                    seen.add((design, "psel-up" if policy.psel > psel0 else "psel-down"))
                if rng0 is not None and policy._rng.getstate() != rng0:
                    seen.add((design, "draws"))
                if system._heap:
                    seen.add((design, "overflow"))
        for design in WARM_DESIGNS:
            assert (design, "dirty_evictions") in seen, design
        for design in ("sram-tag", "lh-cache"):
            assert {(design, "psel-up"), (design, "psel-down")} <= seen
        for design in ("sram-tag", "sram-tag-1way", "lh-cache", "lh-cache-rand"):
            assert (design, "draws") in seen, design
        for design in ("alloy-victim16", "alloy-victim64"):
            assert (design, "overflow") in seen, design
        for design in ("lh-cache", "lh-cache-rand", "lh-cache-1way", "alloy-missmap"):
            assert (design, "missmap-remove") in seen, design
        for design in ("alloy-map-i", "alloy-map-g", "alloy-burst8"):
            assert {(design, "mac-up"), (design, "mac-down")} <= seen, design

    def test_every_design_with_state_warms_in_the_generated_loop(self):
        """Every kernel design with a warmup runs in the generated loop, and
        design.warm is never called on the batch path."""
        workload = build_workload(
            "mcf_r", num_cores=2, reads_per_core=300, capacity_scale=4096
        )
        looped = []
        for design in BATCH_DESIGNS:
            system = System(_config(2), design, workload, warmup_fraction=0.5)

            def replay(*record, design=design):
                raise AssertionError(f"{design}: design.warm on the batch path")

            system.design.warm = replay
            if batch._warm_loop(system.design) is not None:
                looped.append(design)
            system.run()
            assert system.engine_used == "batch", design
        assert looped == list(WARM_DESIGNS)

    def test_system_warm_replays_only_when_the_hook_declines(self):
        workload = _streams(1, 2, "alloy-map-i")
        calls = []

        def declines(system, starts):
            calls.append(list(starts))
            return False

        ref = System(_config(2), "alloy-map-i", workload, warmup_fraction=0.5)
        hooked = System(_config(2), "alloy-map-i", workload, warmup_fraction=0.5)
        starts = ref._warm()
        assert hooked._warm(declines) == starts == calls[0]
        assert _warm_state(hooked, []) == _warm_state(ref, [])

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
