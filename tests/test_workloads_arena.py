"""Tests for the shared-workload fabric: arena caching + shm fan-out."""

import dataclasses
import hashlib
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.sim.config import SystemConfig
from repro.sim.parallel import ResultCache, make_cells, run_sweep
from repro.workloads.arena import (
    GENERATOR_VERSION,
    WorkloadArena,
    WorkloadParams,
    acquire_shared_workload,
    attach_workload,
    load_arena,
    owned_segment_names,
    release_all_segments,
    release_idle_segments,
    release_segment,
    release_shared_workload,
    save_arena,
    segment_pool_stats,
    set_idle_segment_cap,
    share_workload,
)
from repro.workloads.spec import build_workload, generate_workload
from repro.workloads.trace import Workload

PARAMS = WorkloadParams(benchmark="gcc_r", reads_per_core=400)


def workload_digest(workload) -> str:
    """Content hash over every array and the instruction counts."""
    h = hashlib.sha256()
    for trace in workload.cores:
        for arr in (
            trace.gaps,
            trace.addresses,
            trace.is_write,
            trace.pcs,
            trace.dependent_flags(),
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(str(trace.instructions).encode())
    return h.hexdigest()


def assert_workloads_identical(a, b) -> None:
    assert a.name == b.name
    assert a.num_cores == b.num_cores
    for ta, tb in zip(a.cores, b.cores):
        assert np.array_equal(ta.gaps, tb.gaps)
        assert np.array_equal(ta.addresses, tb.addresses)
        assert np.array_equal(ta.is_write, tb.is_write)
        assert np.array_equal(ta.pcs, tb.pcs)
        assert np.array_equal(ta.dependent_flags(), tb.dependent_flags())
        assert ta.instructions == tb.instructions


# -- pool workers need a module-level function (must pickle) -----------
def _build_digest_in_worker(benchmark: str, reads: int) -> str:
    return workload_digest(
        generate_workload(benchmark, reads_per_core=reads)
    )


def _attach_digest_in_worker(handle) -> str:
    workload, shm = attach_workload(handle)
    digest = workload_digest(workload)
    del workload
    shm.close()
    return digest


class TestDeterminism:
    def test_same_params_bit_identical_in_process(self):
        a = generate_workload("gcc_r", reads_per_core=400)
        b = generate_workload("gcc_r", reads_per_core=400)
        assert_workloads_identical(a, b)

    def test_arena_fetch_matches_direct_generation(self, tmp_path):
        arena = WorkloadArena(directory=tmp_path)
        fetched, telemetry = arena.fetch(PARAMS)
        assert telemetry["trace_source"] == "built"
        assert telemetry["trace_build_seconds"] > 0
        assert_workloads_identical(
            fetched, generate_workload("gcc_r", reads_per_core=400)
        )

    def test_bit_identical_inside_pool_worker(self):
        """A forked worker's generators produce the parent's exact bytes."""
        parent = workload_digest(
            generate_workload("gcc_r", reads_per_core=400)
        )
        with ProcessPoolExecutor(max_workers=1) as pool:
            child = pool.submit(
                _build_digest_in_worker, "gcc_r", 400
            ).result()
        assert child == parent


class TestArenaTiers:
    def test_memo_then_npz_tiers(self, tmp_path):
        arena = WorkloadArena(directory=tmp_path)
        built, t1 = arena.fetch(PARAMS)
        assert t1["trace_source"] == "built"
        again, t2 = arena.fetch(PARAMS)
        assert t2["trace_source"] == "memo"
        assert again is built
        # A fresh arena over the same directory (a new process) loads the
        # persisted .npz instead of rebuilding — bit-identically.
        fresh = WorkloadArena(directory=tmp_path)
        loaded, t3 = fresh.fetch(PARAMS)
        assert t3["trace_source"] == "npz"
        assert_workloads_identical(loaded, built)

    def test_npz_round_trip_bit_identical(self, tmp_path):
        workload = generate_workload("mcf_r", reads_per_core=300)
        params = WorkloadParams(benchmark="mcf_r", reads_per_core=300)
        path = tmp_path / "arena.npz"
        save_arena(path, workload, params)
        loaded = load_arena(path, params)
        assert_workloads_identical(loaded, workload)

    def test_persist_disabled_writes_nothing(self, tmp_path):
        arena = WorkloadArena(directory=tmp_path, persist=False)
        arena.fetch(PARAMS)
        assert not list(tmp_path.glob("*.npz"))

    def test_trace_cache_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        arena = WorkloadArena(directory=tmp_path)
        arena.fetch(PARAMS)
        assert not list(tmp_path.glob("*.npz"))

    def test_corrupt_arena_is_a_miss(self, tmp_path):
        arena = WorkloadArena(directory=tmp_path)
        built, _ = arena.fetch(PARAMS)
        path = arena._path(PARAMS.key())
        path.write_bytes(b"not an npz")
        fresh = WorkloadArena(directory=tmp_path)
        rebuilt, telemetry = fresh.fetch(PARAMS)
        assert telemetry["trace_source"] == "built"
        assert_workloads_identical(rebuilt, built)

    @pytest.mark.parametrize(
        "keep", [lambda n: 0, lambda n: 10, lambda n: n // 2, lambda n: n - 10],
        ids=["empty", "10-bytes", "half", "all-but-10"],
    )
    def test_truncated_arena_is_rebuilt(self, tmp_path, keep):
        """A torn .npz (np.load raises BadZipFile or EOFError) is a miss;
        the rebuild's save replaces it with a loadable arena."""
        arena = WorkloadArena(directory=tmp_path)
        built, _ = arena.fetch(PARAMS)
        path = arena._path(PARAMS.key())
        data = path.read_bytes()
        path.write_bytes(data[: keep(len(data))])
        rebuilt, telemetry = WorkloadArena(directory=tmp_path).fetch(PARAMS)
        assert telemetry["trace_source"] == "built"
        assert_workloads_identical(rebuilt, built)
        reloaded, telemetry = WorkloadArena(directory=tmp_path).fetch(PARAMS)
        assert telemetry["trace_source"] == "npz"
        assert_workloads_identical(reloaded, built)

    def test_stale_generator_version_rejected(self, tmp_path, monkeypatch):
        workload = generate_workload("gcc_r", reads_per_core=400)
        path = tmp_path / "arena.npz"
        save_arena(path, workload, PARAMS)
        import repro.workloads.arena as arena_mod

        monkeypatch.setattr(
            arena_mod, "GENERATOR_VERSION", GENERATOR_VERSION + 1
        )
        assert load_arena(path, PARAMS) is None

    def test_every_param_changes_key(self):
        reference = PARAMS.key()
        for change in (
            {"benchmark": "mcf_r"},
            {"num_cores": 4},
            {"reads_per_core": 401},
            {"capacity_scale": 512},
            {"seed": 2},
        ):
            assert (
                dataclasses.replace(PARAMS, **change).key() != reference
            ), change

    def test_generator_version_participates_in_key(self, monkeypatch):
        import repro.workloads.arena as arena_mod

        reference = PARAMS.key()
        monkeypatch.setattr(
            arena_mod, "GENERATOR_VERSION", GENERATOR_VERSION + 1
        )
        assert PARAMS.key() != reference

    def test_build_workload_canonicalizes_names(self):
        assert build_workload("gcc", reads_per_core=400) is build_workload(
            "gcc_r", reads_per_core=400
        )


class _YieldingKey(str):
    """A memo key whose hash yields the GIL, widening any window between
    a thread choosing an eviction victim and popping it."""

    def __hash__(self) -> int:
        time.sleep(0)
        return str.__hash__(self)


class _Keyed:
    """Params stand-in with a precomputed key."""

    def __init__(self, key: str) -> None:
        self._key = _YieldingKey(key)

    def key(self) -> str:
        return self._key


def _run_threads(target, count=4):
    """Run ``target(i)`` on ``count`` threads with a short switch interval."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)


class TestArenaThreads:
    def test_concurrent_adopts_at_capacity(self, tmp_path):
        """Threads evicting from a full memo never pick the same victim
        (``repro serve`` runs jobs on threads sharing one arena)."""
        arena = WorkloadArena(directory=tmp_path, persist=False, memo_capacity=4)
        dummy = Workload(name="dummy")
        errors = []

        def adopt_all(thread_id):
            try:
                for i in range(300):
                    arena.adopt(_Keyed(f"{thread_id}-{i}"), dummy)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        _run_threads(adopt_all)
        assert errors == []
        assert len(arena._memory) == 4

    def test_concurrent_memo_hits_are_all_counted(self, tmp_path):
        arena = WorkloadArena(directory=tmp_path, persist=False)
        keyed = [_Keyed(f"k{i}") for i in range(4)]
        for params in keyed:
            arena.adopt(params, Workload(name="dummy"))

        def fetch_all(thread_id):
            for _ in range(500):
                for params in keyed:
                    assert arena.fetch(params)[1]["trace_source"] == "memo"

        _run_threads(fetch_all)
        assert arena.memo_hits == 4 * 500 * len(keyed)


class TestSharedMemory:
    def test_share_attach_round_trip(self):
        workload = generate_workload("gcc_r", reads_per_core=400)
        handle = share_workload(PARAMS.key(), workload)
        try:
            assert handle.shm_name in owned_segment_names()
            attached, shm = attach_workload(handle)
            assert_workloads_identical(attached, workload)
            del attached
            shm.close()
        finally:
            release_segment(handle.shm_name)
        assert handle.shm_name not in owned_segment_names()

    def test_attach_bit_identical_inside_pool_worker(self):
        workload = generate_workload("gcc_r", reads_per_core=400)
        handle = share_workload(PARAMS.key(), workload)
        try:
            with ProcessPoolExecutor(max_workers=1) as pool:
                child = pool.submit(
                    _attach_digest_in_worker, handle
                ).result()
            assert child == workload_digest(workload)
        finally:
            release_segment(handle.shm_name)

    def test_release_is_idempotent(self):
        workload = generate_workload("gcc_r", reads_per_core=400)
        handle = share_workload(PARAMS.key(), workload)
        release_segment(handle.shm_name)
        release_segment(handle.shm_name)
        release_all_segments()


class TestSegmentPool:
    """Refcounted segment pool: sharing, idle LRU, eager default."""

    @pytest.fixture(autouse=True)
    def _clean_pool(self):
        previous = set_idle_segment_cap(0)
        yield
        set_idle_segment_cap(0)
        release_all_segments()
        set_idle_segment_cap(previous)

    def _workload(self, benchmark="gcc_r"):
        return generate_workload(benchmark, reads_per_core=400)

    def test_concurrent_acquires_share_one_segment(self):
        key = PARAMS.key()
        workload = self._workload()
        first = acquire_shared_workload(key, workload)
        second = acquire_shared_workload(key, workload)
        assert second.shm_name == first.shm_name
        assert segment_pool_stats() == {"pooled": 1, "active": 1, "idle": 0}
        release_shared_workload(key)
        # One holder remains: the segment must survive.
        assert first.shm_name in owned_segment_names()
        release_shared_workload(key)
        # Cap 0 (the run_sweep contract): last release unlinks eagerly.
        assert first.shm_name not in owned_segment_names()
        assert segment_pool_stats()["pooled"] == 0

    def test_idle_cap_keeps_segment_for_reuse(self):
        set_idle_segment_cap(1)
        key = PARAMS.key()
        first = acquire_shared_workload(key, self._workload())
        release_shared_workload(key)
        assert segment_pool_stats() == {"pooled": 1, "active": 0, "idle": 1}
        assert first.shm_name in owned_segment_names()
        again = acquire_shared_workload(key, self._workload())
        assert again.shm_name == first.shm_name  # no re-pack
        release_shared_workload(key)

    def test_idle_eviction_is_lru(self):
        set_idle_segment_cap(1)
        old_key = PARAMS.key()
        new_key = dataclasses.replace(PARAMS, benchmark="mcf_r").key()
        old = acquire_shared_workload(old_key, self._workload())
        new = acquire_shared_workload(new_key, self._workload("mcf_r"))
        release_shared_workload(old_key)
        release_shared_workload(new_key)
        # Only the most recently released segment fits under the cap.
        assert old.shm_name not in owned_segment_names()
        assert new.shm_name in owned_segment_names()

    def test_release_idle_segments_drains_now(self):
        set_idle_segment_cap(4)
        key = PARAMS.key()
        handle = acquire_shared_workload(key, self._workload())
        release_shared_workload(key)
        assert release_idle_segments() == 1
        assert handle.shm_name not in owned_segment_names()
        assert segment_pool_stats()["pooled"] == 0

    def test_lowering_cap_evicts_existing_idle(self):
        set_idle_segment_cap(2)
        key = PARAMS.key()
        handle = acquire_shared_workload(key, self._workload())
        release_shared_workload(key)
        set_idle_segment_cap(0)
        assert handle.shm_name not in owned_segment_names()

    def test_release_all_segments_forgets_pool_entries(self):
        set_idle_segment_cap(2)
        key = PARAMS.key()
        acquire_shared_workload(key, self._workload())
        release_all_segments()
        assert segment_pool_stats()["pooled"] == 0
        assert owned_segment_names() == ()


class TestSweepCleanup:
    """No shared-memory segment may outlive run_sweep."""

    def _cells(self, designs=("no-cache", "alloy-map-i")):
        return make_cells(
            designs,
            ("sphinx_r",),
            config=SystemConfig(capacity_scale=4096),
            reads_per_core=300,
        )

    def test_no_segments_after_parallel_sweep(self, tmp_path):
        report = run_sweep(
            self._cells(),
            max_workers=2,
            cache=ResultCache(tmp_path / "cache", persist=True),
        )
        assert report.cache_misses == 2
        assert owned_segment_names() == ()

    def test_no_segments_after_worker_exception(self, tmp_path):
        """A design that explodes in the worker must not leak segments."""
        cells = self._cells(designs=("no-cache", "no-such-design"))
        with pytest.raises(Exception):
            run_sweep(
                cells,
                max_workers=2,
                cache=ResultCache(tmp_path / "cache", persist=True),
                use_cache=False,
            )
        assert owned_segment_names() == ()
