"""Atomic writes: concurrent publishers of one target, and failure cleanup.

Every store (result cache, trace arenas, job manifests) publishes a file
through a temp file plus ``os.replace``. Two writers of the same target in
one process (``repro serve`` job threads) must not share a temp file, and
a failed write must not leave one behind.
"""

import errno
import json
import os

import pytest

from repro.sim.results import SimResult
from repro.workloads.arena import WorkloadParams, load_arena, save_arena
from repro.workloads.spec import generate_workload

PARAMS = WorkloadParams(benchmark="gcc_r", num_cores=2, reads_per_core=50)


def _temp_files(directory):
    return sorted(p.name for p in directory.rglob("*.tmp.*"))


def _interleave(monkeypatch, second_write):
    """Patch ``os.replace`` so ``second_write`` runs to completion between
    the first writer's temp-file write and its rename — the schedule two
    threads publishing one target can hit."""
    real_replace = os.replace
    renamed = []

    def replace(src, dst):
        renamed.append(os.path.basename(src))
        if len(renamed) == 1:
            second_write()
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return renamed


def test_interleaved_arena_writes_publish_a_whole_file(tmp_path, monkeypatch):
    workload = generate_workload(
        PARAMS.benchmark, num_cores=2, reads_per_core=PARAMS.reads_per_core
    )
    target = tmp_path / "traces" / "key.npz"
    renamed = _interleave(
        monkeypatch, lambda: save_arena(target, workload, PARAMS)
    )
    save_arena(target, workload, PARAMS)
    assert len(renamed) == 2 and renamed[0] != renamed[1]
    assert all(".tmp." in name for name in renamed)
    loaded = load_arena(target, PARAMS)
    assert loaded is not None
    assert (loaded.cores[0].addresses == workload.cores[0].addresses).all()
    assert _temp_files(tmp_path) == []


def test_interleaved_cache_writes_publish_the_last_rename(tmp_path, monkeypatch):
    from repro.sim.parallel import _write_cache_file

    target = tmp_path / "cell.json"

    def write(cycles):
        _write_cache_file(
            target, SimResult("w", "d", cycles=cycles), {}, {"cycles": cycles}
        )

    renamed = _interleave(monkeypatch, lambda: write(2.0))
    write(1.0)
    assert len(renamed) == 2 and renamed[0] != renamed[1]
    # The first writer renames last, so its payload is the one published.
    assert json.loads(target.read_text())["result"]["cycles"] == 1.0
    assert _temp_files(tmp_path) == []


def test_failed_replace_removes_the_temp_file(tmp_path, monkeypatch):
    from repro.fileio import atomic_write

    target = tmp_path / "manifest.json"
    target.write_text("old")

    def replace(src, dst):
        raise OSError(errno.EROFS, "Read-only file system")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="Read-only"):
        atomic_write(target, "new")
    assert target.read_text() == "old"
    assert _temp_files(tmp_path) == []


def test_failed_write_removes_the_temp_file(tmp_path, monkeypatch):
    import repro.fileio as fileio

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(
        fileio, "open", lambda path, mode: FullDisk(open(path, mode)),
        raising=False,
    )
    with pytest.raises(OSError, match="No space"):
        fileio.atomic_write(tmp_path / "cell.json", b"{}")
    assert list(tmp_path.iterdir()) == []
