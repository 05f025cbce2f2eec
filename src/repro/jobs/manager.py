"""Jobs: named, content-keyed sets of sweep cells with on-disk state.

A :class:`Job` is the unit of resumable work: a (possibly empty) name plus
an ordered list of :class:`~repro.sim.parallel.SweepCell`\\ s. Named jobs
live under ``.repro_cache/jobs/<job_id>/`` with two files:

* ``job.json`` — the manifest: name, job id, creation time and every cell
  fully serialized (design, benchmark, seed, reads, warmup and the complete
  ``SystemConfig``), so ``repro jobs show``/``--resume`` can rebuild the
  exact work list with no other inputs.
* ``journal.jsonl`` — the append-only checkpoint of completed cells
  (:mod:`repro.jobs.journal`).

The **job id is a content key**: a slug of the name plus a SHA-256 digest
over the sorted cell content keys. Re-submitting the same name with the
same cells lands in the same directory (and therefore resumes); changing
any knob — or upgrading the package, since cell keys fold the version in —
produces a fresh job instead of silently mixing incompatible results.

Ephemeral jobs (``directory=None``) carry no journal; they exist so plain
:func:`repro.sim.parallel.run_sweep` calls route through the same
:func:`submit_job` entry point as everything else.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.fileio import atomic_write
from repro.jobs.journal import JOURNAL_NAME, JobJournal
from repro.sim.config import SystemConfig
from repro.sim.parallel import SweepCell, default_cache_dir

try:  # pragma: no cover - always present on the POSIX CI/dev hosts
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: no-op locks
    fcntl = None  # type: ignore[assignment]

#: Bump when the manifest layout changes.
MANIFEST_SCHEMA = 1

#: Manifest file name inside a job directory.
MANIFEST_NAME = "job.json"

#: Subdirectory of the cache dir holding all job state.
JOBS_SUBDIR = "jobs"

#: Advisory lock file inside a job directory marking it in use.
LOCK_NAME = ".lock"


class JobRunLock:
    """Advisory in-use marker for a job directory.

    Every runner of a journaled job holds a *shared* ``flock`` on
    ``<job dir>/.lock`` for the duration of :func:`repro.jobs.submit_job`
    (overlapping resumes of one job are legal, hence shared, not
    exclusive). ``prune_cache`` probes with a non-blocking *exclusive*
    lock before deleting a job directory, so eviction can never yank the
    journal out from under a live resume. On platforms without ``fcntl``
    the lock degrades to a no-op (prune falls back to its min-age floor).
    """

    def __init__(self, directory: Path) -> None:
        self.path = Path(directory) / LOCK_NAME
        self._fh = None

    def acquire(self) -> "JobRunLock":
        if fcntl is not None:
            self._fh = open(self.path, "a")
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_SH)
        return self

    def release(self) -> None:
        if self._fh is not None:
            self._fh.close()  # closing the fd drops the flock
            self._fh = None

    def __enter__(self) -> "JobRunLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def job_in_use(directory: Path) -> bool:
    """Whether some process currently holds ``directory``'s run lock."""
    if fcntl is None:  # pragma: no cover - non-POSIX
        return False
    lock = Path(directory) / LOCK_NAME
    try:
        fd = os.open(lock, os.O_RDWR)
    except OSError:
        return False  # no lock file: nothing is running this job
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        return True
    finally:
        os.close(fd)
    return False


def jobs_root(cache_dir: Optional[Path] = None) -> Path:
    """The directory all job state lives under."""
    base = Path(cache_dir) if cache_dir else default_cache_dir()
    return base / JOBS_SUBDIR


def _slug(name: str) -> str:
    """Directory-safe form of a job name."""
    slug = re.sub(r"[^a-z0-9._-]+", "-", name.lower()).strip("-")
    return slug[:48]


def job_id_for(name: str, cells: Sequence[SweepCell]) -> str:
    """Content-keyed job id: ``<name-slug>-<digest12>``.

    The digest covers the *sorted* cell content keys (order-independent:
    the same grid enumerated in a different order is the same job) plus
    the name, so two differently-named jobs over identical cells keep
    separate journals.
    """
    payload = json.dumps(
        [name, sorted(cell.key() for cell in cells)],
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
    slug = _slug(name)
    return f"{slug}-{digest}" if slug else digest


def cell_to_dict(cell: SweepCell) -> Dict:
    """One cell serialized for the manifest (full config, JSON-safe)."""
    return {
        "design": cell.design,
        "benchmark": cell.benchmark,
        "seed": cell.seed,
        "reads_per_core": cell.reads_per_core,
        "warmup_fraction": cell.warmup_fraction,
        "config": cell.config.to_dict(),
    }


def cell_from_dict(data: Dict) -> SweepCell:
    """Rebuild a cell from :func:`cell_to_dict` output."""
    return SweepCell(
        design=data["design"],
        benchmark=data["benchmark"],
        config=SystemConfig.from_dict(data.get("config", {})),
        reads_per_core=int(data.get("reads_per_core", 12000)),
        warmup_fraction=float(data.get("warmup_fraction", 0.25)),
        seed=int(data.get("seed", 1)),
    )


@dataclass
class Job:
    """A named, content-keyed set of sweep cells (the resumable unit)."""

    name: str
    cells: List[SweepCell]
    #: On-disk home (manifest + journal); None for ephemeral jobs.
    directory: Optional[Path] = None
    created: str = ""

    @cached_property
    def job_id(self) -> str:
        """The content-keyed id (:func:`job_id_for`), hashed once per job.

        Nothing reassigns ``name`` or mutates ``cells`` after construction,
        and the id is read again and again: by the job directory, the
        journal header and every event ``repro serve`` streams for the job.
        """
        return job_id_for(self.name, self.cells)

    @property
    def journal_path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / JOURNAL_NAME

    def journal(self) -> Optional[JobJournal]:
        """This job's journal (None for ephemeral jobs)."""
        if self.directory is None:
            return None
        return JobJournal(
            self.directory / JOURNAL_NAME, job_id=self.job_id, name=self.name
        )

    def completed_cells(self) -> int:
        """Distinct cells of *this* job already journaled as complete."""
        journal = self.journal()
        if journal is None:
            return 0
        done = journal.load()
        return sum(1 for cell in self.cells if cell.key() in done)


def ephemeral_job(cells: Sequence[SweepCell]) -> Job:
    """An unnamed, journal-less job (the plain ``run_sweep`` path)."""
    return Job(name="", cells=list(cells), directory=None)


def create_job(
    name: str,
    cells: Sequence[SweepCell],
    cache_dir: Optional[Path] = None,
) -> Job:
    """Create (or attach to) the named job for this exact cell set.

    Idempotent: the content-keyed id means resubmitting the same work
    re-opens the existing directory — and its journal — instead of
    duplicating it.
    """
    if not name:
        raise ValueError("named jobs need a non-empty name")
    cells = list(cells)
    if not cells:
        raise ValueError("a job needs at least one cell")
    job = Job(name=name, cells=cells)
    directory = jobs_root(cache_dir) / job.job_id
    directory.mkdir(parents=True, exist_ok=True)
    job.directory = directory
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        job.created = _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        )
        payload = {
            "schema": MANIFEST_SCHEMA,
            "kind": "repro-job",
            "name": name,
            "job_id": job.job_id,
            "created": job.created,
            "total_cells": len(cells),
            "cells": [cell_to_dict(cell) for cell in cells],
        }
        atomic_write(manifest_path, json.dumps(payload, sort_keys=True, indent=1))
    else:
        try:
            job.created = json.loads(manifest_path.read_text()).get(
                "created", ""
            )
        except ValueError:
            job.created = ""
    return job


def _load_manifest(directory: Path) -> Optional[Dict]:
    path = directory / MANIFEST_NAME
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if data.get("kind") != "repro-job":
        return None
    return data


def _job_from_manifest(directory: Path, data: Dict) -> Job:
    return Job(
        name=data.get("name", ""),
        cells=[cell_from_dict(c) for c in data.get("cells", [])],
        directory=directory,
        created=data.get("created", ""),
    )


def open_job(ref: str, cache_dir: Optional[Path] = None) -> Job:
    """Load a job by id or by name.

    Name lookups scan every manifest; if several jobs share a name (same
    name over different cell sets), the reference is ambiguous and the
    error lists the candidate ids.
    """
    root = jobs_root(cache_dir)
    direct = _load_manifest(root / ref)
    if direct is not None:
        return _job_from_manifest(root / ref, direct)
    matches: List[Job] = []
    if root.is_dir():
        for directory in sorted(root.iterdir()):
            data = _load_manifest(directory)
            if data is not None and data.get("name") == ref:
                matches.append(_job_from_manifest(directory, data))
    if not matches:
        raise KeyError(f"no job named or identified by {ref!r} under {root}")
    if len(matches) > 1:
        ids = ", ".join(job.job_id for job in matches)
        raise KeyError(
            f"job name {ref!r} is ambiguous ({len(matches)} jobs: {ids}); "
            "use a job id"
        )
    return matches[0]


@dataclass
class JobInfo:
    """One row of ``repro jobs list``."""

    job_id: str
    name: str
    created: str
    total_cells: int
    completed_cells: int
    bytes: int
    directory: Path = field(default_factory=Path)


def list_jobs(cache_dir: Optional[Path] = None) -> List[JobInfo]:
    """Every job on disk, oldest first (by manifest creation time)."""
    root = jobs_root(cache_dir)
    infos: List[JobInfo] = []
    if not root.is_dir():
        return infos
    for directory in sorted(root.iterdir()):
        data = _load_manifest(directory)
        if data is None:
            continue
        job = _job_from_manifest(directory, data)
        size = 0
        for p in directory.rglob("*"):
            try:
                size += p.stat().st_size if p.is_file() else 0
            except OSError:  # vanished under a concurrent pruner
                continue
        infos.append(
            JobInfo(
                job_id=data.get("job_id", directory.name),
                name=job.name,
                created=job.created,
                total_cells=int(data.get("total_cells", len(job.cells))),
                completed_cells=job.completed_cells(),
                bytes=size,
                directory=directory,
            )
        )
    infos.sort(key=lambda info: (info.created, info.job_id))
    return infos


def remove_job(ref: str, cache_dir: Optional[Path] = None) -> Path:
    """Delete one job's directory (manifest + journal); returns the path."""
    job = open_job(ref, cache_dir=cache_dir)
    assert job.directory is not None
    shutil.rmtree(job.directory)
    return job.directory
