"""Shared helpers: checkout paths, hermetic environment, statistics, host record."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Every temporary file of a run lives under here, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"

#: Inherited knobs that would silently change which program is measured.
SCRUBBED_ENV = (
    "REPRO_ENGINE",
    "REPRO_JOBS",
    "REPRO_CACHE",
    "REPRO_TRACE_CACHE",
    "REPRO_SHARED_TRACES",
    "REPRO_VERIFY",
    "REPRO_TEST_KILL_CELL",
)


def require_program() -> None:
    """Exit non-zero, printing no result, when the checkout has no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scrub_environment() -> Dict[str, str]:
    """Drop inherited ``REPRO_*`` knobs from this process; returns them."""
    removed = {}
    for name in SCRUBBED_ENV + ("REPRO_CACHE_DIR",):
        if name in os.environ:
            removed[name] = os.environ.pop(name)
    return removed


def child_env(cache_dir: Optional[Path] = None) -> Dict[str, str]:
    """Environment for a child process: scrubbed, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env.pop("REPRO_CACHE_DIR", None)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(args: List[str], env: Dict[str, str], timeout: float = 150.0) -> Tuple[Optional[float], int]:
    """Run ``child.py ARGS`` until it exits.

    Returns (seconds from start until the child printed ``ready``, or None;
    exit code). A child past ``timeout`` is killed.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started if line.strip() == "ready" else None
        proc.stdout.read()
        proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    return ready, proc.returncode


def more_time(started: float, budget: float, last: Optional[float]) -> bool:
    """Whether to start another iteration: always a first one, then only if
    one more like the ``last`` would end no later than half of it past
    ``budget`` seconds from ``started``."""
    if last is None:
        return True
    return time.perf_counter() - started + last / 2 < budget


def fresh_dir(prefix: str) -> Path:
    """A new empty directory under the checkout's scratch area."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def leaked_tmp_files(directory: Path) -> List[str]:
    """Atomic-write temp files (``*.tmp.*``) left anywhere under ``directory``."""
    if not directory.is_dir():
        return []
    return sorted(
        str(p.relative_to(directory)) for p in directory.rglob("*.tmp.*")
    )


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(seed: int) -> Dict:
    """What the numbers depend on; cross-host numbers are annotated, not scaled."""
    import platform

    import numpy

    from repro.perf.bench import calibrate

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "calibrate_ops_per_s": calibrate(),
    }


def resolved_knobs() -> Dict:
    """The environment knobs as the program resolves them in this process."""
    from repro.sim import parallel
    from repro.workloads import arena

    return {
        "REPRO_ENGINE": os.environ.get("REPRO_ENGINE", ""),
        "REPRO_CACHE_DIR": str(parallel.default_cache_dir()),
        "cache_enabled": parallel.cache_enabled(),
        "trace_cache_enabled": arena.trace_cache_enabled(),
        "shared_traces_enabled": parallel.shared_traces_enabled(),
        "default_workers": parallel.default_workers(),
    }


def count_engines(engines: Iterable[str]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for engine in engines:
        key = engine or "unknown"
        counts[key] = counts.get(key, 0) + 1
    return counts
