"""Pinned trace streams, and the numpy facts the generator relies on.

``tests/goldens/trace_digests.json`` holds one SHA-256 per generated
workload — every catalog benchmark and every mix at several lengths and
capacity scales — over the five per-core arrays and ``instructions``.
Any change to a generated stream fails here, so a pure speedup of
:mod:`repro.workloads.patterns` must reproduce every digest and keep
``GENERATOR_VERSION``. The fixture is written by running this module as a
script; regenerate it only together with a ``GENERATOR_VERSION`` bump::

    PYTHONPATH=src python tests/test_trace_digests.py

The generator draws several records with one sized numpy call where the
old record-at-a-time loop made scalar calls. The numpy facts that keep
this bit-exact each have a test below, so a numpy upgrade that breaks one
fails by name, not only as a digest mismatch.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.mixes import MIXES, generate_mix_workload
from repro.workloads.patterns import generate_core_trace, zipf_ranks
from repro.workloads.spec import ALL_BENCHMARKS, generate_workload

DIGESTS_PATH = Path(__file__).parent / "goldens" / "trace_digests.json"

_FIELDS = ("gaps", "addresses", "is_write", "pcs")


def workload_digest(workload) -> str:
    """SHA-256 over every core's arrays (dtype and bytes) and instructions."""
    h = hashlib.sha256()
    for trace in workload.cores:
        arrays = [getattr(trace, field) for field in _FIELDS]
        arrays.append(trace.dependent_flags())
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            h.update(arr.dtype.str.encode())
            h.update(len(arr).to_bytes(8, "little"))
            h.update(arr.tobytes())
        h.update(str(trace.instructions).encode())
    return h.hexdigest()


def _generate(case):
    name = case["workload"]
    make = generate_mix_workload if name in MIXES else generate_workload
    return make(
        name,
        num_cores=case["num_cores"],
        reads_per_core=case["reads_per_core"],
        capacity_scale=case["capacity_scale"],
        seed=case["seed"],
    )


def _cases():
    """Every pinned (workload, length, scale, seed) combination."""
    names = sorted(ALL_BENCHMARKS) + sorted(MIXES)
    cases = []

    def add(group, workload, num_cores, reads, scale, seed):
        cases.append(
            {
                "group": group,
                "workload": workload,
                "num_cores": num_cores,
                "reads_per_core": reads,
                "capacity_scale": scale,
                "seed": seed,
            }
        )

    for name in names:
        add("reads2000-scale256", name, 8, 2000, 256, 1)
        add("reads1000-scale4096", name, 8, 1000, 4096, 2)
        # Short traces end mid-burst and mid-phase.
        for reads in (1, 2, 7, 31, 149):
            add("short", name, 2, reads, 256, 5)
    # The sim-cells benchmark workloads, at experiment length.
    for name in ("mcf_r", "mix4"):
        add("reads12000-sim-cells", name, 8, 12000, 256, 1)
    return cases


def _load():
    with open(DIGESTS_PATH, encoding="utf-8") as f:
        return json.load(f)["cases"]


_GROUPS = tuple(dict.fromkeys(case["group"] for case in _cases()))


@pytest.mark.parametrize("group", _GROUPS)
def test_generated_traces_match_pinned_digests(group):
    mismatched = [
        f"{c['workload']} r{c['reads_per_core']} x{c['capacity_scale']} "
        f"s{c['seed']} c{c['num_cores']}"
        for c in _load()
        if c["group"] == group and workload_digest(_generate(c)) != c["sha256"]
    ]
    assert not mismatched, f"generated streams changed: {mismatched}"


def test_fixture_covers_every_workload_and_group():
    cases = _load()
    assert {c["workload"] for c in cases} == set(ALL_BENCHMARKS) | set(MIXES)
    assert {c["group"] for c in cases} == set(_GROUPS)


# ----------------------------------------------------------------------
# The numpy facts behind the two-pass generator
# ----------------------------------------------------------------------
def _pair(seed=12345):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("p", [1.0 / 3, 0.1, 1.0 / 64, 1.0])
def test_sized_geometric_equals_scalar_calls(p):
    a, b = _pair()
    sized = a.geometric(p, size=500)
    scalars = [b.geometric(p) for _ in range(500)]
    assert sized.tolist() == scalars
    assert _same_state(a, b)


def test_sized_random_equals_scalar_calls():
    a, b = _pair()
    sized = a.random(size=500)
    scalars = [b.random() for _ in range(500)]
    assert sized.tolist() == scalars
    assert _same_state(a, b)


@pytest.mark.parametrize("bound", [3, 10, 4096, 65536, 1 << 20, 1 << 33])
def test_sized_integers_equal_scalar_calls(bound):
    a, b = _pair()
    sized = a.integers(bound, size=501)
    scalars = [int(b.integers(bound)) for _ in range(501)]
    assert sized.tolist() == scalars
    assert _same_state(a, b)


@pytest.mark.parametrize("bound", [3, 10, 65536, 1 << 20])
def test_back_to_back_integers_concatenate(bound):
    # PCG64 keeps its spare 32-bit half between calls, so odd-length
    # calls with one bound split anywhere without changing the values.
    a, b = _pair()
    whole = a.integers(bound, size=1 + 3 + 5 + 1 + 7)
    parts = np.concatenate(
        [b.integers(bound, size=n) for n in (1, 3, 5, 1, 7)]
    )
    assert whole.tolist() == parts.tolist()
    assert _same_state(a, b)


def test_generators_are_independent():
    # Draws on one generator never move another, so the main generator's
    # per-phase calls may move to the end of the phase.
    main_a, comp_a = _pair(1)[0], np.random.default_rng(2)
    main_b, comp_b = _pair(1)[0], np.random.default_rng(2)
    interleaved = []
    for _ in range(50):
        interleaved.append(int(main_a.integers(7)))
        interleaved.append(int(comp_a.geometric(1.0 / 3)))
    mains = [int(main_b.integers(7)) for _ in range(50)]
    comps = [int(comp_b.geometric(1.0 / 3)) for _ in range(50)]
    assert interleaved[0::2] == mains
    assert interleaved[1::2] == comps


@pytest.mark.parametrize("name", ["mcf_r", "libquantum_r", "zeusmp_r", "omnetpp_r"])
def test_shorter_trace_reads_are_a_prefix(name):
    # A trace that ends mid-phase (and mid-burst) draws nothing more from
    # any component generator, so its reads are the longer trace's first.
    pattern = ALL_BENCHMARKS[name].pattern
    long = generate_core_trace(pattern, 3000, seed=11)
    for n in (1, 5, 64, 997):
        short = generate_core_trace(pattern, n, seed=11)
        for field in ("addresses", "pcs", "is_dependent"):
            got = getattr(short, field)[~short.is_write]
            assert got.tolist() == getattr(long, field)[~long.is_write][:n].tolist()


def test_zipf_ranks_match_the_per_record_formula():
    rng = np.random.default_rng(7)
    uniforms = rng.random(size=200_000)
    # The extremes of ``random()``: its smallest nonzero draw gives a
    # huge rank that clips to the region's last line.
    uniforms[:3] = [1.0 - 2**-53, 0.5, 2**-53]
    for alpha, region in ((1.4, 1 << 14), (1.15, 1 << 20), (2.5, 37)):
        power = -1.0 / (alpha - 1.0)
        expected = [min(int(u**power) - 1, region - 1) for u in uniforms.tolist()]
        got = zipf_ranks(uniforms, power, region)
        assert got.dtype == np.int64
        assert got.tolist() == expected


if __name__ == "__main__":
    payload = {
        "about": (
            "SHA-256 per generated workload over each core's gaps, "
            "addresses, is_write, pcs, is_dependent and instructions; "
            "written by tests/test_trace_digests.py"
        ),
        "cases": [
            {**case, "sha256": workload_digest(_generate(case))}
            for case in _cases()
        ],
    }
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['cases'])} digests to {DIGESTS_PATH}")
