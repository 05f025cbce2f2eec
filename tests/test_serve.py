"""Tests for ``repro serve``: concurrency, streaming, backpressure, drain."""

import asyncio
import builtins
import http.client
import io
import json
import logging
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict

import pytest

from repro.jobs import create_job, manager, submit_job
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    report_from_dict,
    server as server_module,
)
from repro.serve.protocol import (
    cell_result_from_dict,
    cell_result_to_dict,
    decode,
    dumps,
    encode,
    encode_with,
    report_text,
    report_to_dict,
)
from repro.sim import parallel
from repro.sim.config import SystemConfig
from repro.sim.parallel import ResultCache, make_cells, run_sweep
from repro.sim.system import System
from repro.workloads.arena import owned_segment_names, segment_pool_stats

CONFIG = SystemConfig(capacity_scale=4096)
DESIGNS = ("no-cache", "alloy-map-i")


def grid(benchmarks, reads=250, seed=1):
    return make_cells(
        DESIGNS, benchmarks, config=CONFIG, reads_per_core=reads, seed=seed
    )


def big_grid():
    """120 tiny cells: one submit line of ~81 KB, over asyncio's default
    64 KiB reader limit."""
    designs = ("no-cache", "alloy-map-i", "sram-tag", "lh-cache", "ideal-lo")
    return [
        cell
        for seed in range(1, 13)
        for cell in make_cells(
            designs,
            ("sphinx_r", "gcc_r"),
            config=CONFIG,
            reads_per_core=100,
            seed=seed,
        )
    ]


def results_by_grid(report):
    """(design, benchmark) -> asdict(result): the bit-exactness currency."""
    return {
        (c.cell.design, c.cell.benchmark): asdict(c.result)
        for c in report.cells
    }


def serve_config(tmp_path, **overrides):
    defaults = dict(
        workers=2,
        job_slots=2,
        idle_segments=4,
        cache_dir=tmp_path / "cache",
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestProtocolBasics:
    def test_hello_ping_stats(self, tmp_path):
        with ServerThread(serve_config(tmp_path)) as server:
            with ServeClient(port=server.port) as client:
                hello = client.hello()
                assert hello["protocol"] == 1
                assert hello["workers"] == 2
                client.ping()
                stats = client.stats()
                assert stats["clients_connected"] == 1
                assert stats["cells_served"] == 0

    def test_unknown_op_and_garbage_are_reported(self, tmp_path):
        with ServerThread(serve_config(tmp_path)) as server:
            with ServeClient(port=server.port) as client:
                client.send({"op": "frobnicate"})
                event = client.recv()
                assert event["event"] == "error"
                assert event["code"] == "bad-request"
                client._fh.write(b"not json\n")
                client._fh.flush()
                event = client.recv()
                assert event["code"] == "bad-request"

    def test_over_limit_line_is_answered_then_closed(
        self, tmp_path, monkeypatch
    ):
        """A line over the reader limit gets one bad-request naming the
        limit and its connection closes; other connections keep serving.
        Covers the first line of a connection and a later one."""
        monkeypatch.setattr(server_module, "MAX_LINE_BYTES", 1024)
        oversized = {"op": "ping", "pad": "x" * 4096}
        with ServerThread(serve_config(tmp_path)) as server:
            for greet_first in (False, True):
                with ServeClient(port=server.port) as client:
                    if greet_first:
                        client.hello()
                    client.send(oversized)
                    event = client.recv()
                    assert event["event"] == "error"
                    assert event["code"] == "bad-request"
                    assert "1024" in event["error"]
                    with pytest.raises(ConnectionError):
                        client.recv()
            with ServeClient(port=server.port) as client:
                assert client.ping()["event"] == "pong"

    def test_submit_rejects_empty_cells(self, tmp_path):
        with ServerThread(serve_config(tmp_path)) as server:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServeError, match="cells"):
                    client.submit([])


def raw_job(client, message):
    """Send one job message; return every line up to its terminal event,
    exactly as the server wrote them."""
    client.send(message)
    lines = []
    while True:
        line = client._fh.readline()
        assert line, "server closed the connection mid-job"
        lines.append(line)
        if decode(line)["event"] in ("done", "error"):
            return lines


def wait_for_stats(client, predicate, timeout=60.0):
    """Poll ``stats`` until ``predicate`` holds (jobs finish off-connection)."""
    deadline = time.monotonic() + timeout
    while True:
        stats = client.stats()
        if predicate(stats) or time.monotonic() > deadline:
            return stats
        time.sleep(0.02)


class TestEncodeOnce:
    """``done`` splices in the cell texts the ``cell`` events carried."""

    @pytest.mark.parametrize("key", ["a", "data", "id", "job_id", "zzz"])
    def test_encode_with_equals_encode(self, key):
        value = {"cells": [1.5, "x"], "nested": {"b": 2, "a": None}}
        for message in ({}, {"event": "cell", "id": [7], "job_id": "j-1"}):
            assert encode_with(message, key, dumps(value)) == encode(
                {**message, key: value}
            )

    def test_report_text_equals_dumps_of_report(self):
        report = run_sweep(
            grid(("sphinx_r", "gcc_r")),
            cache=ResultCache(persist=False),
            use_cache=False,
        )
        texts = [dumps(cell_result_to_dict(c)) for c in report.cells]
        assert report_text(report, texts) == dumps(report_to_dict(report))

    def test_served_lines_are_byte_identical_to_encode(self, tmp_path):
        """Each ``cell`` and ``done`` line, for a simulated job and for the
        same job answered inline from the cache, is ``encode`` of the
        message the server built before encode-once: ``done`` holds
        ``report_to_dict`` of the report, every streamed cell in it."""
        cells = grid(("sphinx_r", "gcc_r"), seed=71)
        message = {
            "op": "submit",
            "id": 7,
            "cells": [manager.cell_to_dict(c) for c in cells],
        }
        with ServerThread(serve_config(tmp_path, workers=1)) as server:
            with ServeClient(port=server.port) as client:
                jobs = [raw_job(client, message) for _ in range(2)]
                stats = client.stats()
        assert stats["jobs_inline"] == 1
        for lines in jobs:
            messages = [decode(line) for line in lines]
            kinds = [m["event"] for m in messages]
            assert kinds == ["ack"] + ["cell"] * len(cells) + ["done"]
            for line, sent in zip(lines, messages):
                assert line == encode(sent)
            job_id = messages[0]["job_id"]
            for sent in messages[1:-1]:
                assert sent == {
                    "event": "cell",
                    "id": 7,
                    "job_id": job_id,
                    "data": cell_result_to_dict(
                        cell_result_from_dict(sent["data"])
                    ),
                }
            done = messages[-1]
            report = report_from_dict(done["report"])
            assert lines[-1] == encode(
                {
                    "event": "done",
                    "id": 7,
                    "job_id": job_id,
                    "report": report_to_dict(report),
                }
            )
            assert sorted(map(dumps, done["report"]["cells"])) == sorted(
                dumps(sent["data"]) for sent in messages[1:-1]
            )


class TestSubmit:
    def test_streams_every_cell_then_done_bit_identical(self, tmp_path):
        cells = grid(("sphinx_r",))
        streamed = []
        with ServerThread(serve_config(tmp_path)) as server:
            with ServeClient(port=server.port) as client:
                report = report_from_dict(
                    client.submit(cells, on_cell=streamed.append)
                )
        assert len(streamed) == len(cells) == len(report.cells)
        serial = run_sweep(
            cells,
            cache=ResultCache(tmp_path / "serial", persist=False),
            use_cache=False,
        )
        assert results_by_grid(report) == results_by_grid(serial)

    def test_repeat_submit_is_all_cache_hits(self, tmp_path):
        cells = grid(("sphinx_r",))
        with ServerThread(serve_config(tmp_path)) as server:
            with ServeClient(port=server.port) as client:
                first = report_from_dict(client.submit(cells))
                second = report_from_dict(client.submit(cells))
                stats = client.stats()
        assert first.cache_hits == 0
        assert second.cache_hits == len(cells)
        assert results_by_grid(first) == results_by_grid(second)
        assert stats["cells_from_cache"] == len(cells)
        assert stats["jobs_completed"] == 2

    def test_grid_over_64_kib_submits_and_streams(self, tmp_path):
        cells = big_grid()
        line = encode(
            {
                "op": "submit",
                "cells": [manager.cell_to_dict(c) for c in cells],
                "use_cache": True,
            }
        )
        assert len(line) > 64 * 1024
        streamed = []
        with ServerThread(serve_config(tmp_path)) as server:
            with ServeClient(port=server.port) as client:
                report = client.submit(cells, on_cell=streamed.append)
        assert len(streamed) == len(report["cells"]) == len(cells) == 120

    @pytest.mark.parametrize("name", ["", "nightly"])
    def test_cached_job_hashes_each_key_once(
        self, tmp_path, monkeypatch, name
    ):
        """A fully cached N-cell job computes N cell keys and one job id,
        however many events it streams."""
        cells = grid(("sphinx_r", "gcc_r", "mcf_r"))
        calls = {"cell_key": 0, "job_id_for": 0}

        def counting(module, attr):
            real = getattr(module, attr)

            def wrapper(*args):
                calls[attr] += 1
                return real(*args)

            monkeypatch.setattr(module, attr, wrapper)

        with ServerThread(serve_config(tmp_path)) as server:
            with ServeClient(port=server.port) as client:
                client.submit(cells, name=name)
                counting(parallel, "cell_key")
                counting(manager, "job_id_for")
                report = report_from_dict(client.submit(cells, name=name))
        assert report.cache_hits == len(cells) == 6
        assert calls == {"cell_key": len(cells), "job_id_for": 1}


@pytest.fixture
def submit_threads(monkeypatch):
    """Names of the threads ``submit_job`` ran on, in call order."""
    names = []
    real = server_module.submit_job

    def recording(*args, **kwargs):
        names.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(server_module, "submit_job", recording)
    return names


#: The thread ``ServerThread`` runs the event loop on.
LOOP_THREAD = "repro-serve"


class TestInlineJobs:
    def test_cached_ephemeral_job_runs_on_the_event_loop(
        self, tmp_path, monkeypatch, submit_threads
    ):
        """A fully cached ephemeral job makes no ``asyncio.to_thread``
        call, and its ``submit_job`` runs no simulation and touches no
        file. (File access is checked only inside that call: in debug mode
        the loop itself reads source files for task tracebacks.)"""
        cells = grid(("sphinx_r", "gcc_r"), seed=73)
        touched = []
        in_job = threading.Event()

        def forbidden(name, real=None):
            def guard(*args, **kwargs):
                if real is not None and not in_job.is_set():
                    return real(*args, **kwargs)
                touched.append(name)
                raise AssertionError(f"an inline job called {name}")

            return guard

        def flagged(submit):
            def run(*args, **kwargs):
                in_job.set()
                try:
                    return submit(*args, **kwargs)
                finally:
                    in_job.clear()

            return run

        with ServerThread(serve_config(tmp_path, workers=1)) as server:
            with ServeClient(port=server.port) as client:
                client.submit(cells)
                with monkeypatch.context() as patch:
                    patch.setattr(
                        server_module,
                        "submit_job",
                        flagged(server_module.submit_job),
                    )
                    patch.setattr(asyncio, "to_thread", forbidden("to_thread"))
                    patch.setattr(System, "run", forbidden("System.run"))
                    patch.setattr(
                        parallel, "_execute_cell", forbidden("_execute_cell")
                    )
                    for module, name in (
                        (builtins, "open"),
                        (io, "open"),
                        (os, "open"),
                        (os, "stat"),
                    ):
                        patch.setattr(
                            module,
                            name,
                            forbidden(
                                f"{module.__name__}.{name}",
                                getattr(module, name),
                            ),
                        )
                    report = report_from_dict(client.submit(cells))
                stats = client.stats()
        assert touched == []
        assert report.cache_hits == len(cells) == 4
        assert submit_threads[0] != LOOP_THREAD
        assert submit_threads[1] == LOOP_THREAD
        assert stats["jobs_inline"] == 1
        assert stats["jobs_completed"] == 2

    @pytest.mark.parametrize("kind", ["named", "no-cache", "one-uncached"])
    def test_other_jobs_run_on_a_worker_thread(
        self, tmp_path, submit_threads, kind
    ):
        """Only a job served from the memory tier alone stays on the loop:
        a named job (journal and run lock), a job that skips the cache and
        a job with one uncached cell each take a worker thread."""
        cells = grid(("sphinx_r",), seed=79)
        with ServerThread(serve_config(tmp_path, workers=1)) as server:
            with ServeClient(port=server.port) as client:
                client.submit(cells)
                if kind == "named":
                    client.submit(cells, name="nightly")
                elif kind == "no-cache":
                    client.submit(cells, use_cache=False)
                else:
                    client.submit(cells + grid(("gcc_r",), seed=79)[:1])
                stats = client.stats()
        assert LOOP_THREAD not in submit_threads
        assert len(submit_threads) == 2
        assert stats["jobs_inline"] == 0
        assert stats["jobs_completed"] == 2


class TestClientDisconnect:
    """A client that goes away mid-stream leaves the server serving."""

    @staticmethod
    def problems(caplog):
        return [
            f"{r.name}: {r.getMessage()}"
            for r in caplog.records
            if r.levelno >= logging.WARNING
        ]

    def test_close_after_ack_of_uncached_job(self, tmp_path, caplog):
        cells = grid(("sphinx_r", "gcc_r"), seed=83)
        payload = [manager.cell_to_dict(c) for c in cells]
        with caplog.at_level(logging.WARNING):
            with ServerThread(serve_config(tmp_path, workers=1)) as server:
                gone = ServeClient(port=server.port)
                gone.send({"op": "submit", "cells": payload})
                assert gone.recv()["event"] == "ack"
                gone.close()
                with ServeClient(port=server.port) as client:
                    assert client.ping()["event"] == "pong"
                    report = report_from_dict(client.submit(cells))
                    stats = client.stats()
        assert report.cache_hits == len(cells) == 4
        assert stats["cells_executed"] == 4
        assert stats["jobs_completed"] == 2
        assert self.problems(caplog) == []

    def test_close_right_after_submitting_cached_job(self, tmp_path, caplog):
        """The inline job streams 16 cells to a closed socket: after the
        first failed write the connection gets no more writes, so asyncio
        logs no "socket.send() raised exception." per lost write."""
        cells = [
            cell
            for seed in (83, 84)
            for cell in grid(
                ("sphinx_r", "gcc_r", "mcf_r", "lbm_r"), reads=100, seed=seed
            )
        ]
        payload = [manager.cell_to_dict(c) for c in cells]
        with caplog.at_level(logging.WARNING):
            with ServerThread(serve_config(tmp_path, workers=1)) as server:
                with ServeClient(port=server.port) as client:
                    client.submit(cells)
                gone = ServeClient(port=server.port)
                gone.send({"op": "submit", "cells": payload})
                gone.close()
                with ServeClient(port=server.port) as client:
                    assert client.ping()["event"] == "pong"
                    stats = wait_for_stats(
                        client, lambda s: s["jobs_completed"] == 2
                    )
        assert stats["jobs_inline"] == 1
        assert stats["jobs_completed"] == 2
        assert stats["cells_executed"] == len(cells) == 16
        assert self.problems(caplog) == []


class TestNoCacheServe:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_cache_server_keeps_traces_in_memory(
        self, tmp_path, monkeypatch, workers
    ):
        """``use_cache=False`` writes no ``.npz`` trace arena: not in the
        working directory, not under ``REPRO_CACHE_DIR``, not in
        ``cache_dir``."""
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        cells = grid(("sphinx_r", "gcc_r"), seed=89 + workers)
        config = serve_config(tmp_path, workers=workers, use_cache=False)
        with ServerThread(config) as server:
            with ServeClient(port=server.port) as client:
                report = report_from_dict(client.submit(cells))
        assert report.cache_misses == len(cells)
        assert report.workloads_built == 2
        assert sorted(tmp_path.rglob("*.npz")) == []


class TestConcurrentClients:
    def test_overlapping_sweeps_compute_each_cell_once(self, tmp_path):
        """The soak: two clients, overlapping 2x4 grids, exactly-once."""
        # seed 41: fresh workload keys, so workloads_built counts *this*
        # test's generator runs (earlier tests memoize seed-1 workloads).
        grid_a = grid(("sphinx_r", "gcc_r", "mcf_r", "lbm_r"), seed=41)
        grid_b = grid(("mcf_r", "lbm_r", "soplex_r", "milc_r"), seed=41)
        unique = {c.key() for c in grid_a + grid_b}
        overlap = {c.key() for c in grid_a} & {c.key() for c in grid_b}
        assert len(overlap) == 4
        reports = {}

        def run_client(name, cells, port):
            with ServeClient(port=port) as client:
                reports[name] = report_from_dict(client.submit(cells))

        with ServerThread(serve_config(tmp_path)) as server:
            threads = [
                threading.Thread(
                    target=run_client, args=("a", grid_a, server.port)
                ),
                threading.Thread(
                    target=run_client, args=("b", grid_b, server.port)
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ServeClient(port=server.port) as client:
                stats = client.stats()

        executed = [
            c
            for report in reports.values()
            for c in report.cells
            if not c.from_cache
        ]
        # Every unique cell simulated exactly once, across both clients.
        assert len(executed) == len(unique)
        assert len({c.cell.key() for c in executed}) == len(unique)
        # Every duplicate cell was served from the shared cache.
        duplicates = [
            c
            for report in reports.values()
            for c in report.cells
            if c.cell.key() in overlap
        ]
        assert sum(1 for c in duplicates if c.from_cache) == len(overlap)
        # Generators ran once per unique workload, never twice.
        built = sum(r.workloads_built for r in reports.values())
        unique_workloads = {
            c.workload_params().key() for c in grid_a + grid_b
        }
        assert built == len(unique_workloads)
        assert stats["cells_served"] == len(grid_a) + len(grid_b)
        assert stats["cells_from_cache"] == len(overlap)

        # Bit-identical to an in-process serial sweep of the union grid.
        union = {c.key(): c for c in grid_a + grid_b}
        serial = run_sweep(
            list(union.values()),
            cache=ResultCache(tmp_path / "serial", persist=False),
            use_cache=False,
        )
        serial_results = results_by_grid(serial)
        for report in reports.values():
            for key, value in results_by_grid(report).items():
                assert value == serial_results[key], key

    def test_no_segments_leak_after_drain(self, tmp_path):
        with ServerThread(serve_config(tmp_path)) as server:
            with ServeClient(port=server.port) as client:
                client.submit(grid(("sphinx_r",)))
                # While serving, idle segments may stay pooled for reuse.
                assert segment_pool_stats()["active"] == 0
        # Drained server: nothing pooled, nothing owned, cap restored to 0.
        assert segment_pool_stats() == {"pooled": 0, "active": 0, "idle": 0}
        assert owned_segment_names() == ()


class TestKillResume:
    def test_mid_job_kill_resumes_bit_identically(self, tmp_path, monkeypatch):
        """SIGKILLed worker -> job-failed -> reconnect + resume, same bits."""
        cells = grid(("sphinx_r", "gcc_r"))
        with ServerThread(
            serve_config(tmp_path, job_slots=1, use_cache=False)
        ) as server:
            monkeypatch.setenv("REPRO_TEST_KILL_CELL", "alloy-map-i/gcc_r")
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServeError) as err:
                    client.submit(cells, name="killable", use_cache=False)
                assert err.value.code == "job-failed"
            monkeypatch.delenv("REPRO_TEST_KILL_CELL")
            with ServeClient(port=server.port) as client:
                resumed = report_from_dict(
                    client.resume("killable", use_cache=False)
                )
                stats = client.stats()
        assert len(resumed.cells) == len(cells)
        assert stats["jobs_failed"] == 1
        assert stats["jobs_completed"] == 1
        # asdict-identical to a journal-less serial run of the same job.
        job = create_job("serial-twin", cells, cache_dir=tmp_path / "twin")
        serial = submit_job(
            job,
            cache=ResultCache(tmp_path / "twin", persist=False),
            use_cache=False,
        )
        assert results_by_grid(resumed) == results_by_grid(serial)


class TestBackpressure:
    def test_rate_limit_rejects_burst_overflow(self, tmp_path):
        config = serve_config(tmp_path, rate=0.001, burst=2)
        with ServerThread(config) as server:
            with ServeClient(port=server.port) as client:
                client.ping()
                client.ping()
                client.send({"op": "ping"})
                event = client.recv()
                assert event["event"] == "error"
                assert event["code"] == "rate-limited"

    def test_per_connection_job_cap(self, tmp_path):
        config = serve_config(tmp_path, max_client_jobs=1, job_slots=1)
        cells = grid(("sphinx_r",))
        from repro.jobs.manager import cell_to_dict

        with ServerThread(config) as server:
            with ServeClient(port=server.port) as client:
                payload = [cell_to_dict(c) for c in cells]
                client.send({"op": "submit", "cells": payload, "id": 1})
                client.send({"op": "submit", "cells": payload, "id": 2})
                events = {"too-many-jobs": 0, "done": 0}
                while events["done"] == 0 or events["too-many-jobs"] == 0:
                    message = client.recv()
                    if message.get("event") == "error":
                        assert message["code"] == "too-many-jobs"
                        assert message["id"] == 2
                        events["too-many-jobs"] += 1
                    elif message.get("event") == "done":
                        assert message["id"] == 1
                        events["done"] += 1

    def test_queue_full_rejects_when_slots_and_queue_busy(self, tmp_path):
        config = serve_config(
            tmp_path, job_slots=1, max_queue=1, max_client_jobs=4
        )
        # Fresh seeds so the blocking job really simulates (no cache hits).
        slow = make_cells(
            DESIGNS,
            ("sphinx_r", "gcc_r"),
            config=CONFIG,
            reads_per_core=2000,
            seed=917,
        )
        fast = make_cells(
            DESIGNS, ("mcf_r",), config=CONFIG, reads_per_core=250, seed=917
        )
        from repro.jobs.manager import cell_to_dict

        with ServerThread(config) as server:
            blocker = ServeClient(port=server.port)
            acked = threading.Event()
            blocker_report = {}

            def run_blocker():
                blocker_report["report"] = blocker.submit(
                    slow, on_ack=lambda _m: acked.set()
                )

            thread = threading.Thread(target=run_blocker)
            thread.start()
            assert acked.wait(timeout=120)  # the slot is now occupied
            with ServeClient(port=server.port) as client:
                payload = [cell_to_dict(c) for c in fast]
                client.send({"op": "submit", "cells": payload, "id": "q1"})
                client.send({"op": "submit", "cells": payload, "id": "q2"})
                rejected = None
                finished = 0
                while rejected is None or finished == 0:
                    message = client.recv()
                    if message.get("event") == "error":
                        assert message["code"] == "queue-full"
                        assert message["id"] == "q2"
                        rejected = message
                    elif message.get("event") == "done":
                        finished += 1
            thread.join(timeout=300)
            assert "report" in blocker_report
            blocker.close()


class TestDrain:
    def test_drain_finishes_running_jobs_then_refuses(self, tmp_path):
        config = serve_config(tmp_path, job_slots=1)
        cells = grid(("sphinx_r",))
        server = ServerThread(config).start()
        try:
            done = {}
            acked = threading.Event()

            def client_run():
                with ServeClient(port=server.port) as client:
                    done["report"] = client.submit(
                        cells, on_ack=lambda _m: acked.set()
                    )

            thread = threading.Thread(target=client_run)
            thread.start()
            assert acked.wait(timeout=120)
            server.request_drain()  # SIGTERM equivalent, mid-job
            thread.join(timeout=300)
            # The in-flight job finished and streamed its report.
            assert len(done["report"]["cells"]) == len(cells)
        finally:
            server.stop()
        with pytest.raises(OSError):
            ServeClient(port=server.port, timeout=5.0)

    def test_submit_during_drain_is_rejected(self, tmp_path):
        server = ServerThread(serve_config(tmp_path)).start()
        client = ServeClient(port=server.port)
        client.hello()
        server.server._draining = True  # drain flag, listener still up
        try:
            with pytest.raises(ServeError) as err:
                client.submit(grid(("sphinx_r",)))
            assert err.value.code == "draining"
        finally:
            client.close()
            server.server._draining = False
            server.stop()


class TestMetricsEndpoint:
    def test_http_get_metrics_on_same_port(self, tmp_path):
        with ServerThread(serve_config(tmp_path)) as server:
            with ServeClient(port=server.port) as client:
                client.submit(grid(("sphinx_r",)))
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read().decode()
            conn.close()
        assert response.status == 200
        metrics = {
            line.split()[0]: float(line.split()[1])
            for line in body.strip().splitlines()
        }
        assert metrics["repro_serve_cells_served"] == 2.0
        assert metrics["repro_serve_jobs_completed"] == 1.0
        assert metrics["repro_serve_jobs_inline"] == 0.0
        assert "repro_serve_cache_hit_rate" in metrics
        assert "repro_serve_events_per_sec" in metrics
        assert "repro_serve_segments_idle" in metrics

    @staticmethod
    def _raw(port, data, reset=False):
        """Send ``data`` on a fresh connection; return everything the server
        answers, or drop the connection with a reset instead of reading."""
        import socket
        import struct

        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(data)
            if reset:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                return b""
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_over_limit_header_is_answered_431(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setattr(server_module, "MAX_LINE_BYTES", 1024)
        request = b"GET /metrics HTTP/1.0\r\nX-Pad: " + b"x" * 4096 + b"\r\n\r\n"
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServerThread(serve_config(tmp_path)) as server:
                reply = self._raw(server.port, request)
                with ServeClient(port=server.port) as client:
                    assert client.ping()["event"] == "pong"
        assert reply.startswith(b"HTTP/1.0 431 Request Header Fields Too Large")
        assert b"1024" in reply
        assert not [r.getMessage() for r in caplog.records if r.name == "asyncio"]

    def test_over_limit_request_line_is_answered_414(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setattr(server_module, "MAX_LINE_BYTES", 1024)
        request = b"GET /" + b"x" * 4096 + b" HTTP/1.0\r\n\r\n"
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServerThread(serve_config(tmp_path)) as server:
                reply = self._raw(server.port, request)
                with ServeClient(port=server.port) as client:
                    assert client.ping()["event"] == "pong"
        assert reply.startswith(b"HTTP/1.0 414 URI Too Long")
        assert b"1024" in reply
        assert not [r.getMessage() for r in caplog.records if r.name == "asyncio"]

    def test_client_dropping_mid_headers_is_quiet(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServerThread(serve_config(tmp_path)) as server:
                self._raw(
                    server.port, b"GET /metrics HTTP/1.0\r\nX-A: 1\r\n", reset=True
                )
                with ServeClient(port=server.port) as client:
                    assert client.ping()["event"] == "pong"
                reply = self._raw(server.port, b"GET /metrics HTTP/1.0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.0 200 OK")
        assert not [r.getMessage() for r in caplog.records if r.name == "asyncio"]

    def test_http_unknown_path_is_404(self, tmp_path):
        with ServerThread(serve_config(tmp_path)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            conn.request("GET", "/nope")
            response = conn.getresponse()
            response.read()
            conn.close()
            assert response.status == 404


class TestStdio:
    def test_cli_stdio_session_round_trip(self, tmp_path):
        """repro serve --stdio answers a scripted NDJSON session."""
        script = (
            json.dumps({"op": "hello"})
            + "\n"
            + json.dumps({"op": "stats"})
            + "\n"
            + json.dumps({"op": "bye"})
            + "\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(['serve', '--stdio']))",
            ],
            input=script,
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        events = [json.loads(line) for line in proc.stdout.splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds == ["hello", "stats", "bye"]
        assert events[0]["protocol"] == 1
