"""Tests for ``repro serve``: concurrency, streaming, backpressure, drain."""

import http.client
import json
import os
import subprocess
import sys
import threading
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
from repro.serve.protocol import encode
from repro.sim import parallel
from repro.sim.config import SystemConfig
from repro.sim.parallel import ResultCache, make_cells, run_sweep
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
        assert "repro_serve_cache_hit_rate" in metrics
        assert "repro_serve_events_per_sec" in metrics
        assert "repro_serve_segments_idle" in metrics

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
