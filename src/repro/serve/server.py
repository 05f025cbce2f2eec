"""The ``repro serve`` front-end: many clients, one simulator process.

An asyncio server speaking the NDJSON protocol of
:mod:`repro.serve.protocol` over TCP (and optionally stdio), layered on
the resumable job engine (:func:`repro.jobs.submit_job`). The design in
one breath: admission control in the event loop, simulation on worker
threads, and *all shared state owned by the loop thread*.

* **Exactly-once compute.** Every admitted job atomically claims the
  content keys of all its cells in the :class:`_InFlight` registry; a job
  overlapping a running one waits until the overlap clears. By then the
  first job's results sit in the shared :class:`ResultCache`, so the
  second job's overlap is served as cache hits — two clients sweeping
  overlapping grids concurrently compute each unique cell exactly once.
* **Backpressure.** ``job_slots`` bounds jobs simulating concurrently;
  up to ``max_queue`` more may wait for a slot, beyond which submits are
  rejected with ``queue-full``. Each connection gets a token-bucket rate
  limit (``rate``/``burst`` messages per second) and at most
  ``max_client_jobs`` in-flight jobs (``too-many-jobs``).
* **Incremental streaming.** The engine's ``on_cell`` hook fires for
  every completed cell — journal replays, cache hits, fresh executions —
  and is marshalled from the worker thread into the event loop with
  ``call_soon_threadsafe``, so clients see ``cell`` events the moment
  cells finish, all of them strictly before ``done``. Each cell payload
  is JSON-encoded once: ``done`` repeats every cell, and splices in the
  texts the ``cell`` events carried rather than encoding them again.
* **Cached jobs stay on the loop.** A job that is ephemeral, uses the
  cache, and finds every key in the cache's memory tier simulates
  nothing and touches no file. Its ``submit_job`` call runs on the event
  loop itself (counted in ``jobs_inline``); any other job makes the same
  call on a worker thread.
* **Graceful drain.** SIGTERM/SIGINT (or an explicit ``drain()``) stops
  accepting work: new submits get ``draining``, running jobs finish and
  stream their results, sessions get ``bye``, and shutdown releases the
  idle shared-memory segments and the persistent worker pool.
* **Metrics.** A plain HTTP ``GET /metrics`` on the same port (the
  server sniffs the first line) returns Prometheus-style counters:
  queue depth, cells served, cache hit-rate, simulated events/sec,
  segment-pool occupancy.

With ``workers`` at 1 (the default), a job's uncached cells simulate
in the server process, on the job's worker thread. A larger ``workers``
runs them on the persistent process pool at that width for every job,
so the pool is grown once and never thrashed by interleaved jobs.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Set, Union

from repro import __version__
from repro.jobs import create_job, ephemeral_job, open_job, submit_job
from repro.jobs.manager import cell_from_dict
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    cell_result_to_dict,
    decode,
    dumps,
    encode,
    encode_with,
    render_metrics,
    report_text,
)
from repro.sim.parallel import CellResult, ResultCache, shutdown_worker_pool
from repro.workloads.arena import (
    release_idle_segments,
    segment_pool_stats,
    set_idle_segment_cap,
)

#: Longest NDJSON line either reader accepts (asyncio's default is 64 KiB,
#: about 97 default-config cells). A 16 MiB submit holds ~24k cells; a
#: longer line is answered with ``bad-request`` and its connection closed.
MAX_LINE_BYTES = 16 * 1024 * 1024


@dataclass
class ServeConfig:
    """Knobs for one server instance (all admission-control bounds)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: let the kernel pick (the bound port is reported)
    #: Process-pool width for every job's uncached cells (one fixed size,
    #: no thrash); 1 simulates them in this process, on a worker thread.
    workers: int = 1
    #: Jobs simulating concurrently; more wait for a slot.
    job_slots: int = 2
    #: Jobs allowed to wait for a slot before submits get ``queue-full``.
    max_queue: int = 8
    #: Token-bucket refill in messages/second per connection (0: off).
    rate: float = 50.0
    #: Token-bucket capacity (burst allowance) per connection.
    burst: int = 20
    #: In-flight jobs per connection before ``too-many-jobs``.
    max_client_jobs: int = 4
    #: Idle shared-memory segments kept mapped between jobs.
    idle_segments: int = 4
    use_cache: bool = True
    cache_dir: Optional[Path] = None


@dataclass
class ServeStats:
    """Counters for ``stats``/``/metrics``. Only ever mutated from the
    event-loop thread (cell events are marshalled there), so plain ints
    suffice — no locks."""

    started: float = field(default_factory=time.monotonic)
    clients_connected: int = 0
    clients_total: int = 0
    jobs_running: int = 0
    jobs_queued: int = 0
    jobs_accepted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_rejected: int = 0
    #: Jobs answered on the event loop, without a worker thread.
    jobs_inline: int = 0
    rate_limited: int = 0
    cells_served: int = 0
    cells_from_cache: int = 0
    heap_events: int = 0
    sim_seconds: float = 0.0

    def note_cell(self, cell_result: CellResult) -> None:
        self.cells_served += 1
        if cell_result.from_cache:
            self.cells_from_cache += 1
        else:
            self.heap_events += cell_result.heap_events
            self.sim_seconds += cell_result.wall_seconds

    def snapshot(self) -> Dict:
        served = self.cells_served
        pool = segment_pool_stats()
        return {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "clients_connected": self.clients_connected,
            "clients_total": self.clients_total,
            "jobs_running": self.jobs_running,
            "jobs_queued": self.jobs_queued,
            "jobs_accepted": self.jobs_accepted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "jobs_rejected": self.jobs_rejected,
            "jobs_inline": self.jobs_inline,
            "rate_limited": self.rate_limited,
            "cells_served": served,
            "cells_from_cache": self.cells_from_cache,
            "cells_executed": served - self.cells_from_cache,
            "cache_hit_rate": (
                self.cells_from_cache / served if served else 0.0
            ),
            "heap_events": self.heap_events,
            "events_per_sec": (
                self.heap_events / self.sim_seconds
                if self.sim_seconds > 0
                else 0.0
            ),
            "segments_pooled": pool["pooled"],
            "segments_active": pool["active"],
            "segments_idle": pool["idle"],
        }


class _InFlight:
    """Cell content keys currently being computed by some admitted job.

    ``claim`` is atomic over a whole job's key set: it waits until *none*
    of the keys are held, then takes them all. Overlapping jobs therefore
    serialize (the later one finds the overlap already cached); disjoint
    jobs run concurrently.
    """

    def __init__(self) -> None:
        self._keys: Set[str] = set()
        self._cond = asyncio.Condition()

    async def claim(self, keys: Set[str]) -> None:
        async with self._cond:
            await self._cond.wait_for(lambda: self._keys.isdisjoint(keys))
            self._keys.update(keys)

    async def release(self, keys: Set[str]) -> None:
        async with self._cond:
            self._keys.difference_update(keys)
            self._cond.notify_all()


class _TokenBucket:
    """Per-connection message rate limit (``rate``/s refill, ``burst``
    capacity). ``rate <= 0`` disables limiting."""

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self.tokens = float(self.burst)
        self.stamp = time.monotonic()

    def allow(self) -> bool:
        if self.rate <= 0:
            return True
        now = time.monotonic()
        self.tokens = min(
            float(self.burst), self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


async def _readline(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next line; ``b""`` at end of input or on a dropped connection;
    ``None`` for a line longer than ``MAX_LINE_BYTES``. The rest of an
    over-long line is still on the wire, so the caller answers it and
    closes the connection rather than resynchronizing. Its first bytes
    stay in ``reader``'s buffer."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:  # end of input mid-line
        return exc.partial
    except asyncio.LimitOverrunError:
        return None
    except (ConnectionError, OSError):
        return b""


def _too_long() -> Dict:
    """The NDJSON answer to a message line over ``MAX_LINE_BYTES``."""
    return {
        "event": "error",
        "code": "bad-request",
        "error": (
            f"message line exceeds {MAX_LINE_BYTES} bytes; "
            "closing the connection"
        ),
    }


def _is_http(line: bytes) -> bool:
    """Whether ``line`` starts an HTTP request rather than NDJSON."""
    return line.split(b" ", 1)[0] in (b"GET", b"HEAD")


async def _http_reply(writer, status: str, body: str, head: bool) -> None:
    """One HTTP/1.0 response; a client already gone is not an error."""
    payload = body.encode("utf-8")
    writer.write(
        (
            f"HTTP/1.0 {status}\r\n"
            "Content-Type: text/plain; version=0.0.4\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
    )
    if not head:
        writer.write(payload)
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        pass


class ServeServer:
    """One serving process: TCP listener + admission control + job runner."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self.cache = ResultCache(
            self.config.cache_dir,
            persist=None if self.config.use_cache else False,
        )
        self._inflight = _InFlight()
        self._slots = asyncio.Semaphore(max(1, self.config.job_slots))
        self._draining = False
        self._drained = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._sessions: Set[asyncio.Task] = set()
        self._jobs: Set[asyncio.Task] = set()
        self._prev_idle_cap: Optional[int] = None
        self.port: int = self.config.port

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "ServeServer":
        self._prev_idle_cap = set_idle_segment_cap(
            max(0, self.config.idle_segments)
        )
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain. No-op off the main thread
        (the test ``ServerThread``) or on loops without signal support."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain())
                )
            except (NotImplementedError, ValueError, RuntimeError):
                return

    async def drain(self) -> None:
        """Stop accepting, let running jobs finish, say bye, release."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._jobs:
            await asyncio.gather(*self._jobs, return_exceptions=True)
        for task in list(self._sessions):
            task.cancel()
        if self._sessions:
            await asyncio.gather(*self._sessions, return_exceptions=True)
        self._drained.set()

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def shutdown(self) -> None:
        """Post-drain cleanup: idle segments, pool, listener socket."""
        await self.drain()
        if self._server is not None:
            await self._server.wait_closed()
        release_idle_segments()
        if self._prev_idle_cap is not None:
            set_idle_segment_cap(self._prev_idle_cap)
            self._prev_idle_cap = None
        await asyncio.to_thread(shutdown_worker_pool)

    # -- connection handling --------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._sessions.add(task)
        try:
            first = await _readline(reader)
            if first is None:
                await self._first_line_too_long(reader, writer)
                return
            if not first:
                return
            if _is_http(first):
                await self._serve_http(first, reader, writer)
                return
            await self._session(first, reader, writer)
        except asyncio.CancelledError:
            # Drain cancelled the session: part politely.
            await self._safe_send(writer, {"event": "bye", "reason": "drain"})
        finally:
            if task is not None:
                self._sessions.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _first_line_too_long(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer a first line over ``MAX_LINE_BYTES``: ``414`` for an HTTP
        request line, else the NDJSON ``bad-request``. The line's first
        bytes, still buffered, tell the two apart."""
        try:
            head = await reader.read(len(b"HEAD "))
        except (ConnectionError, OSError):
            return
        if _is_http(head):
            await _http_reply(
                writer,
                "414 URI Too Long",
                f"request line exceeds {MAX_LINE_BYTES} bytes\n",
                head.startswith(b"HEAD"),
            )
        else:
            await self._safe_send(writer, _too_long())

    async def _safe_send(
        self, writer: asyncio.StreamWriter, message: Union[Dict, bytes]
    ) -> None:
        """Write one message, or one line :func:`encode` already made. A
        client already gone is not an error, and gets no more writes."""
        if writer.is_closing():
            return
        try:
            writer.write(
                message if isinstance(message, bytes) else encode(message)
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP/1.0 responder for ``GET /metrics`` (and friends),
        sharing the NDJSON port — the first line tells them apart.

        Header lines are read under the NDJSON reader's limit: a line over
        ``MAX_LINE_BYTES`` is answered ``431`` and the connection closed; a
        client that drops mid-headers ends its connection quietly."""
        head = first.startswith(b"HEAD")
        while True:  # drain request headers
            try:
                line = await reader.readline()
            except (ConnectionError, OSError):
                return
            except ValueError:  # readline's form of LimitOverrunError
                await _http_reply(
                    writer,
                    "431 Request Header Fields Too Large",
                    f"header line exceeds {MAX_LINE_BYTES} bytes\n",
                    head,
                )
                return
            if not line or line in (b"\r\n", b"\n"):
                break
        parts = first.decode("latin-1").split()
        path = parts[1] if len(parts) > 1 else "/"
        if path in ("/metrics", "/", "/stats"):
            await _http_reply(
                writer, "200 OK", render_metrics(self.stats.snapshot()), head
            )
        else:
            await _http_reply(writer, "404 Not Found", "not found\n", head)

    async def _session(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.stats.clients_connected += 1
        self.stats.clients_total += 1
        bucket = _TokenBucket(self.config.rate, self.config.burst)
        send_lock = asyncio.Lock()
        client_jobs = {"count": 0}

        async def send(message: Union[Dict, bytes]) -> None:
            async with send_lock:
                await self._safe_send(writer, message)

        try:
            line: Optional[bytes] = first
            while line:
                done = await self._dispatch(line, send, bucket, client_jobs)
                if done:
                    break
                line = await _readline(reader)
            if line is None:
                await send(_too_long())
            # Let this connection's in-flight jobs finish streaming
            # before the connection closes under them.
            while client_jobs["count"] > 0:
                await asyncio.sleep(0.02)
        finally:
            self.stats.clients_connected -= 1

    async def _dispatch(
        self,
        line: bytes,
        send,
        bucket: _TokenBucket,
        client_jobs: Dict[str, int],
    ) -> bool:
        """Handle one message; returns True when the session should end."""
        if not line.strip():
            return False
        try:
            message = decode(line)
        except ValueError as exc:
            await send(
                {"event": "error", "code": "bad-request", "error": str(exc)}
            )
            return False
        op = message.get("op")
        req_id = message.get("id")

        def tag(payload: Dict) -> Dict:
            if req_id is not None:
                payload["id"] = req_id
            return payload

        if not bucket.allow():
            self.stats.rate_limited += 1
            await send(
                tag(
                    {
                        "event": "error",
                        "code": "rate-limited",
                        "error": (
                            f"client exceeded {self.config.rate:g} "
                            "messages/sec; slow down and retry"
                        ),
                    }
                )
            )
            return False

        if op == "hello":
            await send(
                tag(
                    {
                        "event": "hello",
                        "protocol": PROTOCOL_VERSION,
                        "version": __version__,
                        "workers": self.config.workers,
                        "job_slots": self.config.job_slots,
                    }
                )
            )
        elif op == "ping":
            await send(tag({"event": "pong"}))
        elif op == "stats":
            await send(tag({"event": "stats", "stats": self.stats.snapshot()}))
        elif op in ("submit", "resume"):
            await self._admit_job(message, send, tag, client_jobs)
        elif op == "bye":
            await send(tag({"event": "bye"}))
            return True
        else:
            await send(
                tag(
                    {
                        "event": "error",
                        "code": "bad-request",
                        "error": f"unknown op {op!r}",
                    }
                )
            )
        return False

    # -- job admission + execution --------------------------------------
    async def _admit_job(
        self, message: Dict, send, tag, client_jobs: Dict[str, int]
    ) -> None:
        if self._draining:
            self.stats.jobs_rejected += 1
            await send(
                tag(
                    {
                        "event": "error",
                        "code": "draining",
                        "error": "server is draining; not accepting jobs",
                    }
                )
            )
            return
        if client_jobs["count"] >= self.config.max_client_jobs:
            self.stats.jobs_rejected += 1
            await send(
                tag(
                    {
                        "event": "error",
                        "code": "too-many-jobs",
                        "error": (
                            f"connection already has {client_jobs['count']} "
                            "jobs in flight"
                        ),
                    }
                )
            )
            return
        if self.stats.jobs_queued >= self.config.max_queue:
            self.stats.jobs_rejected += 1
            await send(
                tag(
                    {
                        "event": "error",
                        "code": "queue-full",
                        "error": (
                            f"{self.stats.jobs_queued} jobs already waiting "
                            f"(max_queue={self.config.max_queue})"
                        ),
                    }
                )
            )
            return

        try:
            job = self._build_job(message)
        except (KeyError, TypeError, ValueError) as exc:
            self.stats.jobs_rejected += 1
            await send(
                tag(
                    {
                        "event": "error",
                        "code": "bad-request",
                        "error": f"cannot build job: {exc}",
                    }
                )
            )
            return

        self.stats.jobs_accepted += 1
        self.stats.jobs_queued += 1
        client_jobs["count"] += 1
        use_cache = bool(message.get("use_cache", True)) and (
            self.config.use_cache
        )
        task = asyncio.create_task(
            self._run_job(job, use_cache, send, tag, client_jobs)
        )
        self._jobs.add(task)
        task.add_done_callback(self._jobs.discard)

    def _build_job(self, message: Dict):
        if message.get("op") == "resume":
            ref = message.get("ref")
            if not isinstance(ref, str) or not ref:
                raise ValueError("resume needs a job 'ref' (name or id)")
            return open_job(ref, cache_dir=self.config.cache_dir)
        raw_cells = message.get("cells")
        if not isinstance(raw_cells, list) or not raw_cells:
            raise ValueError("submit needs a non-empty 'cells' list")
        cells = [cell_from_dict(data) for data in raw_cells]
        name = message.get("name") or ""
        if name:
            return create_job(name, cells, cache_dir=self.config.cache_dir)
        return ephemeral_job(cells)

    def _answers_inline(self, job, use_cache: bool, keys: Set[str]) -> bool:
        """Whether ``job`` needs nothing but the cache's memory tier: an
        ephemeral job (no journal, no run lock) whose every key is there.
        Its ``submit_job`` simulates nothing and touches no file, so it
        runs on the event loop; a worker thread and the crossings back
        would cost more than the job."""
        return (
            job.directory is None
            and use_cache
            and all(self.cache.in_memory(key) for key in keys)
        )

    async def _run_job(
        self, job, use_cache: bool, send, tag, client_jobs: Dict[str, int]
    ) -> None:
        job_id = job.job_id
        keys = {cell.key() for cell in job.cells}
        queued = True  # jobs_queued was incremented at admission
        try:
            async with self._slots:
                await self._inflight.claim(keys)
                self.stats.jobs_queued -= 1
                queued = False
                self.stats.jobs_running += 1
                try:
                    await send(
                        tag(
                            {
                                "event": "ack",
                                "job_id": job_id,
                                "name": job.name,
                                "total_cells": len(job.cells),
                                "journaled_cells": job.completed_cells(),
                            }
                        )
                    )
                    run = functools.partial(
                        submit_job,
                        job,
                        max_workers=self.config.workers,
                        cache=self.cache,
                        use_cache=use_cache,
                    )
                    # Each cell's payload text, by CellResult identity: the
                    # report holds the very objects that were streamed, so
                    # `done` splices these texts in, encoding no cell twice.
                    texts: Dict[int, str] = {}

                    async def stream(cell_result: CellResult) -> None:
                        texts[id(cell_result)] = await self._send_cell(
                            send, tag, job_id, cell_result
                        )

                    if self._answers_inline(job, use_cache, keys):
                        self.stats.jobs_inline += 1
                        answered = []
                        report = run(on_cell=answered.append)
                        for cell_result in answered:
                            await stream(cell_result)
                    else:
                        report = await self._run_on_thread(run, stream)
                    self.stats.jobs_completed += 1
                    await send(
                        encode_with(
                            tag({"event": "done", "job_id": job_id}),
                            "report",
                            report_text(
                                report, (texts[id(c)] for c in report.cells)
                            ),
                        )
                    )
                except Exception as exc:
                    self.stats.jobs_failed += 1
                    await send(
                        tag(
                            {
                                "event": "error",
                                "code": "job-failed",
                                "job_id": job_id,
                                "error": f"{type(exc).__name__}: {exc}",
                            }
                        )
                    )
                finally:
                    self.stats.jobs_running -= 1
                    await self._inflight.release(keys)
        finally:
            if queued:
                self.stats.jobs_queued -= 1
            client_jobs["count"] -= 1

    @staticmethod
    async def _run_on_thread(run, stream):
        """``run(on_cell=...)`` on a worker thread, streaming every cell
        the moment it lands; returns the report (or raises its failure)."""
        loop = asyncio.get_running_loop()
        cell_queue: asyncio.Queue = asyncio.Queue()

        def on_cell(cell_result: CellResult) -> None:
            loop.call_soon_threadsafe(cell_queue.put_nowait, cell_result)

        worker = asyncio.ensure_future(asyncio.to_thread(run, on_cell=on_cell))
        # call_soon_threadsafe is FIFO per thread, so every cell callback
        # scheduled by the worker runs before its completion wakes us — by
        # the time `worker` is done the queue holds every remaining cell,
        # drained below before the caller sends `done`.
        while True:
            getter = asyncio.ensure_future(cell_queue.get())
            await asyncio.wait(
                {getter, worker}, return_when=asyncio.FIRST_COMPLETED
            )
            if getter.done():
                await stream(getter.result())
                continue
            getter.cancel()
            while not cell_queue.empty():
                await stream(cell_queue.get_nowait())
            break
        return await worker

    async def _send_cell(
        self, send, tag, job_id: str, cell_result: CellResult
    ) -> str:
        """Stream one ``cell`` event; returns the payload's JSON text."""
        self.stats.note_cell(cell_result)
        text = dumps(cell_result_to_dict(cell_result))
        await send(
            encode_with(tag({"event": "cell", "job_id": job_id}), "data", text)
        )
        return text


# ----------------------------------------------------------------------
# Entrypoints: blocking TCP run, stdio session, background test thread
# ----------------------------------------------------------------------
async def run_server(
    config: Optional[ServeConfig] = None,
    port_file: Optional[Path] = None,
    log=print,
) -> int:
    """Start a TCP server and block until it is drained (SIGTERM/SIGINT)."""
    server = ServeServer(config)
    await server.start()
    server.install_signal_handlers()
    if port_file is not None:
        Path(port_file).write_text(f"{server.port}\n")
    if log is not None:
        log(
            f"repro serve listening on {server.config.host}:{server.port} "
            f"(workers={server.config.workers}, "
            f"job_slots={server.config.job_slots})",
        )
    await server.wait_drained()
    await server.shutdown()
    if log is not None:
        log("repro serve drained cleanly")
    return 0


async def run_stdio(config: Optional[ServeConfig] = None) -> int:
    """One NDJSON session over stdin/stdout (no sockets, no signals)."""
    server = ServeServer(config)
    server._prev_idle_cap = set_idle_segment_cap(
        max(0, server.config.idle_segments)
    )
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    transport, proto = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout
    )
    writer = asyncio.StreamWriter(transport, proto, reader, loop)
    try:
        first = await _readline(reader)
        if first is None:
            await server._safe_send(writer, _too_long())
        elif first:
            await server._session(first, reader, writer)
    finally:
        await server.shutdown()
    return 0


class ServerThread:
    """A ServeServer on a daemon thread — the test/embedding harness.

    ``start()`` blocks until the port is bound; ``stop()`` requests a
    drain and joins. All asyncio state lives on the background thread's
    loop; the owning thread only reads ``port`` and ``server.stats``
    after ``stop()``.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.server = ServeServer(config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )

    @property
    def port(self) -> int:
        return self.server.port

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.wait_drained()
        await self.server.shutdown()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread did not come up in 30s")
        if self._error is not None:
            raise RuntimeError(f"serve thread failed: {self._error!r}")
        return self

    def request_drain(self) -> None:
        """Begin a graceful drain without waiting (SIGTERM equivalent)."""
        assert self._loop is not None
        asyncio.run_coroutine_threadsafe(self.server.drain(), self._loop)

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(), self._loop
            )
            future.result(timeout=timeout)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - hang diagnostics
            raise RuntimeError("serve thread did not exit after drain")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
