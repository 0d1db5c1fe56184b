"""The asyncio scheduling server and its micro-batching dispatcher.

:class:`SchedulingService` accepts TCP connections and sniffs the first
byte of each: the protocol magic selects length-prefixed pickle frames
(Python clients, :mod:`repro.service.client`), an opening ``{`` selects
the newline-delimited JSON front door (everything else).  Either way a
schedule request carries a scheduler identity
(:class:`~repro.service.cache.SchedulerKey`) plus one occupancy grid,
and lands on one shared queue.

The dispatcher is where the performance story lives.  It sleeps until a
request arrives, then holds the wave open for ``batch_window`` seconds
(or until ``max_batch_size`` requests are in hand) so concurrently
submitted frames pile into the same wave; the wave is grouped by
scheduler key and each group goes through one
:func:`repro.baselines.base.schedule_batch` call — the cross-trial
batched engine for QRM, a loop for everything else.  Scheduling then
runs *inline on the event loop*: while NumPy crunches a wave, newly
arriving requests buffer in the kernel socket buffers and flood the
queue the moment the loop yields, forming the next wave naturally —
adaptive batching without timers under load.  Batching off is just
``max_batch_size=1``.

Schedulers come from the warm :class:`~repro.service.cache.
SchedulerCache`, so the hot geometries keep their ``QuadrantFrame``
coefficients and scan limits across waves.

A native batch call that raises falls back to scheduling the group's
arrays one by one, so only the offending request gets an error frame —
sibling requests in the wave are isolated from each other's failures.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError, ReproError, format_error
from repro.lattice.array import AtomArray
from repro.service.cache import SchedulerCache, SchedulerKey
from repro.service.wire import (
    MAX_JSON_LINE,
    decode_json_request,
    encode_json_error,
    encode_json_response,
    encode_json_value,
    read_frame_async,
    read_handshake_async,
    write_frame_async,
)

_SHUTDOWN = object()


@dataclass
class _Connection:
    """Per-connection state shared by the reader and the dispatcher."""

    writer: asyncio.StreamWriter
    json_mode: bool = False
    # Reader (malformed-request errors) and dispatcher (results) both
    # write; the lock keeps their frames from interleaving.
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    async def send_ok(self, request_id: Any, result: Any) -> None:
        async with self.write_lock:
            if self.json_mode:
                self.writer.write(encode_json_response(request_id, result))
                await self.writer.drain()
            else:
                await write_frame_async(self.writer, ("ok", request_id, result))

    async def send_value(self, request_id: Any, value: Any) -> None:
        async with self.write_lock:
            if self.json_mode:
                self.writer.write(encode_json_value(request_id, value))
                await self.writer.drain()
            else:
                await write_frame_async(self.writer, ("ok", request_id, value))

    async def send_error(self, request_id: Any, message: str) -> None:
        async with self.write_lock:
            if self.json_mode:
                self.writer.write(encode_json_error(request_id, message))
                await self.writer.drain()
            else:
                await write_frame_async(
                    self.writer, ("error", request_id, message)
                )


@dataclass
class _PendingRequest:
    """One schedule request waiting for (or riding in) a wave."""

    connection: _Connection
    request_id: Any
    key: SchedulerKey
    array: AtomArray


class SchedulingService:
    """Batched rearrangement scheduling over TCP.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks a free port (read ``address`` after
        :meth:`start`).
    batch_window:
        Seconds the dispatcher holds a wave open after its first
        request, letting concurrent submissions pile in.  0 disables
        the timer (the wave is whatever is already queued).
    max_batch_size:
        Hard cap on requests per ``schedule_batch`` call; 1 disables
        batching entirely (every request schedules alone — the
        benchmark's "batching off" configuration).
    cache_size:
        Capacity of the warm per-geometry scheduler LRU.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_window: float = 0.002,
        max_batch_size: int = 32,
        cache_size: int = 8,
    ):
        if not 0 <= port <= 65535:
            raise ConfigurationError(
                f"port must be in 0..65535 (0 picks a free port), got {port}"
            )
        if batch_window < 0:
            raise ConfigurationError(
                f"batch_window must be >= 0, got {batch_window}"
            )
        if max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self.host = host
        self.port = port
        self.batch_window = batch_window
        self.max_batch_size = max_batch_size
        self.cache = SchedulerCache(cache_size)
        self._server: asyncio.base_events.Server | None = None
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._readers: set[asyncio.Task] = set()
        # Wave accounting for the latency benchmark and the tests:
        # how often batching actually coalesced concurrent requests.
        self.stats: dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "waves": 0,
            "batched_requests": 0,
            "max_wave": 0,
            "native_batch_calls": 0,
            "fallback_calls": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> None:
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_JSON_LINE
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._readers):
            task.cancel()
        if self._readers:
            await asyncio.gather(*self._readers, return_exceptions=True)
        if self._dispatcher is not None:
            assert self._queue is not None
            await self._queue.put(_SHUTDOWN)
            await self._dispatcher
            self._dispatcher = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    def snapshot_stats(self) -> dict[str, Any]:
        return {**self.stats, "cache": self.cache.stats()}

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._readers.add(task)
        connection = _Connection(writer=writer)
        try:
            first = await reader.read(1)
            if not first:
                return
            if first == b"{":
                connection.json_mode = True
                await self._serve_json(reader, connection, first)
            else:
                await read_handshake_async(reader, first)
                await self._serve_frames(reader, connection)
        except (asyncio.CancelledError, ConnectionResetError, EOFError):
            pass
        except ConfigurationError as exc:
            # A garbage handshake or malformed stream: one clear error
            # frame (best effort — the peer may not even speak frames).
            try:
                await connection.send_error(None, str(exc))
            except (ConnectionResetError, OSError):
                pass
        finally:
            self._readers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _serve_frames(
        self, reader: asyncio.StreamReader, connection: _Connection
    ) -> None:
        assert self._queue is not None
        while True:
            frame = await read_frame_async(reader)
            if frame is None:
                return
            try:
                op, request_id, payload = frame
            except (TypeError, ValueError):
                await connection.send_error(None, f"malformed request: {frame!r}")
                self.stats["errors"] += 1
                continue
            await self._enqueue(connection, op, request_id, payload)

    async def _serve_json(
        self,
        reader: asyncio.StreamReader,
        connection: _Connection,
        first: bytes,
    ) -> None:
        line = await _read_json_line(reader)
        if line is not None:
            line = first + line
        while line is None or line.strip():
            request_id = None
            try:
                if line is None or len(line) > MAX_JSON_LINE:
                    raise ConfigurationError(
                        f"JSON request exceeds {MAX_JSON_LINE} bytes"
                    )
                request = decode_json_request(line)
                request_id = request.get("id")
                await self._enqueue(
                    connection, request["op"], request_id, request
                )
            except (ConfigurationError, ReproError) as exc:
                request_id = getattr(exc, "request_id", request_id)
                await connection.send_error(request_id, str(exc))
                self.stats["errors"] += 1
            line = await _read_json_line(reader)

    async def _enqueue(
        self, connection: _Connection, op: str, request_id: Any, payload: Any
    ) -> None:
        assert self._queue is not None
        if op == "ping":
            await connection.send_value(request_id, "pong")
            return
        if op == "stats":
            await connection.send_value(request_id, self.snapshot_stats())
            return
        if op != "schedule":
            await connection.send_error(request_id, f"unknown op {op!r}")
            self.stats["errors"] += 1
            return
        try:
            key = SchedulerKey.from_payload(payload)
            array = AtomArray(key.to_geometry(), payload["grid"])
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            await connection.send_error(
                request_id, f"{type(exc).__name__}: {exc}"
            )
            self.stats["errors"] += 1
            return
        self.stats["requests"] += 1
        await self._queue.put(
            _PendingRequest(
                connection=connection,
                request_id=request_id,
                key=key,
                array=array,
            )
        )

    # -- the micro-batching dispatcher --------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                return
            wave = [item]
            if self.max_batch_size > 1 and self.batch_window > 0:
                deadline = loop.time() + self.batch_window
                while len(wave) < self.max_batch_size:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    if item is _SHUTDOWN:
                        stopping = True
                        break
                    wave.append(item)
            # Anything already queued rides along for free — the common
            # case under load, where the previous wave's inline compute
            # let a full backlog accumulate.
            while len(wave) < self.max_batch_size:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _SHUTDOWN:
                    stopping = True
                    break
                wave.append(item)
            await self._run_wave(wave)

    async def _run_wave(self, wave: list[_PendingRequest]) -> None:
        self.stats["waves"] += 1
        self.stats["max_wave"] = max(self.stats["max_wave"], len(wave))
        if len(wave) > 1:
            self.stats["batched_requests"] += len(wave)
        groups: dict[SchedulerKey, list[_PendingRequest]] = {}
        for request in wave:
            groups.setdefault(request.key, []).append(request)
        for key, group in groups.items():
            try:
                scheduler = self.cache.get(key)
            except Exception as exc:  # e.g. parameters the factory rejects
                for request in group:
                    self.stats["errors"] += 1
                    await request.connection.send_error(
                        request.request_id, format_error(exc)
                    )
                continue
            for start in range(0, len(group), self.max_batch_size):
                chunk = group[start : start + self.max_batch_size]
                await self._run_chunk(scheduler, chunk)

    async def _run_chunk(
        self, scheduler: Any, chunk: list[_PendingRequest]
    ) -> None:
        from repro.baselines.base import schedule_batch

        arrays = [request.array for request in chunk]
        try:
            results = schedule_batch(scheduler, arrays)
            self.stats["native_batch_calls"] += 1
        except Exception:
            # Sibling isolation: redo the chunk one array at a time so
            # only the request that actually fails gets the error.
            self.stats["fallback_calls"] += 1
            results = []
            for request in chunk:
                try:
                    results.append(scheduler.schedule(request.array))
                except Exception as exc:
                    results.append(exc)
        for request, result in zip(chunk, results):
            if isinstance(result, Exception):
                self.stats["errors"] += 1
                # Mirror the worker protocol: the message carries a
                # traceback tail so remote failures stay debuggable.
                await request.connection.send_error(
                    request.request_id, format_error(result)
                )
            else:
                # Pass outcomes are analysis-internal debris (excluded
                # from repr, metrics and the oracle comparisons) but
                # dominate the pickle size — never ship them.
                result.pass_outcomes = []
                await request.connection.send_ok(request.request_id, result)


async def _read_json_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next JSON request line (``b""`` at EOF).

    A line over the reader's limit (:data:`MAX_JSON_LINE`) is read to
    its end and dropped, returning None, so the connection stays in
    step with the client's lines.
    """
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            # The unread line stays buffered; drop what was scanned.
            await reader.readexactly(exc.consumed)
            oversized = True
            continue
        return None if oversized else line


class ServiceThread:
    """A :class:`SchedulingService` on a background thread's event loop.

    The harness both the tests and the synchronous CLI/benchmark paths
    use: enter the context manager, read ``address``, connect clients.
    """

    def __init__(self, **service_kwargs: Any):
        self._service_kwargs = service_kwargs
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.service: SchedulingService | None = None

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        assert self.service is not None, "service not started"
        return self.service.address

    def start(self) -> None:
        if self._thread is not None:
            return  # idempotent: serve_in_thread() already started us
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            stop = self._stop
            self._loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def _run(self) -> None:
        async def main() -> None:
            self.service = SchedulingService(**self._service_kwargs)
            self._stop = asyncio.Event()
            try:
                await self.service.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self._stop.wait()
            await self.service.stop()

        asyncio.run(main())


def serve_in_thread(**service_kwargs: Any) -> ServiceThread:
    """Start a service on a background thread (context-manager friendly)."""
    thread = ServiceThread(**service_kwargs)
    thread.start()
    return thread
