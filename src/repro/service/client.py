"""Blocking client for the scheduling service.

:class:`ServiceClient` is what benchmarks and interactive callers use
from ordinary synchronous code.  The shape follows the
background-queue idiom of production ingest clients: callers never
touch the socket — :meth:`submit_schedule` registers a
:class:`ServiceFuture`, enqueues the request on a background sender
thread, and returns immediately.  A bounded in-flight window (a
semaphore sized ``max_in_flight``) provides backpressure: submissions
beyond the window block until earlier requests resolve, which also
caps how large a wave the server is asked to absorb from one client.

Reliability lives in two places:

* the receiver thread owns the connection — on EOF or a socket error
  it reconnects with exponential backoff and *resends every pending
  request* (requests are idempotent: scheduling is deterministic, and
  duplicate responses for an already-resolved id are dropped);
* :meth:`ServiceFuture.result` retries: a request unanswered after
  ``request_timeout`` seconds is resent (with backoff) up to
  ``max_retries`` times before raising
  :class:`~repro.errors.ServiceTimeoutError`.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from typing import Any, Iterable

from repro.campaign.protocol import read_frame, write_frame, write_handshake
from repro.errors import ServiceError, ServiceTimeoutError
from repro.lattice.array import AtomArray
from repro.service.cache import SchedulerKey

_CLOSE = object()


class ServiceFuture:
    """The eventual response to one submitted request."""

    def __init__(self, client: "ServiceClient", op: str, request_id: int, payload):
        self._client = client
        self.op = op
        self.request_id = request_id
        self.payload = payload
        self._event = threading.Event()
        self._status: str | None = None
        self._value: Any = None

    def done(self) -> bool:
        return self._event.is_set()

    def _finish(self, status: str, value: Any) -> None:
        self._status = status
        self._value = value
        self._event.set()

    def result(self, timeout: float | None = None) -> Any:
        """Block for the response (the client's retry loop applies).

        ``timeout`` overrides the client's per-attempt ``request_timeout``
        for this wait; retries and backoff still apply.
        """
        self._client._wait(self, timeout)
        if self._status == "ok":
            return self._value
        if isinstance(self._value, Exception):
            raise self._value
        raise ServiceError(str(self._value))


class ServiceClient:
    """Background-queue client speaking pickle frames to the service.

    Parameters
    ----------
    address:
        ``(host, port)`` of a running :class:`~repro.service.server.
        SchedulingService`.
    max_in_flight:
        Bound on unresolved requests; further submissions block.  Keep
        it at or above the server's ``max_batch_size`` when the goal is
        full batching from a single client.
    request_timeout:
        Seconds to wait for a response before resending the request.
    max_retries:
        Resend attempts before a wait raises
        :class:`~repro.errors.ServiceTimeoutError`.
    backoff_base:
        First retry/reconnect delay; doubles per attempt.
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        max_in_flight: int = 32,
        request_timeout: float = 30.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
    ):
        if max_in_flight < 1:
            raise ServiceError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.address = tuple(address)
        self.max_in_flight = max_in_flight
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._ids = itertools.count()
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._pending: dict[int, ServiceFuture] = {}
        self._pending_lock = threading.Lock()
        self._sendq: queue.SimpleQueue = queue.SimpleQueue()
        self._conn_lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._rfile = None
        self._wfile = None
        self._closing = False
        self._connect()
        self._sender = threading.Thread(
            target=self._send_loop, name="repro-service-send", daemon=True
        )
        self._receiver = threading.Thread(
            target=self._receive_loop, name="repro-service-recv", daemon=True
        )
        self._sender.start()
        self._receiver.start()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        self._sendq.put(_CLOSE)
        self._sender.join(timeout=5)
        with self._conn_lock:
            self._teardown()
        self._receiver.join(timeout=5)
        self._fail_pending(ServiceError("client closed with requests in flight"))

    # -- public API --------------------------------------------------------

    def submit_schedule(
        self, key: SchedulerKey, array: AtomArray
    ) -> ServiceFuture:
        """Submit one occupancy frame; returns immediately.

        Blocks only when the in-flight window is full (backpressure).
        """
        payload = key.to_payload()
        payload["grid"] = array.grid
        return self._submit("schedule", payload)

    def schedule(self, key: SchedulerKey, array: AtomArray):
        """Submit and block for the schedule (single-request callers)."""
        return self.submit_schedule(key, array).result()

    def schedule_many(
        self, key: SchedulerKey, arrays: Iterable[AtomArray]
    ) -> list:
        """Submit a stack concurrently and collect results in order.

        All requests enter the service together (window permitting), so
        the server's micro-batcher can coalesce them into one wave.
        """
        futures = [self.submit_schedule(key, array) for array in arrays]
        return [future.result() for future in futures]

    def stats(self) -> dict:
        """The server's wave/cache counters (see the server docstring)."""
        return self._submit("stats", None).result()

    def ping(self) -> bool:
        return self._submit("ping", None).result() == "pong"

    # -- internals ---------------------------------------------------------

    def _submit(self, op: str, payload: Any) -> ServiceFuture:
        if self._closing:
            raise ServiceError("client is closed")
        self._slots.acquire()
        request_id = next(self._ids)
        future = ServiceFuture(self, op, request_id, payload)
        with self._pending_lock:
            self._pending[request_id] = future
        self._sendq.put(future)
        return future

    def _wait(self, future: ServiceFuture, timeout: float | None = None) -> None:
        per_attempt = self.request_timeout if timeout is None else timeout
        attempt = 0
        while not future._event.wait(per_attempt):
            attempt += 1
            if attempt > self.max_retries:
                with self._pending_lock:
                    self._pending.pop(future.request_id, None)
                self._release(future)
                future._finish(
                    "error",
                    ServiceTimeoutError(
                        f"request {future.request_id} ({future.op}) got no "
                        f"response within {per_attempt}s after "
                        f"{self.max_retries} retries"
                    ),
                )
                return
            time.sleep(self.backoff_base * 2 ** (attempt - 1))
            if not future.done():
                self._sendq.put(future)  # resend; duplicates are dropped

    def _resolve(self, request_id: int, status: str, value: Any) -> None:
        with self._pending_lock:
            future = self._pending.pop(request_id, None)
        if future is None:
            return  # duplicate response after a retry — already resolved
        if status == "error" and not isinstance(value, Exception):
            value = ServiceError(str(value))
        future._finish(status, value)
        self._release(future)

    def _release(self, future: ServiceFuture) -> None:
        try:
            self._slots.release()
        except ValueError:
            pass  # already released for this future

    def _fail_pending(self, error: Exception) -> None:
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            future._finish("error", error)
            self._release(future)

    # -- connection management (receiver thread owns reconnection) ---------

    def _connect(self) -> None:
        attempt = 0
        while True:
            try:
                sock = socket.create_connection(self.address, timeout=10.0)
                break
            except OSError as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise ServiceError(
                        f"cannot reach scheduling service at "
                        f"{self.address[0]}:{self.address[1]}: {exc}"
                    ) from exc
                time.sleep(self.backoff_base * 2 ** (attempt - 1))
        sock.settimeout(None)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        write_handshake(self._wfile, {"client": "repro", "proto": "schedule"})

    def _teardown(self) -> None:
        # Shut the socket down first: a receiver thread blocked inside
        # recv() holds the BufferedReader lock, and file.close() would
        # wait on that lock forever.  shutdown() makes the blocked read
        # return EOF immediately, releasing the lock.
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for closable in (self._wfile, self._rfile, self._sock):
            if closable is not None:
                try:
                    closable.close()
                except (OSError, ValueError):
                    pass
        self._sock = self._rfile = self._wfile = None

    def _reconnect_and_resend(self) -> None:
        with self._conn_lock:
            self._teardown()
            self._connect()
        with self._pending_lock:
            unanswered = list(self._pending.values())
        for future in unanswered:
            self._sendq.put(future)

    def _send_loop(self) -> None:
        while True:
            unit = self._sendq.get()
            if unit is _CLOSE:
                return
            if unit.done():
                continue  # resolved between retry-enqueue and now
            try:
                with self._conn_lock:
                    if self._wfile is None:
                        raise OSError("not connected")
                    write_frame(
                        self._wfile, (unit.op, unit.request_id, unit.payload)
                    )
            except (OSError, ValueError):
                # The connection died mid-send.  The receiver notices the
                # same failure, reconnects, and resends every pending
                # request — this one included — so dropping here is safe.
                if self._closing:
                    return
                time.sleep(self.backoff_base)

    def _receive_loop(self) -> None:
        while not self._closing:
            try:
                with self._conn_lock:
                    rfile = self._rfile
                frame = read_frame(rfile) if rfile is not None else None
            except Exception:
                frame = None
            if frame is None:
                if self._closing:
                    return
                try:
                    self._reconnect_and_resend()
                except Exception as exc:
                    self._fail_pending(
                        exc
                        if isinstance(exc, ServiceError)
                        else ServiceError(f"connection lost: {exc}")
                    )
                    return
                continue
            try:
                status, request_id, value = frame
            except (TypeError, ValueError):
                continue  # not a response frame; ignore
            if request_id is None:
                continue  # connection-level error notice, no owner
            self._resolve(request_id, status, value)

