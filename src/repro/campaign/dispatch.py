"""Multi-host trial dispatch behind the executor protocol.

:class:`DistributedExecutor` fans trials out over ``repro worker
--listen`` daemons, one :class:`WorkerSpec` (``host:port``) each.  Its
transport, :class:`TcpWorkerTransport`, holds one TCP connection per
daemon and speaks the magic/version handshake and length-prefixed
pickle frames of :mod:`repro.campaign.protocol`.  A daemon serves one
connection at a time, so every spec is exactly one work channel; local
fan-out is the process pool (``--workers N``), not this fabric.

The executor is a fault-tolerant fabric, not a naive scatter:

* every transport gets a dedicated pump thread plus a receiver thread,
  so a blocked read never wedges dispatch or shutdown;
* while a unit is in flight the pump sends ``("ping", token)`` liveness
  probes every ``ping_interval`` seconds; a worker that produces
  neither results nor pongs for ``ping_timeout`` seconds is declared
  dead.  The worker answers pings from its reader thread even while
  computing, so only a dead or unreachable worker goes silent;
* a dead worker's in-flight unit — and everything still queued — is
  re-dispatched to the surviving workers; the run fails only when no
  workers remain or one unit has killed ``max_attempts`` workers;
* units in flight longer than ``straggler_factor`` × the median
  completed-unit time are speculatively re-dispatched to an idle
  worker, and whichever copy finishes first wins;
* results are yielded at most once per index (a dedup set), so
  re-dispatch and speculation never duplicate a trial.  The engine
  re-keys results by index, which is what keeps campaign aggregates
  byte-identical to serial execution no matter how units were retried.

On a fatal failure (a remote error frame, every worker dead, a unit out
of attempts) the run stops the pumps and drains the work queue before
closing transports, so surviving workers are not fed doomed units.

The executor contract matches :mod:`repro.campaign.executors`: results
are yielded as ``(index, result)`` in completion order.
"""

from __future__ import annotations

import queue
import socket
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, Sequence, TypeVar

from repro.campaign.protocol import (
    function_path,
    parse_hostport,
    read_frame,
    write_frame,
    write_handshake,
)
from repro.errors import ConfigurationError, ExecutionError

T = TypeVar("T")

#: Why ``--executor distributed`` refused its ``--workers``: the two
#: ways forward, local pool or remote daemons.
_ENDPOINTS_NEEDED = (
    "--executor distributed dials running 'repro worker --listen "
    "HOST:PORT' daemons: pass --workers host:port[,host:port...]; for a "
    "local process pool, pass --workers N without --executor distributed"
)


@dataclass(frozen=True)
class WorkerSpec:
    """One ``repro worker --listen`` daemon: a validated ``host:port``."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if not 0 < self.port <= 65535:
            raise ConfigurationError(f"port must be in 1..65535, got {self.port}")

    @classmethod
    def parse(cls, text: str) -> "WorkerSpec":
        """``"host:port"`` → a spec."""
        return cls(*parse_hostport(text))


def parse_workers(value: str | int | None) -> tuple[WorkerSpec, ...]:
    """CLI ``--workers`` for the distributed executor.

    Only ``"host:port[,host:port...]"`` naming running ``repro worker
    --listen`` daemons is accepted; a process count, or no value at all,
    raises :class:`ConfigurationError` naming both ways forward.
    """
    text = "" if value is None else str(value).strip()
    if text.isdigit():
        raise ConfigurationError(
            f"--workers {text} is a process count; {_ENDPOINTS_NEEDED}"
        )
    entries = [entry for entry in text.split(",") if entry.strip()]
    if not entries:
        raise ConfigurationError(_ENDPOINTS_NEEDED)
    return tuple(WorkerSpec.parse(entry) for entry in entries)


class WorkerTransport(Protocol):
    """One bidirectional channel to one worker daemon.

    Lifecycle: ``start(fn_path)`` once, then interleaved
    ``submit``/``ping``/``next_result`` calls, then ``close()``.
    Implementations must tolerate ``close()`` at any point and from any
    thread (used for cancellation — a close must wake a blocked
    ``next_result``), and repeated closes.
    """

    def start(self, fn_path: str) -> None: ...

    def submit(self, index: int, item: Any) -> None: ...

    def ping(self, token: int) -> None: ...

    def next_result(self) -> tuple[str, int, Any]: ...

    def close(self) -> None: ...


class TcpWorkerTransport:
    """TCP transport: one connection to a ``repro worker --listen`` daemon."""

    def __init__(self, spec: WorkerSpec, connect_timeout: float = 10.0) -> None:
        self.spec = spec
        self.connect_timeout = connect_timeout
        self._sock: socket.socket | None = None
        self._rfile: Any = None
        self._wfile: Any = None

    def start(self, fn_path: str) -> None:
        try:
            sock = socket.create_connection(
                (self.spec.host, self.spec.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise ExecutionError(
                f"cannot reach worker {self.spec.host}:{self.spec.port}: {exc}"
            ) from exc
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        write_handshake(self._wfile, {"fn": fn_path})

    def submit(self, index: int, item: Any) -> None:
        assert self._wfile is not None, "transport not started"
        write_frame(self._wfile, (index, item))

    def ping(self, token: int) -> None:
        assert self._wfile is not None, "transport not started"
        write_frame(self._wfile, ("ping", token))

    def next_result(self) -> tuple[str, int, Any]:
        assert self._rfile is not None, "transport not started"
        frame = read_frame(self._rfile)
        if frame is None:
            raise ExecutionError(
                f"worker {self.spec.host}:{self.spec.port} closed the connection"
            )
        return frame

    def close(self) -> None:
        sock, self._sock = self._sock, None
        rfile, self._rfile = self._rfile, None
        wfile, self._wfile = self._wfile, None
        if sock is not None:
            # shutdown (not just close) wakes a receiver thread blocked
            # in recv(), so cancellation cannot hang on a silent peer.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for stream in (rfile, wfile, sock):
            if stream is None:
                continue
            try:
                stream.close()
            except (OSError, ValueError):
                pass


class _WorkerDied(Exception):
    """Internal: this pump's worker is unusable (reason in ``str``)."""


@dataclass
class _InFlight:
    index: int
    started: float


@dataclass
class DistributedExecutor:
    """Fault-tolerant fan-out across worker daemons (one pump per daemon).

    Parameters
    ----------
    workers:
        One spec per ``repro worker --listen`` daemon, each listed once
        (a daemon serves one connection at a time).
    transport_factory:
        Builds the channel for one spec (default: a
        :class:`TcpWorkerTransport`; tests substitute scripted fakes).
    ping_interval:
        Seconds between liveness probes while a unit is in flight.
    ping_timeout:
        Silence (no result, no pong) after which a worker is declared
        dead and its in-flight unit re-dispatched.
    straggler_factor:
        Speculatively re-dispatch a unit once it has been in flight
        longer than this multiple of the median completed-unit time
        (``None`` disables speculation).
    min_straggler_s:
        Floor on the straggler threshold, so cheap campaigns don't
        speculate on scheduling jitter.
    max_attempts:
        Dispatch attempts per unit before the run fails (guards against
        a unit that reliably kills every worker it lands on).
    """

    workers: Sequence[WorkerSpec]
    transport_factory: Callable[[WorkerSpec], WorkerTransport] = TcpWorkerTransport
    ping_interval: float = 0.5
    ping_timeout: float = 30.0
    straggler_factor: float | None = 4.0
    min_straggler_s: float = 2.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if not self.workers:
            raise ConfigurationError("distributed dispatch needs >= 1 worker")
        if len(set(self.workers)) < len(self.workers):
            raise ConfigurationError(
                "a worker is listed twice; a daemon serves one connection "
                "at a time, so a second channel to it would only stall"
            )
        if self.ping_interval <= 0:
            raise ConfigurationError(
                f"ping_interval must be > 0, got {self.ping_interval}"
            )
        if self.ping_timeout <= 0:
            raise ConfigurationError(
                f"ping_timeout must be > 0, got {self.ping_timeout}"
            )
        if self.straggler_factor is not None and self.straggler_factor <= 1:
            raise ConfigurationError(
                f"straggler_factor must be > 1, got {self.straggler_factor}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def run(
        self, fn: Callable[[T], Any], items: Sequence[T]
    ) -> Iterator[tuple[int, Any]]:
        items = list(items)
        if not items:
            return
        fn_path = function_path(fn)
        specs = list(self.workers)[: len(items)]
        yield from _DispatchRun(self, fn_path, items, specs).drive()


class _DispatchRun:
    """Shared state of one :meth:`DistributedExecutor.run` invocation."""

    def __init__(
        self,
        executor: DistributedExecutor,
        fn_path: str,
        items: Sequence[Any],
        specs: Sequence[WorkerSpec],
    ) -> None:
        self.executor = executor
        self.fn_path = fn_path
        self.items = items
        self.specs = specs
        self.work: queue.SimpleQueue = queue.SimpleQueue()
        self.events: queue.SimpleQueue = queue.SimpleQueue()
        self.stop = threading.Event()
        self.lock = threading.Lock()
        # Guarded by `lock` (shared between pumps and the consumer):
        self.completed: set[int] = set()
        self.in_flight: dict[int, _InFlight] = {}
        self.respawned: set[int] = set()
        # Consumer-thread-only:
        self.attempts: dict[int, int] = {}
        self.unit_times: list[float] = []
        self.transports: list[WorkerTransport] = []
        self.threads: list[threading.Thread] = []

    # -- pump side (one thread per transport) ------------------------------

    def _pump(self, pump_id: int, transport: WorkerTransport) -> None:
        try:
            transport.start(self.fn_path)
        except Exception as exc:
            transport.close()
            self.events.put(
                ("worker-dead", pump_id, None, f"worker start failed: {exc}")
            )
            return
        inbox: queue.SimpleQueue = queue.SimpleQueue()

        def receive() -> None:
            while True:
                try:
                    frame = transport.next_result()
                except Exception as exc:
                    inbox.put(("recv-error", exc))
                    return
                inbox.put(("frame", frame))

        threading.Thread(
            target=receive, name=f"dispatch-recv-{pump_id}", daemon=True
        ).start()
        while True:
            unit = self.work.get()
            if unit is None or self.stop.is_set():
                return
            with self.lock:
                if unit in self.completed:
                    continue  # stale re-dispatch; the first copy already won
                self.in_flight[pump_id] = _InFlight(unit, time.monotonic())
            try:
                outcome = self._run_unit(transport, inbox, unit)
            except _WorkerDied as died:
                if not self.stop.is_set():
                    self.events.put(("worker-dead", pump_id, unit, str(died)))
                transport.close()
                return
            finally:
                with self.lock:
                    self.in_flight.pop(pump_id, None)
            self.events.put(outcome)

    def _run_unit(
        self, transport: WorkerTransport, inbox: queue.SimpleQueue, index: int
    ) -> tuple[str, int, Any, float]:
        started = time.monotonic()
        try:
            transport.submit(index, self.items[index])
        except Exception as exc:
            raise _WorkerDied(f"submit failed: {exc}") from exc
        deadline = started + self.executor.ping_timeout
        token = 0
        while True:
            try:
                kind, payload = inbox.get(timeout=self.executor.ping_interval)
            except queue.Empty:
                if time.monotonic() >= deadline:
                    raise _WorkerDied(
                        f"no result or pong for "
                        f"{self.executor.ping_timeout:g}s (unit {index})"
                    ) from None
                token += 1
                try:
                    transport.ping(token)
                except Exception as exc:
                    raise _WorkerDied(f"ping failed: {exc}") from exc
                continue
            if kind == "recv-error":
                raise _WorkerDied(f"receive failed: {payload}") from None
            frame = payload
            if isinstance(frame, tuple) and frame and frame[0] == "pong":
                deadline = time.monotonic() + self.executor.ping_timeout
                continue
            try:
                status, got_index, result = frame
            except (TypeError, ValueError):
                raise _WorkerDied(f"protocol violation: {frame!r}") from None
            if status not in ("ok", "error") or got_index != index:
                raise _WorkerDied(f"protocol violation: {frame!r}") from None
            return (status, got_index, result, time.monotonic() - started)

    # -- consumer side -----------------------------------------------------

    def _redispatch(self, index: int, reason: str) -> None:
        attempts = self.attempts.get(index, 0)
        if attempts >= self.executor.max_attempts:
            raise ExecutionError(
                f"unit {index} failed on {attempts} workers "
                f"(last failure: {reason}) — giving up"
            )
        self.attempts[index] = attempts + 1
        self.work.put(index)

    def _respawn_stragglers(self) -> None:
        factor = self.executor.straggler_factor
        if factor is None or not self.unit_times:
            return
        threshold = max(
            self.executor.min_straggler_s,
            factor * statistics.median(self.unit_times),
        )
        now = time.monotonic()
        with self.lock:
            laggards = [
                flight.index
                for flight in self.in_flight.values()
                if now - flight.started > threshold
                and flight.index not in self.completed
                and flight.index not in self.respawned
            ]
            self.respawned.update(laggards)
        for index in laggards:
            # Speculative copy: the attempt bump is bookkeeping only —
            # speculation never fails a unit, only dead workers do.
            self.attempts[index] = self.attempts.get(index, 0) + 1
            self.work.put(index)

    def drive(self) -> Iterator[tuple[int, Any]]:
        for index in range(len(self.items)):
            self.attempts[index] = 1
            self.work.put(index)
        self.transports = [
            self.executor.transport_factory(spec) for spec in self.specs
        ]
        self.threads = [
            threading.Thread(
                target=self._pump,
                args=(pump_id, transport),
                name=f"dispatch-pump-{pump_id}",
                daemon=True,
            )
            for pump_id, transport in enumerate(self.transports)
        ]
        live = len(self.threads)
        yielded: set[int] = set()
        poll = min(0.25, self.executor.ping_interval)
        try:
            for thread in self.threads:
                thread.start()
            while len(yielded) < len(self.items):
                try:
                    event = self.events.get(timeout=poll)
                except queue.Empty:
                    self._respawn_stragglers()
                    continue
                if event[0] == "worker-dead":
                    _, pump_id, orphan, reason = event
                    live -= 1
                    with self.lock:
                        lost = orphan is not None and orphan not in self.completed
                    if lost:
                        self._redispatch(orphan, reason)
                    if live == 0:
                        raise ExecutionError(
                            f"all distributed workers died; "
                            f"last failure: {reason}"
                        )
                    continue
                status, index, payload, elapsed = event
                with self.lock:
                    stale = index in self.completed
                    if status == "ok" and not stale:
                        self.completed.add(index)
                if stale:
                    continue  # a speculative duplicate finished second
                if status == "error":
                    raise ExecutionError(
                        f"trial {index} failed remotely: {payload}"
                    )
                self.unit_times.append(elapsed)
                yielded.add(index)
                yield index, payload
        finally:
            # Completion or failure: stop the pumps, drain the queue so
            # no surviving worker is fed doomed units, then release the
            # pumps and close every channel (closes wake blocked reads).
            self.stop.set()
            while True:
                try:
                    self.work.get_nowait()
                except queue.Empty:
                    break
            for _ in self.threads:
                self.work.put(None)
            for transport in self.transports:
                transport.close()
            for thread in self.threads:
                thread.join(timeout=5)
