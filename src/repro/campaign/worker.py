"""Worker daemon for distributed trial dispatch.

``repro worker --listen HOST:PORT`` serves the length-prefixed pickle
frame protocol of :mod:`repro.campaign.protocol` over TCP; it is what
``repro campaign --workers host:port[,host:port...]`` dials.

Each connection:

* opens with the magic/version handshake whose payload is
  ``{"fn": "module:qualname"}``, naming the work function as an import
  path (e.g. ``"repro.campaign.trial:run_trial_batch_guarded"``).
  Resolution is per-connection, so one daemon serves campaigns with
  different work functions back to back;
* every following inbound frame is one ``(index, item)`` work unit or a
  ``("ping", token)`` liveness probe;
* outbound frames are ``("ok", index, result)``, ``("error", index,
  message)`` — the message carries a traceback tail so remote failures
  stay debuggable — or ``("pong", token, None)``;
* EOF ends the session, and the daemon accepts the next connection.
  Connections are served one at a time, so a host contributes one work
  channel per daemon: run one daemon per core to use them all.  Each
  read of the handshake has a deadline (:data:`HANDSHAKE_TIMEOUT`), so
  a peer that connects and sends nothing cannot hold the daemon; after
  the handshake, reads wait indefinitely, because an idle coordinator
  sends nothing between units.

Pings are answered from a reader thread *while a work unit computes*,
which is what lets the dispatch layer distinguish a busy worker (pongs
keep arriving) from a dead or unreachable one (silence past the
deadline).

A malformed peer — undecodable bytes, a handshake that is not
``{"fn": path}``, a function that does not import, a unit frame that is
not ``(index, item)`` — raises :class:`ConfigurationError`, which ends
that connection only.  :mod:`repro.campaign.dispatch` is the client
side.
"""

from __future__ import annotations

import queue
import socket
import sys
import threading
from typing import BinaryIO, Callable

from repro.campaign.protocol import (
    parse_hostport,
    read_frame,
    read_handshake,
    resolve_function,
    write_frame,
)
from repro.errors import ConfigurationError, format_error

#: Seconds each read of a peer's handshake may wait, as long as
#: ``TcpWorkerTransport``'s connect timeout.
HANDSHAKE_TIMEOUT = 10.0


def serve(
    rfile: BinaryIO,
    wfile: BinaryIO,
    on_handshake: Callable[[], None] | None = None,
) -> int:
    """Run one worker session until EOF; returns the number of work units.

    A reader thread pulls frames off ``rfile`` and answers pings
    immediately (under a write lock shared with the compute loop), so
    liveness probes are served even while a unit is mid-computation.
    Work units execute in the calling thread, in arrival order.
    ``on_handshake`` runs once the handshake frame is in.
    """
    handshake = read_handshake(rfile)
    if on_handshake is not None:
        on_handshake()
    if handshake is None:
        return 0
    fn_path = handshake.get("fn") if isinstance(handshake, dict) else None
    if not isinstance(fn_path, str):
        raise ConfigurationError(
            f"a worker handshake is {{'fn': 'module:qualname'}}; this "
            f"{type(handshake).__name__} names no function"
        )
    fn = resolve_function(fn_path)
    write_lock = threading.Lock()
    work: queue.SimpleQueue = queue.SimpleQueue()
    reader_error: list[BaseException] = []

    def read_loop() -> None:
        try:
            while True:
                frame = read_frame(rfile)
                if frame is None:
                    return
                if not isinstance(frame, tuple) or len(frame) != 2:
                    raise ConfigurationError(
                        f"a worker frame is (index, item) or ('ping', "
                        f"token), got a {type(frame).__name__}"
                    )
                if frame[0] == "ping":
                    with write_lock:
                        write_frame(wfile, ("pong", frame[1], None))
                    continue
                work.put(frame)
        except BaseException as exc:  # re-raised on the serving thread
            reader_error.append(exc)
        finally:
            work.put(None)

    reader = threading.Thread(target=read_loop, name="worker-reader", daemon=True)
    reader.start()
    served = 0
    while True:
        unit = work.get()
        if unit is None:
            break
        index, item = unit
        try:
            result = fn(item)
        except Exception as exc:  # forwarded, not fatal to the worker
            with write_lock:
                write_frame(wfile, ("error", index, format_error(exc)))
        else:
            with write_lock:
                write_frame(wfile, ("ok", index, result))
        served += 1
    reader.join()
    if reader_error:
        raise reader_error[0]
    return served


def serve_connections(
    listener: socket.socket,
    max_connections: int | None = None,
    log: Callable[[str], None] | None = None,
) -> int:
    """Accept connections sequentially, serving each to EOF.

    A connection that fails mid-session (garbage handshake, truncated
    stream, reset, no handshake within :data:`HANDSHAKE_TIMEOUT`) is
    logged and dropped; the daemon stays up for the next one.  Returns
    the number of connections served (bounded by ``max_connections``
    when given — mainly for tests).
    """
    connections = 0
    while max_connections is None or connections < max_connections:
        try:
            conn, peer = listener.accept()
        except OSError:
            break
        with conn:
            conn.settimeout(HANDSHAKE_TIMEOUT)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            try:
                units = serve(rfile, wfile, on_handshake=lambda: conn.settimeout(None))
                if log is not None:
                    log(f"served {units} units for {peer[0]}:{peer[1]}")
            except (ConfigurationError, EOFError, OSError, ValueError) as exc:
                if log is not None:
                    log(f"connection from {peer[0]}:{peer[1]} failed: {exc}")
            finally:
                for stream in (rfile, wfile):
                    try:
                        stream.close()
                    except OSError:
                        pass
        connections += 1
    return connections


def run_worker(
    listen: str,
    max_connections: int | None = None,
    quiet: bool = False,
) -> int:
    """The ``repro worker --listen HOST:PORT`` daemon."""
    log = (
        None
        if quiet
        else lambda message: print(f"[worker] {message}", file=sys.stderr, flush=True)
    )
    host, port = parse_hostport(listen)
    try:
        listener = socket.create_server((host, port))
    except OSError as exc:
        raise ConfigurationError(f"cannot listen on {host}:{port}: {exc}") from exc
    bound_host, bound_port = listener.getsockname()[:2]
    if log is not None:
        log(f"listening on {bound_host}:{bound_port}")
    try:
        serve_connections(listener, max_connections=max_connections, log=log)
    except KeyboardInterrupt:
        return 130
    finally:
        listener.close()
    return 0
