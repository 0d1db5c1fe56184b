"""Frame protocol shared by the dispatch client, the worker and the service.

Length-prefixed pickle frames over a byte stream: one unsigned
big-endian 32-bit payload length, then the pickled payload.  A stream
opens with a two-byte handshake preamble — :data:`PROTOCOL_MAGIC` then
:data:`PROTOCOL_VERSION` — followed by a regular frame carrying the
handshake payload, so a stray peer writing garbage into a worker
connection (or a port scanner hitting the scheduling service) fails
fast with a :class:`ConfigurationError` instead of a pickle explosion.
:func:`read_frame` additionally bounds the declared payload length
(:data:`MAX_FRAME_BYTES` by default): a corrupt or hostile header
cannot trigger a multi-gigabyte allocation, and a payload that does
not unpickle raises :class:`ConfigurationError` too
(:func:`decode_payload`, also behind the service's async reader).

For the worker protocol the handshake payload names the work function
as a ``"module:qualname"`` import path; work frames are
``(index, item)``; liveness probes are ``("ping", token)`` answered by
``("pong", token, None)``; result frames are ``("ok", index, result)``
or ``("error", index, message)`` where the message carries a traceback
tail (:func:`repro.errors.format_error`).  The scheduling service
(:mod:`repro.service`) speaks the same frames asynchronously with its
own payload vocabulary, which is why the codec lives apart from both
the worker (:mod:`repro.campaign.worker`) and the service.
"""

from __future__ import annotations

import importlib
import pickle
import struct
from typing import Any, BinaryIO, Callable

from repro.errors import ConfigurationError

#: Frame header: one unsigned big-endian 32-bit payload length.
_HEADER = struct.Struct(">I")

#: First byte of every handshake.  Deliberately a non-ASCII value: a
#: text-protocol client (HTTP, JSON lines) can never start with it, so
#: servers can sniff the stream kind from the first byte.
PROTOCOL_MAGIC = 0xA7

#: Bump when the frame vocabulary changes incompatibly.
PROTOCOL_VERSION = 1

#: Default ceiling on a single frame's declared payload length.  Far
#: beyond any real schedule or occupancy stack (a 512x512 bool grid is
#: 256 KiB) while keeping a garbage header from allocating gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_PREAMBLE = struct.Struct(">BB")


def write_frame(stream: BinaryIO, payload: Any) -> None:
    """Pickle ``payload`` and write it as one length-prefixed frame."""
    data = pickle.dumps(payload)
    stream.write(_HEADER.pack(len(data)))
    stream.write(data)
    stream.flush()


def read_frame(stream: BinaryIO, max_bytes: int = MAX_FRAME_BYTES) -> Any:
    """Read one frame, or None on a clean EOF at a frame boundary.

    A declared payload length above ``max_bytes`` raises
    :class:`ConfigurationError` *before* any allocation: an oversized
    header means a corrupt, truncated-then-resynced, or hostile stream,
    and the right failure mode is a clear error, not an OOM.
    """
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise EOFError("truncated frame header")
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ConfigurationError(
            f"frame declares a {length}-byte payload, above the "
            f"{max_bytes}-byte limit — corrupt or non-protocol stream"
        )
    data = stream.read(length)
    if len(data) < length:
        raise EOFError("truncated frame payload")
    return decode_payload(data)


def decode_payload(data: bytes) -> Any:
    """Unpickle one frame payload.

    Any unpickling failure raises :class:`ConfigurationError`, so a
    garbled frame is a protocol error that connection handlers already
    catch, not a stray pickle exception.
    """
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise ConfigurationError(
            f"undecodable {len(data)}-byte frame payload "
            f"({type(exc).__name__}: {exc}) — corrupt or non-protocol stream"
        ) from exc


def write_handshake(stream: BinaryIO, payload: Any) -> None:
    """Open a frame stream: magic byte, version byte, handshake frame."""
    stream.write(_PREAMBLE.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION))
    write_frame(stream, payload)


def read_handshake(stream: BinaryIO, max_bytes: int = MAX_FRAME_BYTES) -> Any:
    """Validate the preamble and return the handshake payload.

    Returns ``None`` on a clean EOF before any byte (a peer that
    connected and left).  A wrong magic byte or an unsupported version
    raises :class:`ConfigurationError` naming what arrived.
    """
    preamble = stream.read(_PREAMBLE.size)
    if not preamble:
        return None
    if len(preamble) < _PREAMBLE.size:
        raise EOFError("truncated handshake preamble")
    magic, version = _PREAMBLE.unpack(preamble)
    if magic != PROTOCOL_MAGIC:
        raise ConfigurationError(
            f"bad handshake magic 0x{magic:02X} (expected "
            f"0x{PROTOCOL_MAGIC:02X}) — not a repro frame stream"
        )
    if version != PROTOCOL_VERSION:
        raise ConfigurationError(
            f"unsupported protocol version {version} "
            f"(this side speaks {PROTOCOL_VERSION})"
        )
    return read_frame(stream, max_bytes=max_bytes)


def parse_hostport(text: str) -> tuple[str, int]:
    """Parse ``"host:port"`` into its parts (shared by worker and CLI).

    The split is on the *last* colon, so bracketless IPv6 literals like
    ``::1:7500`` parse as ``("::1", 7500)``.
    """
    host, sep, port_text = text.strip().rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"non-numeric port {port_text!r} in {text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"port {port} out of range in {text!r}")
    return host, port


def resolve_function(path: str) -> Callable:
    """Import ``"module:qualname"`` back into a callable."""
    module_name, _, qualname = path.partition(":")
    if not module_name or not qualname:
        raise ConfigurationError(f"malformed function path {path!r}")
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(
            f"cannot resolve function path {path!r}: {exc}"
        ) from exc
    if not callable(obj):
        raise ConfigurationError(f"{path!r} does not name a callable")
    return obj


def function_path(fn: Callable) -> str:
    """The import path of a module-level callable (for the handshake)."""
    qualname = getattr(fn, "__qualname__", "")
    module = getattr(fn, "__module__", "")
    if not module or not qualname or "<" in qualname:
        raise ConfigurationError(
            f"distributed dispatch needs a module-level function, got {fn!r}"
        )
    return f"{module}:{qualname}"
