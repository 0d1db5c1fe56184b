"""Asyncio transport for the frame protocol, plus the JSON front door.

The service speaks the same length-prefixed pickle frames as
:mod:`repro.campaign.protocol` — this module is the
``StreamReader``/``StreamWriter`` side of that protocol, sharing the
header layout, the handshake preamble, the max-frame-size guard and the
payload decoder with the synchronous implementation so both ends
enforce identical limits.

Request/response vocabulary (pickle mode), one tuple per frame:

* client → server: ``(op, request_id, payload)`` where ``op`` is
  ``"schedule"`` (payload: the request dict of
  :func:`repro.service.cache.SchedulerKey.from_payload` plus a
  ``"grid"`` bool array), ``"stats"`` or ``"ping"`` (payload ignored);
* server → client: ``("ok", request_id, result)`` or
  ``("error", request_id, message)``.

The JSON front door is newline-delimited JSON for non-Python clients:
one request object per line in, one response object per line out, with
schedules rendered through the stable
:func:`repro.aod.serialize.schedule_to_dict` format.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import struct
from typing import Any

import numpy as np

from repro.aod.serialize import schedule_to_dict
from repro.campaign.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    decode_payload,
)
from repro.errors import ConfigurationError, ReproError
from repro.service.cache import QRM_FIELD_REFUSAL

_HEADER = struct.Struct(">I")

#: Ceiling on one JSON front-door line (grids arrive as nested lists,
#: which are ~2 bytes per site — far below this for any real geometry).
#: The server's stream reader is built with this line limit.
MAX_JSON_LINE = 8 * 1024 * 1024


async def read_frame_async(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> Any:
    """Async :func:`repro.campaign.protocol.read_frame` (None on EOF)."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise EOFError("truncated frame header") from exc
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ConfigurationError(
            f"frame declares a {length}-byte payload, above the "
            f"{max_bytes}-byte limit — corrupt or non-protocol stream"
        )
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise EOFError("truncated frame payload") from exc
    return decode_payload(data)


async def write_frame_async(writer: asyncio.StreamWriter, payload: Any) -> None:
    """Async :func:`repro.campaign.protocol.write_frame` (drains)."""
    data = pickle.dumps(payload)
    writer.write(_HEADER.pack(len(data)))
    writer.write(data)
    await writer.drain()


async def read_handshake_async(
    reader: asyncio.StreamReader, first_byte: bytes
) -> Any:
    """Finish a handshake whose magic byte was already sniffed.

    The server reads one byte per connection to pick the protocol
    (magic → pickle frames, ``{`` → JSON lines); this consumes the
    version byte and the handshake frame that follow the magic.
    """
    if first_byte != bytes([PROTOCOL_MAGIC]):
        raise ConfigurationError(
            f"bad handshake magic 0x{first_byte[0]:02X} (expected "
            f"0x{PROTOCOL_MAGIC:02X}) — not a repro frame stream"
        )
    version_byte = await reader.readexactly(1)
    version = version_byte[0]
    if version != PROTOCOL_VERSION:
        raise ConfigurationError(
            f"unsupported protocol version {version} "
            f"(this side speaks {PROTOCOL_VERSION})"
        )
    return await read_frame_async(reader)


def decode_json_request(line: bytes) -> dict[str, Any]:
    """Parse one JSON front-door request line into the request dict.

    Accepted shapes::

        {"id": 7, "op": "stats"}
        {"id": 7, "op": "ping"}
        {"id": 7, "algorithm": "qrm", "size": 16, "grid": [[0, 1, ...]]}
        {"id": 7, "algorithm": "qrm",
         "geometry": {"width": 16, "height": 16,
                      "target_width": 8, "target_height": 8},
         "grid": [[0, 1, ...]]}
        {"id": 7, "algorithm": "qrm-repair", "size": 16,
         "mask": ["....", ".##.", ".##.", "...."],
         "grid": [[0, 1, ...]]}
        {"id": 7, "size": 16, "params": {"scan_mode": "fresh"},
         "grid": [[0, 1, ...]]}

    A ``"mask"`` (row strings of ``'#'`` target sites, or the
    ``/``-joined token form) names a non-rectangular target; it
    overrides any ``target`` extents, which are re-derived from the
    mask's bounding box.  ``"params"`` is the one override field: the
    algorithm factory's keyword arguments, which the factory validates.

    Returns ``{"op", "id", ...}`` with ``"geometry"`` normalised to a
    ``(width, height, target_width, target_height)`` tuple, ``"mask"``
    to a token string (when present) and ``"grid"`` to a bool array for
    schedule requests.

    Validation errors raised after the object parses carry the
    request's ``id`` as ``exc.request_id`` so the error frame can still
    be correlated by the client.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON request: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("a JSON request must be an object")

    def reject(message: str, cause: Exception | None = None) -> ConfigurationError:
        exc = ConfigurationError(message)
        exc.request_id = data.get("id")
        if cause is not None:
            exc.__cause__ = cause
        return exc

    op = data.get("op", "schedule")
    request = {"op": op, "id": data.get("id")}
    if op != "schedule":
        return request
    try:
        request.update(_schedule_fields(data, reject))
    except ReproError as exc:  # e.g. a GeometryError: still correlated
        exc.request_id = request["id"]
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        # A field of the wrong type or shape (``"size": "abc"``, a
        # ragged grid, ``1e400``): one error line, connection kept.
        raise reject(f"malformed schedule request: {exc}", exc) from None
    return request


def _schedule_fields(data: dict[str, Any], reject) -> dict[str, Any]:
    """The schedule-specific fields of a decoded JSON request."""
    if "grid" not in data:
        raise reject("a schedule request needs a 'grid'")
    grid = np.asarray(data["grid"], dtype=bool)
    mask_token: str | None = None
    raw_mask = data.get("mask")
    if raw_mask is not None:
        from repro.lattice.mask import TargetMask

        try:
            if isinstance(raw_mask, str):
                mask = TargetMask.from_token(raw_mask)
            else:
                mask = TargetMask.from_rows(list(raw_mask))
        except Exception as exc:
            raise reject(f"bad mask: {exc}", exc) from None
        mask_token = mask.token()
    if raw_mask is not None and ("size" in data or "geometry" in data):
        # Target extents are the mask's bounding box by definition.
        if "size" in data:
            width = height = int(data["size"])
        else:
            geo = data["geometry"]
            try:
                width, height = int(geo["width"]), int(geo["height"])
            except (KeyError, TypeError) as exc:
                raise reject(
                    "a JSON geometry needs width/height", exc
                ) from None
        box = mask.bounding_box
        geometry = (width, height, box.width, box.height)
    elif "geometry" in data:
        geo = data["geometry"]
        try:
            geometry = (
                int(geo["width"]),
                int(geo["height"]),
                int(geo["target_width"]),
                int(geo["target_height"]),
            )
        except (KeyError, TypeError) as exc:
            raise reject(
                "a JSON geometry needs width/height/target_width/target_height",
                exc,
            ) from None
    elif "size" in data:
        from repro.lattice.geometry import ArrayGeometry

        square = ArrayGeometry.square(int(data["size"]), data.get("target"))
        geometry = (
            square.width,
            square.height,
            square.target_width,
            square.target_height,
        )
    else:
        raise reject("a schedule request needs either 'geometry' or 'size'")
    if data.get("qrm") is not None:
        raise reject(QRM_FIELD_REFUSAL)
    fields = dict(
        geometry=geometry,
        algorithm=data.get("algorithm", "qrm"),
        params=data.get("params") or {},
        grid=grid,
    )
    if mask_token is not None:
        fields["mask"] = mask_token
    return fields


def encode_json_response(request_id: Any, result: Any) -> bytes:
    """Render one schedule result as a JSON response line."""
    payload = {
        "id": request_id,
        "ok": True,
        "algorithm": result.algorithm,
        "moves": result.n_moves,
        "iterations": result.iterations_used,
        "converged": result.converged,
        "target_fill": result.target_fill_fraction,
        "defect_free": result.defect_free,
        "schedule": schedule_to_dict(result.schedule),
    }
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def encode_json_error(request_id: Any, message: str) -> bytes:
    return (
        json.dumps(
            {"id": request_id, "ok": False, "error": message},
            separators=(",", ":"),
        ).encode()
        + b"\n"
    )


def encode_json_value(request_id: Any, value: Any) -> bytes:
    """A non-schedule success response (stats, ping)."""
    return (
        json.dumps(
            {"id": request_id, "ok": True, "value": value},
            separators=(",", ":"),
        ).encode()
        + b"\n"
    )
