"""JSON (de)serialisation of move schedules.

The control software archives every shot's schedule for diagnostics and
replays; this module defines a stable, versioned JSON interchange format
for :class:`~repro.aod.MoveSchedule` with exact round-trip guarantees.
"""

from __future__ import annotations

import json
from typing import Any

from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.errors import MoveError, ReproError, ScheduleValidationError
from repro.lattice.geometry import ArrayGeometry, Direction
from repro.lattice.mask import TargetMask

FORMAT_VERSION = 1


def _shift_to_dict(shift: LineShift) -> dict[str, Any]:
    # int() casts guard against numpy integer scalars leaking in from
    # algorithm implementations — JSON refuses to encode them.
    return {
        "dir": shift.direction.value,
        "line": int(shift.line),
        "start": int(shift.span_start),
        "stop": int(shift.span_stop),
        "steps": int(shift.steps),
    }


#: Largest magnitude an integer field may carry: the columnar schedule
#: stores fields as machine integers, and no trap index comes near it.
MAX_INTEGER = 2**31 - 1

_KIND_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}

#: The integer fields of a shift record, with their defaults.
_SHIFT_INTEGERS = (("line", None), ("start", None), ("stop", None), ("steps", 1))


def _checked(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind``, else :class:`ScheduleValidationError`.

    Integers must be genuine JSON integers within :data:`MAX_INTEGER`:
    ``1.5``, ``true`` and ``"3"`` are rejected, not coerced.
    """
    if kind is int:
        valid = type(value) is int and -MAX_INTEGER <= value <= MAX_INTEGER
    else:
        valid = isinstance(value, kind)
    if not valid:
        raise ScheduleValidationError(
            f"{what} must be {_KIND_NAMES[kind]}, got {value!r}"
        )
    return value


def _shift_from_dict(data: Any) -> LineShift:
    record = _checked(data, dict, "a shift record")
    direction = _checked(record.get("dir"), str, "a shift's 'dir'")
    line, start, stop, steps = (
        _checked(record.get(key, default), int, f"a shift's {key!r}")
        for key, default in _SHIFT_INTEGERS
    )
    try:
        return LineShift(Direction(direction), line, start, stop, steps)
    except (ValueError, MoveError) as exc:
        raise ScheduleValidationError(f"malformed shift record: {data}") from exc


def _move_from_dict(data: Any) -> ParallelMove:
    record = _checked(data, dict, "a move record")
    shifts = _checked(record.get("shifts"), list, "a move's 'shifts'")
    tag = _checked(record.get("tag", ""), str, "a move's 'tag'")
    try:
        return ParallelMove.of([_shift_from_dict(s) for s in shifts], tag=tag)
    except MoveError as exc:
        raise ScheduleValidationError(f"malformed move record: {exc}") from exc


def schedule_to_dict(schedule: MoveSchedule) -> dict[str, Any]:
    """Schedule as a JSON-serialisable dictionary.

    The geometry block gains a ``"mask"`` row-string list only when the
    geometry carries an explicit mask, so documents for plain
    (mask-free) geometries stay byte-identical to the pre-mask format
    (and remain loadable by old readers).  A mask that happens to be
    rectangular is still recorded: its rectangle may be off-centre or
    odd-sized, which the extents-only encoding cannot represent.
    """
    geometry = schedule.geometry
    geo_dict: dict[str, Any] = {
        "width": geometry.width,
        "height": geometry.height,
        "target_width": geometry.target_width,
        "target_height": geometry.target_height,
    }
    if geometry.mask is not None:
        geo_dict["mask"] = list(geometry.mask.to_rows())
    return {
        "version": FORMAT_VERSION,
        "algorithm": schedule.algorithm,
        "geometry": geo_dict,
        "moves": [
            {
                "tag": move.tag,
                "shifts": [_shift_to_dict(s) for s in move.shifts],
            }
            for move in schedule
        ],
    }


def schedule_from_dict(data: Any) -> MoveSchedule:
    """Inverse of :func:`schedule_to_dict`.

    Any malformed document — a root, geometry, move or shift that is not
    an object, a missing field, a number that is not an integer, a tag
    or algorithm that is not a string, or values no geometry or move
    accepts — raises :class:`~repro.errors.ScheduleValidationError`.
    """
    data = _checked(data, dict, "a schedule document")
    version = data.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ScheduleValidationError(
            f"unsupported schedule format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    geo = _checked(data.get("geometry"), dict, "the 'geometry'")
    extents = [
        _checked(geo.get(name), int, f"the geometry's {name!r}")
        for name in ("width", "height", "target_width", "target_height")
    ]
    rows = geo.get("mask")
    if rows is not None and not all(
        isinstance(row, str) for row in _checked(rows, list, "a mask")
    ):
        raise ScheduleValidationError(f"a mask must be row strings, got {rows!r}")
    try:
        mask = None if rows is None else TargetMask.from_rows(rows)
        geometry = ArrayGeometry(*extents, mask=mask)
    except ReproError as exc:
        raise ScheduleValidationError(f"malformed geometry: {exc}") from exc
    algorithm = _checked(data.get("algorithm", ""), str, "the 'algorithm'")
    moves = _checked(data.get("moves"), list, "the 'moves'")
    return MoveSchedule(geometry, algorithm, [_move_from_dict(m) for m in moves])


def dumps(schedule: MoveSchedule, indent: int | None = None) -> str:
    """Schedule to a JSON string."""
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def loads(text: str) -> MoveSchedule:
    """Schedule from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleValidationError(f"invalid JSON: {exc}") from exc
    return schedule_from_dict(data)
