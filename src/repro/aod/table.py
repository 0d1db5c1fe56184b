"""Columnar form of a move schedule — the form a schedule is stored in.

A :class:`ScheduleTable` holds a schedule as a few integer arrays: one
entry per move (direction code, steps, shift offsets) and one per line
shift (direction code, steps, line, span).  The vectorised schedulers
write these columns directly, and the consumers — AWG compilation and
replay — run NumPy passes over them.  :class:`ParallelMove` and
:class:`LineShift` objects are built from the columns only on request,
as views (:meth:`ScheduleTable.moves`); schedules assembled from
objects (the baselines, repair, deserialisation) are flattened once by
:meth:`ScheduleTable.from_moves`.  The two directions are exact
inverses, rogue ``trusted`` bundles included: every field of every
object has its own column.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.aod.move import LineShift, ParallelMove
from repro.lattice.geometry import Direction

#: The direction each code of the direction columns stands for.
DIRECTIONS = tuple(Direction)
DIRECTION_CODE = {direction: code for code, direction in enumerate(DIRECTIONS)}
_HORIZONTAL = np.array([direction.is_horizontal for direction in DIRECTIONS])
#: +1 for SOUTH/EAST (towards larger indices), -1 for NORTH/WEST.
_SIGN = np.array([sum(direction.delta) for direction in DIRECTIONS])


@dataclass(frozen=True, eq=False)
class ScheduleTable:
    """A move schedule as move arrays plus flat shift arrays.

    Move ``m`` owns shifts ``offsets[m]:offsets[m + 1]`` (``offsets[0]``
    is 0), in the order of ``move.shifts``.  Direction columns hold
    codes into :data:`DIRECTIONS`.  A shift's own direction and steps
    equal its move's unless a ``ParallelMove.trusted`` bundle broke the
    lockstep contract; the executor honours the shift's steps and sign
    and refuses a shift off its move's axis (as
    :func:`~repro.aod.executor.apply_parallel_move` does), the AWG
    compiler the move's (as :func:`~repro.awg.compiler.compile_move`
    does).  Every column is read-only.
    """

    direction: np.ndarray
    steps: np.ndarray
    offsets: np.ndarray
    shift_direction: np.ndarray
    shift_steps: np.ndarray
    line: np.ndarray
    span_start: np.ndarray
    span_stop: np.ndarray

    def __post_init__(self) -> None:
        for column in self._columns():
            column.flags.writeable = False

    def _columns(self) -> tuple[np.ndarray, ...]:
        return _COLUMNS(self)

    def __reduce__(self):
        return (type(self), self._columns())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleTable):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self._columns(), other._columns())
        )

    @classmethod
    def empty(cls) -> ScheduleTable:
        """The table of a schedule with no moves (shared; it is read-only)."""
        return _EMPTY

    @classmethod
    def from_moves(cls, moves: Sequence[ParallelMove]) -> ScheduleTable:
        """Flatten ``moves``: each column read straight off the objects."""
        n_moves = len(moves)
        shifts = [shift for move in moves for shift in move.shifts]
        n_shifts = len(shifts)

        def column(items, name: str, n: int) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), items), np.intp, n)

        def codes(items, n: int) -> np.ndarray:
            directions = map(attrgetter("direction"), items)
            return np.fromiter(map(DIRECTION_CODE.__getitem__, directions), np.int8, n)

        offsets = np.zeros(n_moves + 1, dtype=np.intp)
        offsets[1:] = np.cumsum([len(move.shifts) for move in moves], dtype=np.intp)
        return cls(
            direction=codes(moves, n_moves),
            steps=column(moves, "steps", n_moves),
            offsets=offsets,
            shift_direction=codes(shifts, n_shifts),
            shift_steps=column(shifts, "steps", n_shifts),
            line=column(shifts, "line", n_shifts),
            span_start=column(shifts, "span_start", n_shifts),
            span_stop=column(shifts, "span_stop", n_shifts),
        )

    @classmethod
    def concat(cls, tables: Sequence[ScheduleTable]) -> ScheduleTable:
        """The moves of ``tables`` one after another, in one table."""
        tables = [table for table in tables if len(table)]
        if len(tables) <= 1:
            return tables[0] if tables else _EMPTY
        columns = {
            name: np.concatenate([getattr(table, name) for table in tables])
            for name in _FIELDS
            if name != "offsets"
        }
        # Each table's move offsets move up by the shifts of the tables before.
        shift_base = np.cumsum([0] + [table.n_shifts for table in tables[:-1]])
        columns["offsets"] = np.concatenate(
            [np.zeros(1, dtype=np.intp)]
            + [table.offsets[1:] + base for table, base in zip(tables, shift_base)]
        )
        return cls(**columns)

    def slice(self, start: int, stop: int) -> ScheduleTable:
        """Moves ``start:stop`` as a table of views (``self`` if that is all)."""
        if start == 0 and stop == len(self):
            return self
        lo, hi = int(self.offsets[start]), int(self.offsets[stop])
        return ScheduleTable(
            direction=self.direction[start:stop],
            steps=self.steps[start:stop],
            offsets=self.offsets[start : stop + 1] - lo,
            shift_direction=self.shift_direction[lo:hi],
            shift_steps=self.shift_steps[lo:hi],
            line=self.line[lo:hi],
            span_start=self.span_start[lo:hi],
            span_stop=self.span_stop[lo:hi],
        )

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def n_shifts(self) -> int:
        return len(self.line)

    @property
    def horizontal(self) -> np.ndarray:
        """Whether each move runs along a row (EAST/WEST)."""
        return _HORIZONTAL[self.direction]

    @property
    def displacement(self) -> np.ndarray:
        """Each move's signed step count along its line axis."""
        return self.steps * _SIGN[self.direction]

    @property
    def shift_displacement(self) -> np.ndarray:
        """Each shift's own signed step count (see the class docstring)."""
        return self.shift_steps * _SIGN[self.shift_direction]

    @property
    def shift_move(self) -> np.ndarray:
        """Index of the move each shift belongs to."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def span_union(self) -> tuple[np.ndarray, np.ndarray]:
        """``(move, index)`` of every span-axis site: each move's union of spans.

        The same sites as :meth:`ParallelMove.selected_cross`: a
        difference array per move (+1 at each span start, -1 at each
        stop) whose running sum is positive exactly on covered indices;
        entries come out grouped by move, indices ascending.
        """
        n = len(self)
        if not self.n_shifts:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        # Empty spans select nothing; indices are shifted to start at 0.
        start = self.span_start
        stop = np.maximum(self.span_stop, start)
        base = min(int(start.min()), 0)
        width = int(stop.max()) - base + 1
        row = self.shift_move * width - base
        edges = np.bincount(row + start, minlength=n * width)
        edges -= np.bincount(row + stop, minlength=n * width)
        move, index = np.nonzero(np.cumsum(edges.reshape(n, width), axis=1) > 0)
        return move, index + base

    def moves(
        self, tags: Sequence[str], start: int = 0, stop: int | None = None
    ) -> list[ParallelMove]:
        """Moves ``start:stop`` as new objects, ``tags`` holding every move's tag.

        Nothing is cached: every call builds fresh, equal objects
        through the ``trusted`` constructors.
        """
        stop = len(self) if stop is None else stop
        if start >= stop:
            return []
        bounds = self.offsets[start : stop + 1]
        lo, hi = int(bounds[0]), int(bounds[-1])
        direction_of = DIRECTIONS.__getitem__
        shifts = list(
            map(
                LineShift.trusted,
                map(direction_of, self.shift_direction[lo:hi].tolist()),
                self.line[lo:hi].tolist(),
                self.span_start[lo:hi].tolist(),
                self.span_stop[lo:hi].tolist(),
                self.shift_steps[lo:hi].tolist(),
            )
        )
        edges = (bounds - lo).tolist()
        groups = map(tuple, map(shifts.__getitem__, map(slice, edges, edges[1:])))
        return list(
            map(
                ParallelMove.trusted,
                map(direction_of, self.direction[start:stop].tolist()),
                self.steps[start:stop].tolist(),
                groups,
                tags[start:stop],
            )
        )


#: Every column of a table, in field order.
_FIELDS = tuple(field.name for field in fields(ScheduleTable))
_COLUMNS = attrgetter(*_FIELDS)

_EMPTY = ScheduleTable.from_moves(())
