"""Columnar form of a move schedule.

:class:`~repro.aod.schedule.MoveSchedule` holds :class:`ParallelMove`
objects, each holding :class:`LineShift` objects — the right shape for
building and inspecting schedules, the wrong one for consuming them:
AWG compilation and replay would walk every shift (and every site) in
Python.  A :class:`ScheduleTable` flattens the same schedule into a few
integer arrays once, so those consumers run as NumPy passes over the
whole schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.aod.move import ParallelMove
from repro.lattice.geometry import Direction


def _signs(directions: np.ndarray) -> np.ndarray:
    """+1 for SOUTH/EAST (towards larger indices), -1 for NORTH/WEST."""
    forward = (directions == Direction.SOUTH) | (directions == Direction.EAST)
    return np.where(forward, 1, -1)


@dataclass(frozen=True, eq=False)
class ScheduleTable:
    """A move schedule as move arrays plus flat shift arrays.

    Move ``m`` owns shifts ``offsets[m]:offsets[m + 1]``, in the order of
    ``move.shifts``.  ``displacement`` is a move's signed step count
    along its line axis (``+steps`` towards larger indices).
    ``shift_displacement`` is each shift's own, which equals its move's
    unless a ``ParallelMove.trusted`` bundle broke the lockstep
    contract; the executor honours it, the AWG compiler (like
    :func:`~repro.awg.compiler.compile_move`) uses the move's.
    """

    horizontal: np.ndarray
    steps: np.ndarray
    displacement: np.ndarray
    offsets: np.ndarray
    line: np.ndarray
    span_start: np.ndarray
    span_stop: np.ndarray
    shift_displacement: np.ndarray

    @classmethod
    def from_moves(cls, moves: Sequence[ParallelMove]) -> ScheduleTable:
        """Flatten ``moves``: each column read straight off the objects."""
        n_moves = len(moves)
        shifts = [shift for move in moves for shift in move.shifts]
        n_shifts = len(shifts)

        def moves_column(name: str, dtype=np.intp) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), moves), dtype, n_moves)

        def shifts_column(name: str, dtype=np.intp) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), shifts), dtype, n_shifts)

        directions = moves_column("direction", object)
        steps = moves_column("steps")
        offsets = np.zeros(n_moves + 1, dtype=np.intp)
        offsets[1:] = np.cumsum([len(move.shifts) for move in moves], dtype=np.intp)
        shift_steps = shifts_column("steps")
        return cls(
            horizontal=(directions == Direction.EAST) | (directions == Direction.WEST),
            steps=steps,
            displacement=steps * _signs(directions),
            offsets=offsets,
            line=shifts_column("line"),
            span_start=shifts_column("span_start"),
            span_stop=shifts_column("span_stop"),
            shift_displacement=shift_steps * _signs(shifts_column("direction", object)),
        )

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def n_shifts(self) -> int:
        return len(self.line)

    @property
    def shift_move(self) -> np.ndarray:
        """Index of the move each shift belongs to."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))
