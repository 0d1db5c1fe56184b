"""Ordered move schedules — the output artefact of every algorithm."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.aod.move import ParallelMove
from repro.aod.table import DIRECTIONS, ScheduleTable
from repro.lattice.geometry import ArrayGeometry, Direction


class MoveSchedule:
    """A sequence of parallel moves produced by a rearrangement algorithm.

    The schedule is ordered: move ``i`` must complete before move
    ``i + 1`` starts (the AWG plays them back to back).  The schedule is
    pure data — replaying it against an initial array is the executor's
    job, validating it the validator's.

    It is stored as a :class:`~repro.aod.table.ScheduleTable` plus one
    tag per move, and nothing else: the vectorised schedulers hand over
    their columns (:meth:`from_table`), and a schedule built from
    :class:`ParallelMove` objects flattens them once, at construction
    (refusing a ``trusted`` bundle that breaks the lockstep rules, as
    :meth:`~repro.aod.table.ScheduleTable.from_moves` does).
    Iteration, indexing and :attr:`moves` build fresh objects on every
    access, so a pickled schedule carries only columns and strings.
    """

    __slots__ = ("geometry", "algorithm", "_table", "_tags")

    def __init__(
        self,
        geometry: ArrayGeometry,
        algorithm: str = "",
        moves: Iterable[ParallelMove] = (),
    ):
        moves = list(moves)
        self.geometry = geometry
        self.algorithm = algorithm
        self._table = ScheduleTable.from_moves(moves)
        self._tags = tuple(move.tag for move in moves)

    @classmethod
    def from_table(
        cls,
        geometry: ArrayGeometry,
        table: ScheduleTable,
        tags: Sequence[str],
        algorithm: str = "",
    ) -> MoveSchedule:
        """A schedule holding ``table`` as is, with one tag per move."""
        tags = tuple(tags)
        if len(tags) != len(table):
            raise ValueError(f"{len(tags)} tags for {len(table)} moves")
        schedule = cls.__new__(cls)
        schedule.geometry = geometry
        schedule.algorithm = algorithm
        schedule._table = table
        schedule._tags = tags
        return schedule

    def table(self) -> ScheduleTable:
        """This schedule in columnar form: the stored table itself."""
        return self._table

    @property
    def tags(self) -> tuple[str, ...]:
        return self._tags

    @property
    def moves(self) -> list[ParallelMove]:
        """Every move as a new object (built on each access, never stored)."""
        return self._table.moves(self._tags)

    def __iter__(self) -> Iterator[ParallelMove]:
        return iter(self.moves)

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index: int | slice) -> ParallelMove | list[ParallelMove]:
        if isinstance(index, slice):
            return self.moves[index]
        n = len(self)
        position = index + n if index < 0 else index
        if not 0 <= position < n:
            raise IndexError("schedule index out of range")
        return self._table.moves(self._tags, position, position + 1)[0]

    def __eq__(self, other: object) -> bool:
        # Tags do not take part, as in ParallelMove equality.
        if not isinstance(other, MoveSchedule):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and self.algorithm == other.algorithm
            and self._table == other._table
        )

    def __repr__(self) -> str:
        return (
            f"MoveSchedule(geometry={self.geometry!r}, "
            f"algorithm={self.algorithm!r}, n_moves={len(self)})"
        )

    # -- intrinsic statistics ---------------------------------------------

    @property
    def n_moves(self) -> int:
        return len(self)

    @property
    def n_line_shifts(self) -> int:
        return self._table.n_shifts

    def direction_histogram(self) -> dict[Direction, int]:
        counts = np.bincount(self._table.direction, minlength=len(DIRECTIONS))
        by_direction = dict(zip(DIRECTIONS, counts.tolist()))
        return {d: by_direction[d] for d in Direction}

    def max_line_tones(self) -> int:
        return int(np.diff(self._table.offsets).max(initial=0))

    def max_cross_tones(self) -> int:
        move, _ = self._table.span_union()
        return int(np.bincount(move).max(initial=0))

    def summary(self) -> str:
        hist = self.direction_histogram()
        directions = ", ".join(f"{d.value}:{n}" for d, n in hist.items() if n)
        return (
            f"{self.algorithm or 'schedule'}: {self.n_moves} parallel moves, "
            f"{self.n_line_shifts} line shifts, "
            f"max tones {self.max_line_tones()}x{self.max_cross_tones()}, "
            f"directions {{{directions or 'none'}}}"
        )
