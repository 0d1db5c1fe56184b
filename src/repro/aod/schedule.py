"""Ordered move schedules — the output artefact of every algorithm."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.aod.move import ParallelMove
from repro.aod.table import ScheduleTable
from repro.lattice.geometry import ArrayGeometry, Direction


@dataclass
class MoveSchedule:
    """A sequence of parallel moves produced by a rearrangement algorithm.

    The schedule is ordered: move ``i`` must complete before move
    ``i + 1`` starts (the AWG plays them back to back).  The schedule is
    pure data — replaying it against an initial array is the executor's
    job, validating it the validator's.
    """

    geometry: ArrayGeometry
    algorithm: str = ""
    moves: list[ParallelMove] = field(default_factory=list)

    def append(self, move: ParallelMove) -> None:
        self.moves.append(move)

    def extend(self, moves: list[ParallelMove]) -> None:
        self.moves.extend(moves)

    def __iter__(self) -> Iterator[ParallelMove]:
        return iter(self.moves)

    def __len__(self) -> int:
        return len(self.moves)

    def __getitem__(self, index: int) -> ParallelMove:
        return self.moves[index]

    def table(self) -> ScheduleTable:
        """This schedule in columnar form, built afresh on every call."""
        return ScheduleTable.from_moves(self.moves)

    # -- intrinsic statistics ---------------------------------------------

    @property
    def n_moves(self) -> int:
        return len(self.moves)

    @property
    def n_line_shifts(self) -> int:
        return sum(len(move) for move in self.moves)

    @property
    def total_steps(self) -> int:
        """Sum over moves of step count (proportional to ramp time)."""
        return sum(move.steps for move in self.moves)

    def direction_histogram(self) -> dict[Direction, int]:
        counts: Counter[Direction] = Counter(move.direction for move in self.moves)
        return {d: counts.get(d, 0) for d in Direction}

    def max_line_tones(self) -> int:
        return max((len(move.selected_lines()) for move in self.moves), default=0)

    def max_cross_tones(self) -> int:
        return max((len(move.selected_cross()) for move in self.moves), default=0)

    def summary(self) -> str:
        hist = self.direction_histogram()
        directions = ", ".join(f"{d.value}:{n}" for d, n in hist.items() if n)
        return (
            f"{self.algorithm or 'schedule'}: {self.n_moves} parallel moves, "
            f"{self.n_line_shifts} line shifts, "
            f"max tones {self.max_line_tones()}x{self.max_cross_tones()}, "
            f"directions {{{directions or 'none'}}}"
        )
