"""The "typical rearrangement procedure" of paper Sec. III-A.

This is the centre-out reference algorithm QRM reorganises: work on the
full array, fill the centre columns first by shifting row suffixes
inward one step at a time (paper Fig. 3, Moves 1-4), then do the same
row-wise for the vertical phase (Moves 5-6), and repeat until no hole
adjacent to the compacted centre remains.

It is implemented independently of the QRM machinery (straightforward
whole-array loops, one-step moves) and serves as a functional oracle:
both algorithms drive each quadrant to the same row/column-compacted
fixpoint, so their final grids must match — an integration test asserts
exactly that.
"""

from __future__ import annotations

import numpy as np

from repro.aod.executor import apply_parallel_move
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.core.result import RearrangementResult, timed_schedule
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Direction


def _innermost_hole_west(row: np.ndarray, half: int) -> int | None:
    """Innermost hole of ``row[:half]`` with atoms west of it, or None.

    The per-site loops of the typical procedure, kept independent of the
    vectorised scan; the Tetris and PSCA reference schedulers use them
    as their innermost-hole oracle too.
    """
    for col in range(half - 1, -1, -1):
        if not row[col]:
            if row[:col].any():
                return col
            return None
    return None


def _innermost_hole_east(row: np.ndarray, half: int, width: int) -> int | None:
    """Innermost hole of ``row[half:width]`` with atoms east of it, or None."""
    for col in range(half, width):
        if not row[col]:
            if row[col + 1 :].any():
                return col
            return None
    return None


class TypicalScheduler:
    """Centre-out rearrangement on the full array (no quadrant split)."""

    name = "typical"

    def __init__(self, geometry: ArrayGeometry, max_phases: int = 64):
        self.geometry = geometry
        self.max_phases = max_phases

    # -- one-step rounds ----------------------------------------------------

    def _horizontal_round(self, array: AtomArray, schedule: list[ParallelMove]) -> int:
        """One simultaneous-move block per hole column; returns shifts done."""
        grid = array.grid
        height, width = grid.shape
        half = width // 2
        west_groups: dict[int, list[int]] = {}
        east_groups: dict[int, list[int]] = {}
        for r in range(height):
            hole = _innermost_hole_west(grid[r], half)
            if hole is not None:
                west_groups.setdefault(hole, []).append(r)
            hole = _innermost_hole_east(grid[r], half, width)
            if hole is not None:
                east_groups.setdefault(hole, []).append(r)

        n_shifts = 0
        for hole_col in sorted(west_groups, reverse=True):
            rows = west_groups[hole_col]
            shifts = [
                LineShift(Direction.EAST, r, span_start=0, span_stop=hole_col)
                for r in rows
            ]
            move = ParallelMove.of(shifts, tag=f"typical-E-h{hole_col}")
            apply_parallel_move(grid, move)
            schedule.append(move)
            n_shifts += len(shifts)
        for hole_col in sorted(east_groups):
            rows = east_groups[hole_col]
            shifts = [
                LineShift(Direction.WEST, r, span_start=hole_col + 1, span_stop=width)
                for r in rows
            ]
            move = ParallelMove.of(shifts, tag=f"typical-W-h{hole_col}")
            apply_parallel_move(grid, move)
            schedule.append(move)
            n_shifts += len(shifts)
        return n_shifts

    def _vertical_round(self, array: AtomArray, schedule: list[ParallelMove]) -> int:
        grid = array.grid
        height, width = grid.shape
        half = height // 2
        north_groups: dict[int, list[int]] = {}
        south_groups: dict[int, list[int]] = {}
        for c in range(width):
            col = grid[:, c]
            hole = _innermost_hole_west(col, half)
            if hole is not None:
                north_groups.setdefault(hole, []).append(c)
            hole = _innermost_hole_east(col, half, height)
            if hole is not None:
                south_groups.setdefault(hole, []).append(c)

        n_shifts = 0
        for hole_row in sorted(north_groups, reverse=True):
            cols = north_groups[hole_row]
            shifts = [
                LineShift(Direction.SOUTH, c, span_start=0, span_stop=hole_row)
                for c in cols
            ]
            move = ParallelMove.of(shifts, tag=f"typical-S-h{hole_row}")
            apply_parallel_move(grid, move)
            schedule.append(move)
            n_shifts += len(shifts)
        for hole_row in sorted(south_groups):
            cols = south_groups[hole_row]
            shifts = [
                LineShift(Direction.NORTH, c, span_start=hole_row + 1, span_stop=height)
                for c in cols
            ]
            move = ParallelMove.of(shifts, tag=f"typical-N-h{hole_row}")
            apply_parallel_move(grid, move)
            schedule.append(move)
            n_shifts += len(shifts)
        return n_shifts

    # -- public API ----------------------------------------------------------

    def schedule(self, array: AtomArray) -> RearrangementResult:
        if array.geometry != self.geometry:
            raise ValueError("array geometry does not match the scheduler's geometry")
        return timed_schedule(lambda: self._analyse(array))

    def _analyse(self, array: AtomArray) -> RearrangementResult:
        live = array.copy()
        moves: list[ParallelMove] = []
        ops = 0
        converged = False
        for _ in range(self.max_phases):
            h_shifts = 0
            while True:
                done = self._horizontal_round(live, moves)
                ops += self.geometry.n_sites
                h_shifts += done
                if done == 0:
                    break
            v_shifts = 0
            while True:
                done = self._vertical_round(live, moves)
                ops += self.geometry.n_sites
                v_shifts += done
                if done == 0:
                    break
            if h_shifts == 0 and v_shifts == 0:
                converged = True
                break
        return RearrangementResult(
            algorithm=self.name,
            initial=array.copy(),
            final=live,
            schedule=MoveSchedule(self.geometry, self.name, moves),
            converged=converged,
            analysis_ops=ops,
        )
