"""PSCA baseline — parallel sorting with a multi-tweezer grid
(Tian et al., Phys. Rev. Applied 19, 034048, 2023).

Tian et al. assemble arbitrary defect-free arrays with a *limited* grid
of mobile tweezers: atoms are first compressed column-wise toward the
target row band, then balanced row-wise, with at most ``max_tweezers``
lines addressed per physical move.  The per-step re-planning over the
whole array is what makes its analysis markedly slower than QRM's single
streaming scan (paper Fig. 7(b): ~246x slower than QRM-CPU).

Reimplementation notes (the original is closed source):

* one-step suffix shifts toward the array centre, exactly like the
  typical procedure, but chunked into batches of at most
  ``max_tweezers`` lines — more, smaller parallel moves;
* the planner re-scans the full occupancy matrix before every batch
  (the published algorithm recomputes its assignment matrix each cycle),
  reproducing the heavier analysis cost profile;
* phases alternate column-compression and row-compression until a full
  sweep makes no progress.

Two implementations share these semantics:
:class:`PscaSchedulerReference` re-scans with per-site Python loops and
is kept as the behavioural oracle; :class:`PscaScheduler` is the
production path, which finds every half-line's innermost hole with one
batched :func:`~repro.core.scan.scan_quadrant` per side and applies each
round's hole closures as a single gather per side.  The two are
property-tested to emit bit-identical schedules
(``tests/test_baseline_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.aod.executor import apply_parallel_move
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.core.result import RearrangementResult, timed_schedule
from repro.core.scan import scan_quadrant
from repro.core.typical import _innermost_hole_east, _innermost_hole_west
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Direction


class PscaScheduler:
    """Tweezer-budgeted centre-ward compression (vectorised planner)."""

    name = "psca"

    def __init__(
        self,
        geometry: ArrayGeometry,
        max_tweezers: int = 8,
        max_phases: int = 64,
    ):
        self.geometry = geometry
        self.max_tweezers = max_tweezers
        self.max_phases = max_phases

    # -- planning helpers -----------------------------------------------

    def _round(
        self, array: AtomArray, schedule: list[ParallelMove], vertical: bool
    ) -> int:
        """One full re-scan + batched execution; returns shifts done.

        Each half of every line is scanned for its innermost hole with
        one :func:`scan_quadrant` per side (centre-first local views),
        the groups flush in the reference's ``(direction.value, hole)``
        order, and the round's net effect — every addressed line's first
        hole closes by one suffix shift — lands as one gather per side.
        """
        grid = array.grid
        height, width = grid.shape
        if vertical:
            half = height // 2
            span_len = height
            # Local views are line-major with position 0 innermost.
            sides = (
                (Direction.NORTH, np.ascontiguousarray(grid[half:, :].T), half, +1),
                (
                    Direction.SOUTH,
                    np.ascontiguousarray(grid[:half, :][::-1, :].T),
                    half - 1,
                    -1,
                ),
            )
        else:
            half = width // 2
            span_len = width
            sides = (
                (
                    Direction.EAST,
                    np.ascontiguousarray(grid[:, :half][:, ::-1]),
                    half - 1,
                    -1,
                ),
                (Direction.WEST, np.ascontiguousarray(grid[:, half:]), half, +1),
            )

        n_shifts = 0
        closures = []
        for direction, local, base, sign in sides:
            scan = scan_quadrant(local, axis=0)
            counts = scan.line_counts
            has = counts > 0
            if not has.any():
                continue
            offsets = np.zeros(counts.size, dtype=np.intp)
            np.cumsum(counts[:-1], out=offsets[1:])
            lines_idx = np.nonzero(has)[0]
            first = scan.hole_positions[offsets[has]]
            holes_full = base + sign * first
            closures.append((direction, local, lines_idx, first))
            n_shifts += int(lines_idx.size)

            # Flush groups in ascending-hole order, lines ascending
            # within a group, chunked to the tweezer budget.
            order = np.lexsort((lines_idx, holes_full))
            holes_sorted = holes_full[order].tolist()
            lines_sorted = lines_idx[order].tolist()
            starts = np.nonzero(np.r_[True, np.diff(holes_full[order]) != 0])[0]
            ends = np.append(starts[1:], len(holes_sorted))
            inward = direction in (Direction.EAST, Direction.SOUTH)
            for lo, hi in zip(starts.tolist(), ends.tolist()):
                hole = holes_sorted[lo]
                span = (0, hole) if inward else (hole + 1, span_len)
                tag = f"psca-{direction.value}-h{hole}"
                for start in range(lo, hi, self.max_tweezers):
                    chunk = lines_sorted[start : min(start + self.max_tweezers, hi)]
                    shifts = tuple(
                        LineShift.trusted(direction, line, span[0], span[1])
                        for line in chunk
                    )
                    schedule.append(ParallelMove.trusted(direction, 1, shifts, tag=tag))

        # Net grid update: close every addressed line's first hole.  The
        # two sides of one round own disjoint grid halves, so their
        # closures commute with the emission order above.
        for direction, local, lines_idx, first in closures:
            n_pos = local.shape[1]
            idx = np.arange(n_pos)
            padded = np.concatenate(
                [local[lines_idx], np.zeros((lines_idx.size, 1), dtype=bool)],
                axis=1,
            )
            take = idx[None, :] + (idx[None, :] >= first[:, None])
            local[lines_idx] = padded[np.arange(lines_idx.size)[:, None], take]
            if vertical:
                if direction is Direction.NORTH:
                    grid[height // 2 :, :] = local.T
                else:
                    grid[: height // 2, :] = local.T[::-1, :]
            else:
                if direction is Direction.WEST:
                    grid[:, width // 2 :] = local
                else:
                    grid[:, : width // 2] = local[:, ::-1]
        return n_shifts

    # -- public API -------------------------------------------------------

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
            progressed = 0
            while True:
                ops += self.geometry.n_sites
                done = self._round(live, moves, vertical=True)
                progressed += done
                if done == 0:
                    break
            while True:
                ops += self.geometry.n_sites
                done = self._round(live, moves, vertical=False)
                progressed += done
                if done == 0:
                    break
            if progressed == 0:
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


class PscaSchedulerReference(PscaScheduler):
    """Per-site re-scanning implementation kept as the oracle.

    Semantically the seed scheduler: every round walks the occupancy
    matrix site by site and replays each batch through the general
    executor.  :class:`PscaScheduler` must emit bit-identical schedules
    — the differential property tests enforce it.
    """

    def _round(
        self, array: AtomArray, schedule: list[ParallelMove], vertical: bool
    ) -> int:
        groups = self._plan_lines(array.grid, vertical)
        return self._emit_batches(array, schedule, groups, vertical)

    def _plan_lines(
        self, grid: np.ndarray, vertical: bool
    ) -> dict[tuple[Direction, int], list[int]]:
        """Full re-scan: innermost hole per half-line, grouped for batching."""
        height, width = grid.shape
        groups: dict[tuple[Direction, int], list[int]] = {}
        if vertical:
            half = height // 2
            for c in range(width):
                col = grid[:, c]
                hole = _innermost_hole_west(col, half)
                if hole is not None:
                    groups.setdefault((Direction.SOUTH, hole), []).append(c)
                hole = _innermost_hole_east(col, half, height)
                if hole is not None:
                    groups.setdefault((Direction.NORTH, hole), []).append(c)
        else:
            half = width // 2
            for r in range(height):
                row = grid[r]
                hole = _innermost_hole_west(row, half)
                if hole is not None:
                    groups.setdefault((Direction.EAST, hole), []).append(r)
                hole = _innermost_hole_east(row, half, width)
                if hole is not None:
                    groups.setdefault((Direction.WEST, hole), []).append(r)
        return groups

    def _emit_batches(
        self,
        array: AtomArray,
        schedule: list[ParallelMove],
        groups: dict[tuple[Direction, int], list[int]],
        vertical: bool,
    ) -> int:
        """Execute each group in tweezer-budget chunks; returns shifts done."""
        grid = array.grid
        height, width = grid.shape
        n_shifts = 0
        for (direction, hole), lines in sorted(
            groups.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        ):
            for start in range(0, len(lines), self.max_tweezers):
                chunk = lines[start : start + self.max_tweezers]
                shifts = []
                for line in chunk:
                    if direction in (Direction.EAST, Direction.SOUTH):
                        span = (0, hole)
                    else:
                        span = (hole + 1, height if vertical else width)
                    shifts.append(
                        LineShift(
                            direction=direction,
                            line=line,
                            span_start=span[0],
                            span_stop=span[1],
                        )
                    )
                move = ParallelMove.of(shifts, tag=f"psca-{direction.value}-h{hole}")
                apply_parallel_move(grid, move)
                schedule.append(move)
                n_shifts += len(shifts)
        return n_shifts
