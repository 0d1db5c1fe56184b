"""Tetris baseline — row-by-row assembly with maximum parallelism
(Wang et al., Phys. Rev. Applied 19, 054032, 2023).

Wang et al. assemble the target like falling Tetris rows: target rows
are completed one at a time from the centre outward; each row first
compresses its own atoms horizontally into the target columns, then
pulls replacements for the remaining defects vertically from the
reservoir rows outboard of it, batching every simultaneous-compatible
pull into one multi-tweezer move ("maximum parallelism").  Its analysis
walks the occupancy matrix per target row, which the paper measures at
roughly 20x the QRM-CPU analysis time.

Reimplementation notes (the original runs on an FPGA's ARM core, no
source available):

* horizontal compression uses one-step suffix shifts, identical physics
  to the typical procedure, restricted to the row being assembled;
* vertical pulls are ``steps = k`` single-site transports; pulls that
  share the same source row (same ``k``) are merged into one parallel
  move, which is the cross-product-safe maximal merge;
* rows that cannot be completed (exhausted reservoir above them) are
  left defective and counted, as in the original when loading is unlucky.

Two implementations share these semantics:
:class:`TetrisSchedulerReference` is the per-site re-scanning state
machine kept as the behavioural oracle, and :class:`TetrisScheduler` is
the production path, which plans each row's full compression sequence
from one :func:`~repro.core.scan.scan_line` call (the re-scanned
innermost hole after ``k`` executed shifts is the ``k``-th scanned hole
displaced by ``k`` — the same suffix-shift identity the QRM pass drains
with) and each row's pulls from one column-batched ``argmax``.  The two
are property-tested to emit bit-identical schedules
(``tests/test_baseline_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.aod.executor import apply_parallel_move
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.core.result import RearrangementResult, timed_schedule
from repro.core.scan import scan_line
from repro.core.typical import _innermost_hole_east, _innermost_hole_west
from repro.errors import UnsupportedGeometryError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Direction


class TetrisScheduler:
    """Centre-out row-by-row target assembly (vectorised planner)."""

    name = "tetris"

    def __init__(self, geometry: ArrayGeometry):
        if not geometry.is_rect_target:
            raise UnsupportedGeometryError(
                "tetris assembles row-by-row rectangles; it does not "
                "support non-rectangular target masks (use qrm-repair)"
            )
        self.geometry = geometry

    # -- helpers -----------------------------------------------------------

    def _compress_row(
        self, array: AtomArray, schedule: list[ParallelMove], row: int
    ) -> int:
        """Fully compact ``row`` toward the centre columns; returns ops.

        One :func:`scan_line` per half replaces the reference's re-scan
        after every shift: the hole scanned at position ``h_k`` is
        executed as the row's ``k``-th command at ``h_k - k``, exactly
        the identity the reference's innermost-hole search converges to.
        """
        grid = array.grid
        width = self.geometry.width
        half = width // 2
        line = grid[row]

        # West half in centre-first orientation (local 0 = column half-1).
        west = scan_line(line[:half][::-1])
        # East half is already centre-first (local 0 = column half).
        east = scan_line(line[half:])
        rounds = np.arange(max(west.n_commands, east.n_commands))
        west_holes = half - 1 - (west.holes - rounds[: west.n_commands])
        east_holes = half + (east.holes - rounds[: east.n_commands])

        # Spans are valid by construction (every executed hole still has
        # an atom outboard), so the trusted bulk constructors apply.
        tag = f"tetris-row{row}"
        west_list = west_holes.tolist()
        east_list = east_holes.tolist()
        for k in range(rounds.size):
            if k < len(west_list):
                shift = LineShift.trusted(
                    Direction.EAST,
                    row,
                    span_start=0,
                    span_stop=west_list[k],
                )
                schedule.append(
                    ParallelMove.trusted(Direction.EAST, 1, (shift,), tag=tag)
                )
            if k < len(east_list):
                shift = LineShift.trusted(
                    Direction.WEST,
                    row,
                    span_start=east_list[k] + 1,
                    span_stop=width,
                )
                schedule.append(
                    ParallelMove.trusted(Direction.WEST, 1, (shift,), tag=tag)
                )

        # Net effect of executing every command: both halves compact
        # toward the centre columns.
        line[:half] = False
        line[half - west.n_atoms : half] = True
        line[half:] = False
        line[half : half + east.n_atoms] = True
        # The reference re-scans once more to observe no remaining hole.
        return width * (rounds.size + 1)

    def _pull_defects(
        self, array: AtomArray, schedule: list[ParallelMove], row: int, outboard: int
    ) -> tuple[int, int]:
        """Pull atoms into ``row``'s empty target sites from outboard rows.

        ``outboard`` is +1 when the reservoir lies at larger row indices
        (south half) and -1 otherwise.  Returns (ops, unresolved).
        All columns' nearest outboard sources come from one ``argmax``
        over the outboard block instead of a per-column walk.
        """
        grid = array.grid
        target = self.geometry.target_region
        height = self.geometry.height
        cols = np.arange(target.col0, target.col_stop)
        ops = height * cols.size

        need = cols[~grid[row, cols]]
        block = grid[:row, need] if outboard < 0 else grid[row + 1 :, need]
        if not block.size:
            return ops, int(need.size)
        if outboard < 0:
            sources = row - 1 - np.argmax(block[::-1, :], axis=0)
        else:
            sources = row + 1 + np.argmax(block, axis=0)
        found = block.any(axis=0)
        unresolved = int(need.size - np.count_nonzero(found))
        need = need[found]
        sources = sources[found]

        direction = Direction.NORTH if outboard > 0 else Direction.SOUTH
        for source_row in np.unique(sources):
            pulled = need[sources == source_row]
            steps = abs(int(source_row) - row)
            shifts = [
                LineShift(
                    direction=direction,
                    line=int(col),
                    span_start=int(source_row),
                    span_stop=int(source_row) + 1,
                    steps=steps,
                )
                for col in pulled
            ]
            schedule.append(ParallelMove.of(shifts, tag=f"tetris-pull-r{row}"))
            grid[source_row, pulled] = False
            grid[row, pulled] = True
        return ops, unresolved

    # -- public API --------------------------------------------------------

    def schedule(self, array: AtomArray) -> RearrangementResult:
        if array.geometry != self.geometry:
            raise ValueError("array geometry does not match the scheduler's geometry")
        return timed_schedule(lambda: self._analyse(array))

    def _analyse(self, array: AtomArray) -> RearrangementResult:
        live = array.copy()
        moves: list[ParallelMove] = []
        target = self.geometry.target_region
        half = self.geometry.height // 2
        ops = 0
        unresolved = 0

        north_rows = list(range(half - 1, target.row0 - 1, -1))
        south_rows = list(range(half, target.row_stop))
        for row in north_rows:
            ops += self._compress_row(live, moves, row)
            pull_ops, missing = self._pull_defects(live, moves, row, outboard=-1)
            ops += pull_ops
            unresolved += missing
        for row in south_rows:
            ops += self._compress_row(live, moves, row)
            pull_ops, missing = self._pull_defects(live, moves, row, outboard=+1)
            ops += pull_ops
            unresolved += missing

        return RearrangementResult(
            algorithm=self.name,
            initial=array.copy(),
            final=live,
            schedule=MoveSchedule(self.geometry, self.name, moves),
            converged=unresolved == 0,
            analysis_ops=ops,
            unresolved_defects=unresolved,
        )


class TetrisSchedulerReference(TetrisScheduler):
    """Per-site re-scanning implementation kept as the oracle.

    Semantically the seed scheduler: every compression shift re-scans
    the row for its innermost hole and every pull walks its column.
    :class:`TetrisScheduler` must emit bit-identical schedules — the
    differential property tests enforce it.
    """

    def _compress_row(
        self, array: AtomArray, schedule: list[ParallelMove], row: int
    ) -> int:
        grid = array.grid
        width = self.geometry.width
        half = width // 2
        ops = 0
        while True:
            ops += width
            shifts = []
            line = grid[row]
            hole = _innermost_hole_west(line, half)
            if hole is not None:
                shifts.append(
                    LineShift(Direction.EAST, row, span_start=0, span_stop=hole)
                )
            hole = _innermost_hole_east(line, half, width)
            if hole is not None:
                shifts.append(
                    LineShift(Direction.WEST, row, span_start=hole + 1, span_stop=width)
                )
            if not shifts:
                return ops
            for shift in shifts:
                move = ParallelMove.of([shift], tag=f"tetris-row{row}")
                apply_parallel_move(grid, move)
                schedule.append(move)

    def _pull_defects(
        self, array: AtomArray, schedule: list[ParallelMove], row: int, outboard: int
    ) -> tuple[int, int]:
        grid = array.grid
        target = self.geometry.target_region
        height = self.geometry.height
        ops = 0

        # Group pull candidates by source row => maximum parallel merge.
        pulls_by_source: dict[int, list[int]] = {}
        unresolved = 0
        for col in range(target.col0, target.col_stop):
            ops += height
            if grid[row, col]:
                continue
            source_row = None
            r = row + outboard
            while 0 <= r < height:
                if grid[r, col]:
                    source_row = r
                    break
                r += outboard
            if source_row is None:
                unresolved += 1
                continue
            pulls_by_source.setdefault(source_row, []).append(col)

        for source_row in sorted(pulls_by_source):
            cols = pulls_by_source[source_row]
            steps = abs(source_row - row)
            direction = Direction.NORTH if outboard > 0 else Direction.SOUTH
            shifts = [
                LineShift(
                    direction=direction,
                    line=col,
                    span_start=source_row,
                    span_stop=source_row + 1,
                    steps=steps,
                )
                for col in cols
            ]
            move = ParallelMove.of(shifts, tag=f"tetris-pull-r{row}")
            apply_parallel_move(grid, move)
            schedule.append(move)
        return ops, unresolved
