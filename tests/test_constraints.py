"""Unit tests for repro.aod.constraints."""

from __future__ import annotations

import numpy as np

from repro.aod.constraints import (
    AodConstraints,
    CROSS_PICKUP,
    EMPTY_MOVE,
    LEAD_COLLISION,
    OUT_OF_BOUNDS,
    TONE_BUDGET,
    check_parallel_move,
)
from repro.aod.move import LineShift, ParallelMove
from repro.lattice.geometry import Direction


def _grid(n=8):
    return np.zeros((n, n), dtype=bool)


def _east(line, start, stop, steps=1):
    return ParallelMove.of([LineShift(Direction.EAST, line, start, stop, steps)])


class TestBounds:
    def test_selected_site_outside(self):
        grid = _grid(4)
        move = _east(0, 2, 6)
        codes = [v.code for v in check_parallel_move(grid, move)]
        assert OUT_OF_BOUNDS in codes

    def test_destination_outside(self):
        grid = _grid(4)
        grid[0, 3] = True
        move = _east(0, 2, 4)
        codes = [v.code for v in check_parallel_move(grid, move)]
        assert OUT_OF_BOUNDS in codes

    def test_leading_site_outside(self):
        grid = _grid(4)
        grid[0, 2] = True
        move = _east(0, 0, 4)  # leading site would be column 4
        codes = [v.code for v in check_parallel_move(grid, move)]
        assert OUT_OF_BOUNDS in codes


class TestLeadCollision:
    def test_blocked_segment_flagged(self):
        grid = _grid()
        grid[0, 1] = True
        grid[0, 3] = True  # static atom in the leading site
        move = _east(0, 0, 3)
        codes = [v.code for v in check_parallel_move(grid, move)]
        assert LEAD_COLLISION in codes

    def test_empty_span_not_flagged(self):
        grid = _grid()
        grid[0, 3] = True  # leading site occupied, but nothing moves
        move = _east(0, 0, 3)
        codes = [v.code for v in check_parallel_move(grid, move)]
        assert LEAD_COLLISION not in codes

    def test_clean_shift_passes(self):
        grid = _grid()
        grid[0, 1] = True
        assert not check_parallel_move(grid, _east(0, 0, 3))


class TestCrossProduct:
    def _two_row_move(self):
        return ParallelMove.of(
            [
                LineShift(Direction.EAST, 0, 0, 2),
                LineShift(Direction.EAST, 1, 4, 6),
            ]
        )

    def test_unintended_pickup_flagged(self):
        grid = _grid()
        grid[0, 0] = True
        grid[1, 4] = True
        grid[0, 5] = True  # bystander at an unintended crossing
        codes = [v.code for v in check_parallel_move(grid, self._two_row_move())]
        assert CROSS_PICKUP in codes

    def test_empty_crossings_pass(self):
        grid = _grid()
        grid[0, 0] = True
        grid[1, 4] = True
        assert not check_parallel_move(grid, self._two_row_move())

    def test_check_disabled(self):
        grid = _grid()
        grid[0, 0] = True
        grid[1, 4] = True
        grid[0, 5] = True
        constraints = AodConstraints(enforce_cross_product=False)
        codes = [
            v.code for v in check_parallel_move(grid, self._two_row_move(), constraints)
        ]
        assert CROSS_PICKUP not in codes


class TestToneBudget:
    def test_line_budget(self):
        grid = _grid()
        move = ParallelMove.of([LineShift(Direction.EAST, r, 0, 2) for r in range(5)])
        constraints = AodConstraints(max_line_tones=4)
        codes = [v.code for v in check_parallel_move(grid, move, constraints)]
        assert TONE_BUDGET in codes

    def test_cross_budget(self):
        grid = _grid()
        move = _east(0, 0, 6)
        constraints = AodConstraints(max_cross_tones=3)
        codes = [v.code for v in check_parallel_move(grid, move, constraints)]
        assert TONE_BUDGET in codes

    def test_unlimited_by_default(self):
        grid = _grid()
        move = ParallelMove.of([LineShift(Direction.EAST, r, 0, 7) for r in range(8)])
        assert not check_parallel_move(grid, move)


class TestEmptyMove:
    def test_flagged_when_forbidden(self):
        grid = _grid()
        constraints = AodConstraints(forbid_empty_moves=True)
        codes = [v.code for v in check_parallel_move(grid, _east(0, 0, 3), constraints)]
        assert EMPTY_MOVE in codes

    def test_allowed_by_default(self):
        grid = _grid()
        assert not check_parallel_move(grid, _east(0, 0, 3))


class TestViolationFormatting:
    def test_str_mentions_code(self):
        grid = _grid()
        grid[0, 1] = True
        grid[0, 3] = True
        violations = check_parallel_move(grid, _east(0, 0, 3))
        assert violations
        assert LEAD_COLLISION in str(violations[0])
