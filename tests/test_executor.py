"""Unit tests for repro.aod.executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aod.executor import (
    apply_parallel_move,
    apply_parallel_move_reference,
    execute_schedule,
)
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.errors import MoveError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import Direction


def _east(line, start, stop, steps=1):
    return ParallelMove.of([LineShift(Direction.EAST, line, start, stop, steps)])


def _south(line, start, stop, steps=1):
    return ParallelMove.of([LineShift(Direction.SOUTH, line, start, stop, steps)])


class TestApplyParallelMove:
    def test_suffix_shift_fills_hole(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[0, 0] = True
        grid[0, 1] = True
        moved = apply_parallel_move(grid, _east(0, 0, 2))
        assert moved == 2
        assert list(grid[0]) == [False, True, True, False]

    def test_vertical_shift(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[0, 2] = True
        moved = apply_parallel_move(grid, _south(2, 0, 1, steps=3))
        assert moved == 1
        assert grid[3, 2] and not grid[0, 2]

    def test_empty_span_moves_nothing(self):
        grid = np.zeros((4, 4), dtype=bool)
        assert apply_parallel_move(grid, _east(0, 0, 2)) == 0

    def test_collision_raises_and_preserves_grid(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[0, 1] = True
        grid[0, 2] = True  # static blocker just past the span
        before = grid.copy()
        with pytest.raises(MoveError):
            apply_parallel_move(grid, _east(0, 0, 2))
        assert np.array_equal(grid, before)

    def test_off_grid_raises(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[0, 3] = True
        with pytest.raises(MoveError):
            apply_parallel_move(grid, _east(0, 3, 4))

    def test_multi_line_failure_leaves_grid_untouched(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[0, 0] = True  # line 0 is fine
        grid[1, 1] = True
        grid[1, 2] = True  # line 1 collides
        move = ParallelMove.of(
            [
                LineShift(Direction.EAST, 0, 0, 2),
                LineShift(Direction.EAST, 1, 0, 2),
            ]
        )
        before = grid.copy()
        with pytest.raises(MoveError):
            apply_parallel_move(grid, move)
        assert np.array_equal(grid, before)

    def test_row_outside_grid(self):
        grid = np.zeros((4, 4), dtype=bool)
        with pytest.raises(MoveError):
            apply_parallel_move(grid, _east(9, 0, 2))

    def test_matches_reference_on_examples(self, rng):
        for _ in range(50):
            grid = rng.random((6, 6)) < 0.4
            start = int(rng.integers(0, 4))
            stop = int(rng.integers(start + 1, 6))
            line = int(rng.integers(0, 6))
            move = _east(line, start, stop)
            fast = grid.copy()
            slow = grid.copy()
            try:
                moved_fast = apply_parallel_move(fast, move)
                failed_fast = False
            except MoveError:
                failed_fast = True
            try:
                moved_slow = apply_parallel_move_reference(slow, move)
                failed_slow = False
            except MoveError:
                failed_slow = True
            assert failed_fast == failed_slow
            if not failed_fast:
                assert moved_fast == moved_slow
                assert np.array_equal(fast, slow)


class TestExecuteSchedule:
    def _schedule(self, geo, moves):
        return MoveSchedule(geo, algorithm="test", moves=moves)

    def test_conserves_atoms(self, geo8):
        array = AtomArray(geo8)
        array.set_site(0, 0, True)
        schedule = self._schedule(geo8, [_east(0, 0, 2), _east(0, 1, 3)])
        final, report = execute_schedule(array, schedule)
        assert final.n_atoms == 1
        assert report.n_moves == 2
        assert report.n_atom_displacements == 2
        assert report.ok

    def test_initial_array_untouched(self, geo8):
        array = AtomArray(geo8)
        array.set_site(0, 0, True)
        schedule = self._schedule(geo8, [_east(0, 0, 2)])
        execute_schedule(array, schedule)
        assert array.is_occupied(0, 0)

    def test_strict_raises_on_violation(self, geo8):
        array = AtomArray(geo8)
        array.set_site(0, 0, True)
        array.set_site(0, 2, True)
        schedule = self._schedule(geo8, [_east(0, 0, 2)])
        with pytest.raises(MoveError):
            execute_schedule(array, schedule, strict=True)

    def test_lenient_records_and_skips(self, geo8):
        array = AtomArray(geo8)
        array.set_site(0, 0, True)
        array.set_site(0, 2, True)
        schedule = self._schedule(geo8, [_east(0, 0, 2)])
        final, report = execute_schedule(array, schedule, strict=False)
        assert not report.ok
        assert report.n_failed_moves + len(report.violations) >= 1
        assert final.n_atoms == 2  # nothing lost

    def test_empty_move_counted(self, geo8):
        array = AtomArray(geo8)
        schedule = self._schedule(geo8, [_east(0, 0, 2)])
        _, report = execute_schedule(array, schedule)
        assert report.n_empty_moves == 1

    def test_no_constraint_checking_when_disabled(self, geo8):
        array = AtomArray(geo8)
        array.set_site(0, 0, True)
        schedule = self._schedule(geo8, [_east(0, 0, 2)])
        _, report = execute_schedule(array, schedule, constraints=None)
        assert report.ok
