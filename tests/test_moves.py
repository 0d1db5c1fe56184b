"""Unit tests for repro.aod.move."""

from __future__ import annotations

import pytest

from repro.aod.move import LineShift, ParallelMove
from repro.errors import MoveError
from repro.lattice.geometry import Direction


class TestLineShift:
    def test_sites_horizontal(self):
        shift = LineShift(Direction.EAST, line=2, span_start=1, span_stop=4)
        assert shift.sites() == [(2, 1), (2, 2), (2, 3)]

    def test_sites_vertical(self):
        shift = LineShift(Direction.SOUTH, line=3, span_start=0, span_stop=2)
        assert shift.sites() == [(0, 3), (1, 3)]

    def test_destination_east(self):
        shift = LineShift(Direction.EAST, 0, 0, 2, steps=3)
        assert shift.destination((0, 1)) == (0, 4)

    def test_destination_north(self):
        shift = LineShift(Direction.NORTH, 5, 4, 6, steps=2)
        assert shift.destination((4, 5)) == (2, 5)

    def test_leading_sites_east(self):
        shift = LineShift(Direction.EAST, 1, 2, 5, steps=2)
        assert shift.leading_sites() == [(1, 5), (1, 6)]

    def test_leading_sites_west(self):
        shift = LineShift(Direction.WEST, 1, 3, 6)
        assert shift.leading_sites() == [(1, 2)]

    def test_leading_sites_north(self):
        shift = LineShift(Direction.NORTH, 2, 4, 7)
        assert shift.leading_sites() == [(3, 2)]

    def test_leading_sites_south(self):
        shift = LineShift(Direction.SOUTH, 2, 4, 7)
        assert shift.leading_sites() == [(7, 2)]

    def test_invalid_span_rejected(self):
        with pytest.raises(MoveError):
            LineShift(Direction.EAST, 0, 3, 3)
        with pytest.raises(MoveError):
            LineShift(Direction.EAST, 0, -1, 3)

    def test_invalid_steps_rejected(self):
        with pytest.raises(MoveError):
            LineShift(Direction.EAST, 0, 0, 2, steps=0)

    def test_negative_line_rejected(self):
        with pytest.raises(MoveError):
            LineShift(Direction.EAST, -1, 0, 2)


class TestParallelMove:
    def _shifts(self, lines, direction=Direction.EAST, steps=1):
        return [
            LineShift(direction, line, span_start=0, span_stop=3, steps=steps)
            for line in lines
        ]

    def test_of_infers_direction_and_steps(self):
        move = ParallelMove.of(self._shifts([0, 1]))
        assert move.direction is Direction.EAST
        assert move.steps == 1
        assert len(move.shifts) == 2

    def test_empty_rejected(self):
        with pytest.raises(MoveError):
            ParallelMove.of([])

    def test_mixed_direction_rejected(self):
        shifts = self._shifts([0]) + self._shifts([1], Direction.WEST)
        with pytest.raises(MoveError):
            ParallelMove.of(shifts)

    def test_mixed_steps_rejected(self):
        shifts = self._shifts([0]) + self._shifts([1], steps=2)
        with pytest.raises(MoveError):
            ParallelMove.of(shifts)

    def test_duplicate_line_rejected(self):
        with pytest.raises(MoveError):
            ParallelMove.of(self._shifts([2, 2]))

    def test_selected_lines_sorted(self):
        move = ParallelMove.of(self._shifts([4, 1, 3]))
        assert move.selected_lines() == [1, 3, 4]

    def test_selected_cross_union(self):
        shifts = [
            LineShift(Direction.EAST, 0, 0, 2),
            LineShift(Direction.EAST, 1, 4, 6),
        ]
        move = ParallelMove.of(shifts)
        assert move.selected_cross() == [0, 1, 4, 5]

    def test_cross_product_includes_unintended(self):
        shifts = [
            LineShift(Direction.EAST, 0, 0, 2),
            LineShift(Direction.EAST, 1, 4, 6),
        ]
        move = ParallelMove.of(shifts)
        cross = set(move.cross_product_sites())
        assert (0, 4) in cross  # row 0 never asked for column 4
        assert (1, 0) in cross

    def test_cross_product_vertical_orientation(self):
        shifts = [LineShift(Direction.SOUTH, 2, 0, 2)]
        move = ParallelMove.of(shifts)
        assert set(move.cross_product_sites()) == {(0, 2), (1, 2)}

    def test_len(self):
        assert len(ParallelMove.of(self._shifts([0, 1, 2]))) == 3

    def test_tag_not_part_of_equality(self):
        a = ParallelMove.of(self._shifts([0]), tag="x")
        b = ParallelMove.of(self._shifts([0]), tag="y")
        assert a == b
