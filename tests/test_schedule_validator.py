"""Unit tests for repro.aod.schedule and repro.aod.validator."""

from __future__ import annotations

from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.validator import validate_schedule
from repro.lattice.array import AtomArray
from repro.lattice.geometry import Direction


def _east(line, start, stop):
    return ParallelMove.of([LineShift(Direction.EAST, line, start, stop)])


def _north(line, start, stop):
    return ParallelMove.of([LineShift(Direction.NORTH, line, start, stop)])


class TestMoveSchedule:
    def test_build_index_iter(self, geo8):
        moves = [_east(0, 0, 2), _east(1, 0, 2), _north(0, 4, 6)]
        schedule = MoveSchedule(geo8, algorithm="t", moves=moves)
        assert len(schedule) == 3
        assert schedule[0].direction is Direction.EAST
        assert [m.direction for m in schedule].count(Direction.NORTH) == 1

    def test_counters(self, geo8):
        move = ParallelMove.of(
            [LineShift(Direction.EAST, 0, 0, 3), LineShift(Direction.EAST, 1, 0, 3)]
        )
        schedule = MoveSchedule(geo8, moves=[move])
        assert schedule.n_line_shifts == 2
        assert schedule.max_line_tones() == 2
        assert schedule.max_cross_tones() == 3

    def test_direction_histogram_complete(self, geo8):
        schedule = MoveSchedule(geo8, moves=[_east(0, 0, 2)])
        hist = schedule.direction_histogram()
        assert set(hist) == set(Direction)
        assert hist[Direction.EAST] == 1
        assert hist[Direction.WEST] == 0

    def test_summary_text(self, geo8):
        schedule = MoveSchedule(geo8, algorithm="demo", moves=[_east(0, 0, 2)])
        text = schedule.summary()
        assert "demo" in text
        assert "1 parallel moves" in text

    def test_empty_schedule_stats(self, geo8):
        schedule = MoveSchedule(geo8)
        assert schedule.max_line_tones() == 0


class TestValidator:
    def test_clean_schedule_ok(self, geo8):
        array = AtomArray(geo8)
        array.set_site(0, 0, True)
        schedule = MoveSchedule(geo8, algorithm="ok", moves=[_east(0, 0, 2)])
        report = validate_schedule(array, schedule)
        assert report.ok
        assert report.atoms_conserved
        assert report.n_moves == 1
        assert report.final_array.is_occupied(0, 1)

    def test_violating_schedule_reported(self, geo8):
        array = AtomArray(geo8)
        array.set_site(0, 0, True)
        array.set_site(0, 2, True)
        schedule = MoveSchedule(geo8, algorithm="bad", moves=[_east(0, 0, 2)])
        report = validate_schedule(array, schedule)
        assert not report.ok
        assert report.violations
        assert report.atoms_conserved  # failed moves are skipped, not lost

    def test_defect_tracking(self, geo8):
        array = AtomArray.full(geo8)
        schedule = MoveSchedule(geo8, algorithm="noop")
        report = validate_schedule(array, schedule)
        assert report.defect_free
        assert report.initial_defects == 0

    def test_format_mentions_algorithm(self, geo8):
        schedule = MoveSchedule(geo8, algorithm="fmt")
        report = validate_schedule(AtomArray(geo8), schedule)
        assert "fmt" in report.format()
