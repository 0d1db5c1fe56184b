"""Table-driven move application: identical to the per-shift executor.

:class:`repro.aod.executor.MoveApplier` plans every site of a schedule
up front from its :class:`~repro.aod.table.ScheduleTable` and then
applies each move with one gather, one check and one scatter.  It must
agree with :func:`apply_parallel_move` (and therefore with the
site-by-site reference) on the resulting grid, the displaced-atom
count, and — because violations delegate to the per-shift path on the
untouched grid — on the exact :class:`~repro.errors.MoveError` raised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import atom_arrays

from repro.aod.executor import (
    MoveApplier,
    apply_parallel_move,
    apply_parallel_move_reference,
    execute_schedule,
)
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.baselines.tetris import TetrisScheduler
from repro.core.qrm import QrmScheduler
from repro.errors import MoveError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Direction

GRID_N = 10
GEOMETRY = ArrayGeometry.square(GRID_N)


@st.composite
def grids(draw):
    bits = draw(
        st.lists(st.booleans(), min_size=GRID_N * GRID_N, max_size=GRID_N * GRID_N)
    )
    return np.array(bits, dtype=bool).reshape(GRID_N, GRID_N)


@st.composite
def moves(draw):
    """Wide moves (up to 8 lines), spans reaching both grid edges.

    One move in four may also reach one line or site past the grid.
    """
    direction = draw(st.sampled_from(list(Direction)))
    steps = draw(st.integers(1, 3))
    n_lines = draw(st.integers(1, 8))
    reach = GRID_N + draw(st.sampled_from((0, 0, 0, 1)))
    lines = draw(
        st.lists(
            st.integers(0, reach - 1),
            min_size=n_lines,
            max_size=n_lines,
            unique=True,
        )
    )
    shifts = []
    for line in lines:
        start = draw(st.integers(0, reach - 1))
        stop = draw(st.integers(start + 1, reach))
        shifts.append(
            LineShift(direction, line, span_start=start, span_stop=stop, steps=steps)
        )
    return ParallelMove.of(shifts)


def _apply(apply, grid, move):
    """(moved count or None, error message or None) of one application."""
    try:
        return apply(grid, move), None
    except MoveError as exc:
        return None, str(exc)


def _table_apply(grid, move):
    return MoveApplier(grid, MoveSchedule(GEOMETRY, moves=[move])).apply(0).size


@given(grids(), moves())
@settings(max_examples=300)
def test_batched_executor_equals_per_shift(grid, move):
    batched = grid.copy()
    per_shift = grid.copy()
    expected = _apply(apply_parallel_move, per_shift, move)
    assert _apply(_table_apply, batched, move) == expected
    # On error both grids are untouched; otherwise both moved alike.
    assert np.array_equal(batched, per_shift)


@given(grids(), st.lists(moves(), min_size=1, max_size=6))
@settings(max_examples=150)
def test_applier_tracks_the_grid_across_a_schedule(grid, schedule_moves):
    # Sites are planned once for the whole schedule, so every later
    # move must see the grid the earlier ones (and failures) left.
    live = grid.copy()
    applier = MoveApplier(live, MoveSchedule(GEOMETRY, moves=schedule_moves))
    per_shift = grid.copy()
    for index, move in enumerate(schedule_moves):
        before = live.copy()
        expected = _apply(apply_parallel_move, per_shift, move)
        landing = None
        try:
            landing = applier.apply(index)
            got = (landing.size, None)
        except MoveError as exc:
            got = (None, str(exc))
        assert got == expected
        assert np.array_equal(live, per_shift)
        if landing is not None:
            # Landing sites are occupied now and were the destinations
            # of atoms the move carried.
            assert applier.flat[landing].all()
            assert np.unique(landing).size == landing.size
        else:
            assert np.array_equal(live, before)


#: A shift that breaks lockstep in an EAST move of one step, by how.
OFF_LOCKSTEP = {
    "reversed": LineShift(Direction.WEST, 3, 1, 2),
    "longer": LineShift(Direction.EAST, 3, 1, 2, steps=2),
}


@pytest.mark.parametrize("rogue", list(OFF_LOCKSTEP))
def test_a_shift_off_lockstep_is_refused_by_both_object_appliers(rogue):
    # ParallelMove.trusted skips the lockstep check, so a buggy bulk
    # producer could bundle a shift that moves unlike its move.  Both
    # object paths refuse it with the constructor's message before
    # touching the grid, although the shift alone would be valid here.
    grid = np.zeros((8, 8), dtype=bool)
    grid[[0, 1, 2, 3], 1] = True
    shifts = tuple(LineShift(Direction.EAST, line, 1, 2) for line in range(3))
    shifts += (OFF_LOCKSTEP[rogue],)
    with pytest.raises(MoveError) as constructed:
        ParallelMove(Direction.EAST, 1, shifts)
    bundle = ParallelMove.trusted(Direction.EAST, 1, shifts)
    for apply in (apply_parallel_move, apply_parallel_move_reference):
        work = grid.copy()
        with pytest.raises(MoveError) as refused:
            apply(work, bundle)
        assert str(refused.value) == str(constructed.value)
        assert np.array_equal(work, grid)


@given(atom_arrays())
@settings(max_examples=20, deadline=None)
def test_schedule_replay_matches_scheduler_final(array):
    """End-to-end: table-driven replay reproduces each scheduler's final grid."""
    for scheduler in (
        QrmScheduler(array.geometry),
        TetrisScheduler(array.geometry),
    ):
        result = scheduler.schedule(array)
        final, report = execute_schedule(array, result.schedule, constraints=None)
        assert report.ok
        assert final == result.final
        assert report.n_moves == len(result.schedule)


def _run_plan_schedule() -> MoveSchedule:
    """Eight moves whose runs break for each reason the plan knows."""

    def shift(direction, line, start=0, stop=2):
        return LineShift(direction, line, span_start=start, span_stop=stop)

    east, south = Direction.EAST, Direction.SOUTH
    # Column 3's span reaches the last row, whose atom would leave the
    # grid: the applier checks that move on its own.
    leaving = LineShift.trusted(south, 3, GRID_N - 2, GRID_N, 1)
    return MoveSchedule(
        GEOMETRY,
        moves=[
            ParallelMove.of([shift(east, 1), shift(east, 2)]),
            ParallelMove.of([shift(east, 3)]),
            ParallelMove.of([shift(Direction.WEST, 4, 2, 4)]),
            ParallelMove.of([shift(east, 2)]),  # row 2 again
            ParallelMove.of([shift(south, 1)]),  # a column move
            ParallelMove.of([shift(south, 2)]),
            ParallelMove.trusted(south, 1, (leaving,)),
            ParallelMove.of([shift(south, 4)]),
        ],
    )


def test_runs_break_at_a_repeated_line_an_axis_change_and_a_flagged_move():
    applier = MoveApplier(np.zeros(GEOMETRY.shape, dtype=bool), _run_plan_schedule())
    offsets = applier._site_offsets  # every move selects a site
    runs = [(offsets.index(a), offsets.index(b), m) for a, b, m in applier._runs()]
    # Rows driven either way form one run, until row 2 comes back; the
    # column moves form another, which the flagged move splits, alone
    # and checked.
    assert runs == [(0, 3, None), (3, 4, None), (4, 6, None), (6, 7, 6), (7, 8, None)]


def test_apply_and_execute_schedule_do_not_plan_runs(monkeypatch):
    def unplanned(self):
        raise AssertionError("only carry plans runs")

    monkeypatch.setattr(MoveApplier, "_runs", unplanned)
    schedule = _run_plan_schedule()
    grid = np.zeros(GEOMETRY.shape, dtype=bool)
    grid[1, 0] = grid[0, 4] = True
    applier = MoveApplier(grid.copy(), schedule)
    for index in range(len(schedule)):
        applier.apply(index)
    final, report = execute_schedule(AtomArray(GEOMETRY, grid), schedule, None)
    assert report.ok and np.array_equal(final.grid, applier.grid)
