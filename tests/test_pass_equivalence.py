"""Bit-identity of the vectorised pass against its reference oracles.

The vectorised :func:`repro.core.passes.run_pass` must emit exactly the
schedule of the per-command :func:`run_pass_reference`: same moves, same
tags, same order, same statistics, same final grid.  These tests enforce
that for single passes and end-to-end schedules, over one array and over
stacks of several, across scan modes, mirror merging, and the ``s_en``
bound.

The identity assertions live in the shared :mod:`oracles` harness —
this suite is the QRM instantiation of the repository-wide
differential-oracle convention (see README, "Testing convention").
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PASS_EDGE_SIZES,
    assert_moves_identical,
    assert_pass_outcomes_identical,
    atom_arrays,
    geometries,
    occupancy_grids,
    pass_of_one,
    pass_of_stack,
    rectangular_geometries,
    scan_limits,
)

from repro.config import QrmParameters, ScanMode
from repro.core.passes import (
    QUADRANT_ORDER,
    Phase,
    _fold,
    _lines,
    _unfold,
    _unlines,
    batch_order_key,
    pass_plan,
    run_pass,
    run_pass_reference,
)
from repro.core.qrm import QrmScheduler, QrmSchedulerReference
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Direction, Quadrant
from repro.lattice.loading import load_uniform


class TestQuadrantLocalFold:
    """The load step: a stack is folded into quadrant-local space once.

    Every pass then reads the fold as the folded lines of its phase, so
    each line must be exactly the quadrant line the reference scans
    (:meth:`~repro.lattice.geometry.QuadrantFrame.extract`), and the
    write-back must restore the stack.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), geometry=geometries() | rectangular_geometries())
    def test_fold_lines_are_the_reference_extraction(self, data, geometry):
        count = data.draw(st.integers(min_value=1, max_value=3))
        stack = np.stack([data.draw(occupancy_grids(geometry)) for _ in range(count)])
        frames = {q: geometry.quadrant_frame(q) for q in Quadrant}
        local = _fold(stack, frames)
        restored = np.zeros_like(stack)
        _unfold(local, frames, restored)
        assert np.array_equal(restored, stack)
        for phase in Phase:
            plan = pass_plan(frames, phase)
            lines = _lines(local, phase)
            assert lines.shape == (count * plan.n_folded, plan.n_positions)
            for trial, grid in enumerate(stack):
                for index, quadrant in enumerate(QUADRANT_ORDER):
                    extracted = frames[quadrant].extract(grid)
                    if phase is Phase.COLUMN:
                        extracted = extracted.T
                    first = trial * plan.n_folded + index * plan.n_lines
                    block = lines[first : first + plan.n_lines]
                    assert np.array_equal(block, extracted)
            assert np.array_equal(_unlines(lines, phase, count), local)


class TestSinglePassEquivalence:
    """One pass over a stack of ``trials`` arrays == per-array reference.

    A stack of three folds every trial into the line axis of one scan;
    each trial must still match the reference pass run on it alone.
    """

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("phase", [Phase.ROW, Phase.COLUMN])
    @pytest.mark.parametrize("merge", [True, False])
    @pytest.mark.parametrize("limit", [None, 3])
    def test_fresh_pass(self, trials, phase, merge, limit, rng):
        geometry = ArrayGeometry.square(12, 8)
        for _ in range(10):
            grids = [
                rng.random(geometry.shape) < rng.uniform(0.1, 0.9)
                for _ in range(trials)
            ]
            ours = [AtomArray(geometry, grid.copy()) for grid in grids]
            outcomes = pass_of_stack(
                run_pass, ours, phase, merge_mirror=merge, scan_limit=limit
            )
            for outcome, array, grid in zip(outcomes, ours, grids):
                theirs = AtomArray(geometry, grid.copy())
                expected = pass_of_one(
                    run_pass_reference,
                    theirs,
                    phase,
                    merge_mirror=merge,
                    scan_limit=limit,
                )
                assert_pass_outcomes_identical(outcome, expected)
                assert np.array_equal(array.grid, theirs.grid)

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("merge", [True, False])
    def test_guarded_column_pass_on_stale_snapshot(self, trials, merge, rng):
        # The paper's pipelined mode: scan an iteration-start snapshot,
        # execute against a live grid the row pass already changed.
        geometry = ArrayGeometry.square(12, 8)
        for _ in range(10):
            snapshots = [rng.random(geometry.shape) < 0.5 for _ in range(trials)]
            ours = [AtomArray(geometry, grid.copy()) for grid in snapshots]
            pass_of_stack(run_pass, ours, Phase.ROW, merge_mirror=merge)
            outcomes = pass_of_stack(
                run_pass,
                ours,
                Phase.COLUMN,
                scan_sources=snapshots,
                merge_mirror=merge,
            )
            for outcome, array, snapshot in zip(outcomes, ours, snapshots):
                theirs = AtomArray(geometry, snapshot.copy())
                pass_of_one(run_pass_reference, theirs, Phase.ROW, merge_mirror=merge)
                expected = pass_of_one(
                    run_pass_reference,
                    theirs,
                    Phase.COLUMN,
                    scan_source=snapshot.copy(),
                    merge_mirror=merge,
                )
                assert_pass_outcomes_identical(outcome, expected)
                assert np.array_equal(array.grid, theirs.grid)


class TestGuardedDrainProperties:
    """Closed-form guarded drain == per-round reference, edge cases in.

    The guarded ``run_pass`` no longer loops per round — every command's
    stale/empty fate is derived from the pass-start occupancy in one
    sweep.  These properties pin it to :func:`run_pass_reference` across
    the shared oracle strategies, crossed with the ``s_en`` limit
    (including limits smaller than the deepest command list),
    single-position quadrants (size-2 geometries), and rounds that the
    guard empties entirely.
    """

    @staticmethod
    def _run_both(array, phase, merge, limit):
        snapshot = array.grid.copy()
        ours = array.copy()
        theirs = array.copy()
        # Stale the live grids first, exactly as the pipelined mode does.
        pass_of_one(run_pass, ours, Phase.ROW, merge_mirror=merge)
        pass_of_one(run_pass_reference, theirs, Phase.ROW, merge_mirror=merge)
        outcome = pass_of_one(
            run_pass,
            ours,
            phase,
            scan_source=snapshot,
            merge_mirror=merge,
            scan_limit=limit,
        )
        expected = pass_of_one(
            run_pass_reference,
            theirs,
            phase,
            scan_source=snapshot.copy(),
            merge_mirror=merge,
            scan_limit=limit,
        )
        return outcome, expected, ours, theirs

    @given(
        atom_arrays(sizes=PASS_EDGE_SIZES),
        st.sampled_from([Phase.ROW, Phase.COLUMN]),
        st.booleans(),
        scan_limits(),
    )
    @settings(max_examples=80, deadline=None)
    def test_guarded_pass_bit_identical(self, array, phase, merge, limit):
        outcome, expected, ours, theirs = self._run_both(array, phase, merge, limit)
        assert_pass_outcomes_identical(outcome, expected)
        assert np.array_equal(ours.grid, theirs.grid)

    @given(atom_arrays(sizes=(2,)), scan_limits(max_limit=1))
    @settings(max_examples=20, deadline=None)
    def test_single_position_quadrants(self, array, limit):
        # Size-2 geometries: every quadrant is one site, no line can ever
        # carry a command, and both drains must agree on the nothing they
        # emit.
        outcome, expected, ours, theirs = self._run_both(
            array, Phase.COLUMN, True, limit
        )
        assert_pass_outcomes_identical(outcome, expected)
        assert outcome.n_commands == 0
        assert outcome.moves == []
        assert np.array_equal(ours.grid, theirs.grid)

    def test_guard_can_empty_a_whole_round(self, rng):
        # A snapshot whose every scanned command is stale or empty by
        # execution time: the row pass fully compacts the live grid, so
        # a guarded re-run of the *same* row snapshot skips everything.
        geometry = ArrayGeometry.square(8, 4)
        for _ in range(20):
            grid = rng.random(geometry.shape) < 0.5
            snapshot = grid.copy()
            ours = AtomArray(geometry, grid.copy())
            theirs = AtomArray(geometry, grid.copy())
            pass_of_one(run_pass, ours, Phase.ROW)
            pass_of_one(run_pass_reference, theirs, Phase.ROW)
            outcome = pass_of_one(run_pass, ours, Phase.ROW, scan_source=snapshot)
            expected = pass_of_one(
                run_pass_reference,
                theirs,
                Phase.ROW,
                scan_source=snapshot.copy(),
            )
            assert_pass_outcomes_identical(outcome, expected)
            assert outcome.n_executed == 0
            skips = outcome.n_skipped_stale + outcome.n_skipped_empty
            assert skips == outcome.n_commands
            assert np.array_equal(ours.grid, theirs.grid)


class TestEndToEndScheduleIdentity:
    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize(
        "params",
        [
            QrmParameters(),
            QrmParameters(scan_mode=ScanMode.FRESH),
            QrmParameters(merge_mirror_quadrants=False),
            QrmParameters(scan_limit=3),
            QrmParameters(scan_mode=ScanMode.FRESH, merge_mirror_quadrants=False),
        ],
        ids=["pipelined", "fresh", "split", "s_en", "fresh-split"],
    )
    def test_schedules_bit_identical(self, trials, params, rng):
        for size in (8, 12, 20):
            geometry = ArrayGeometry.square(size)
            arrays = [
                load_uniform(
                    geometry,
                    float(rng.uniform(0.2, 0.8)),
                    rng=int(rng.integers(1 << 31)),
                )
                for _ in range(trials)
            ]
            self._assert_identical(geometry, params, arrays)

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize(
        "params",
        [
            QrmParameters(),
            QrmParameters(scan_mode=ScanMode.FRESH, merge_mirror_quadrants=False),
        ],
        ids=["pipelined", "fresh-split"],
    )
    def test_paper_geometry_bit_identical(self, trials, params, rng):
        # The paper's 50x50 -> 30x30: up to ~25 rounds per line, and
        # all 8 passes of a schedule sorted under one key.
        geometry = ArrayGeometry.square(50, 30)
        arrays = [
            load_uniform(geometry, 0.5, rng=int(rng.integers(1 << 31)))
            for _ in range(trials)
        ]
        self._assert_identical(geometry, params, arrays)

    @staticmethod
    def _assert_identical(geometry, params, arrays):
        results = QrmScheduler(geometry, params).schedule_batch(arrays)
        reference = QrmSchedulerReference(geometry, params)
        for ours, array in zip(results, arrays):
            expected = reference.schedule(array)
            assert_moves_identical(list(ours.schedule), list(expected.schedule))
            assert np.array_equal(ours.final.grid, expected.final.grid)
            assert ours.iterations == expected.iterations
            assert ours.converged == expected.converged
            assert ours.analysis_ops == expected.analysis_ops
            for mine, theirs in zip(ours.pass_outcomes, expected.pass_outcomes):
                assert_pass_outcomes_identical(mine, theirs)


class TestBatchOrdering:
    """Regression tests for the explicit round-batch ordering."""

    def test_batch_order_key_holes_then_quadrant(self):
        keys = [
            batch_order_key(2, Quadrant.SW),
            batch_order_key(2, Quadrant.NE),
            batch_order_key(0, Quadrant.SE),
            batch_order_key(0, Quadrant.NW),
        ]
        assert sorted(keys) == [
            batch_order_key(0, Quadrant.NW),
            batch_order_key(0, Quadrant.SE),
            batch_order_key(2, Quadrant.NE),
            batch_order_key(2, Quadrant.SW),
        ]

    def test_merged_batch_unifies_mirror_quadrants(self):
        # The same local pattern in all four quadrants: with mirror
        # merging one move per direction per round; without, one move
        # per quadrant, ordered by the documented quadrant rank.
        geometry = ArrayGeometry.square(8, 4)
        grid = np.zeros(geometry.shape, dtype=bool)
        grid[[0, 0, 7, 7], [0, 7, 0, 7]] = True  # outermost corners
        merged = pass_of_one(
            run_pass, AtomArray(geometry, grid), Phase.ROW, merge_mirror=True
        )
        # Two moves per round — one per direction, each fusing the two
        # mirror quadrants of that side (EAST flushes before WEST).
        assert [m.tag for m in merged.moves] == [
            "row-k0-h0",
            "row-k0-h0",
            "row-k1-h0",
            "row-k1-h0",
            "row-k2-h0",
            "row-k2-h0",
        ]
        assert [m.direction for m in merged.moves] == [
            Direction.EAST,
            Direction.WEST,
        ] * 3
        assert all(len(move) == 2 for move in merged.moves)

    def test_unmerged_batches_follow_quadrant_rank(self):
        geometry = ArrayGeometry.square(8, 4)
        grid = np.zeros(geometry.shape, dtype=bool)
        grid[[0, 0, 7, 7], [0, 7, 0, 7]] = True
        split = pass_of_one(
            run_pass, AtomArray(geometry, grid), Phase.ROW, merge_mirror=False
        )
        assert all(len(move) == 1 for move in split.moves)
        # Per round: EAST batches (west quadrants) first, NW before SW,
        # then WEST batches with NE before SE — i.e. batch_order_key.
        assert [m.tag for m in split.moves[:4]] == [
            "row-k0-h0-NW",
            "row-k0-h0-SW",
            "row-k0-h0-NE",
            "row-k0-h0-SE",
        ]

    def test_merge_toggle_same_physical_outcome(self, geo20, rng):
        grid = rng.random(geo20.shape) < 0.5
        merged_array = AtomArray(geo20, grid.copy())
        split_array = AtomArray(geo20, grid.copy())
        merged = pass_of_one(run_pass, merged_array, Phase.ROW, merge_mirror=True)
        split = pass_of_one(run_pass, split_array, Phase.ROW, merge_mirror=False)
        assert merged.n_executed == split.n_executed
        assert merged.n_batches <= split.n_batches
        assert np.array_equal(merged_array.grid, split_array.grid)


def test_quadrant_order_unchanged():
    assert QUADRANT_ORDER == (
        Quadrant.NW,
        Quadrant.NE,
        Quadrant.SW,
        Quadrant.SE,
    )
