"""Unit tests for repro.core.passes — batching and pass execution."""

from __future__ import annotations

import numpy as np
from oracles import is_prefix_line, pass_of_one

from repro.core.passes import Phase, run_pass
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Direction, Quadrant


def _run_row_pass(array, merge=True):
    return pass_of_one(run_pass, array, Phase.ROW, merge_mirror=merge)


class TestRowPass:
    def test_compacts_every_half_row(self, geo8, rng):
        array = AtomArray(geo8, rng.random(geo8.shape) < 0.5)
        outcome = _run_row_pass(array)
        for frame in array.geometry.quadrant_frames():
            local = frame.extract(array.grid)
            for u in range(local.shape[0]):
                assert is_prefix_line(local[u]), outcome.phase

    def test_preserves_atom_count(self, geo8, rng):
        array = AtomArray(geo8, rng.random(geo8.shape) < 0.5)
        before = array.n_atoms
        _run_row_pass(array)
        assert array.n_atoms == before

    def test_preserves_row_membership(self, geo8, rng):
        # Horizontal moves never change which row an atom is in.
        array = AtomArray(geo8, rng.random(geo8.shape) < 0.5)
        before = array.row_counts().copy()
        _run_row_pass(array)
        assert np.array_equal(array.row_counts(), before)

    def test_no_commands_on_compact_input(self, geo8):
        # Atoms already packed against the centre columns.
        grid = np.zeros(geo8.shape, dtype=bool)
        grid[:, 3:5] = True
        array = AtomArray(geo8, grid)
        outcome = _run_row_pass(array)
        assert outcome.n_commands == 0
        assert outcome.n_batches == 0

    def test_empty_array_no_commands(self, geo8):
        outcome = _run_row_pass(AtomArray(geo8))
        assert outcome.n_commands == 0

    def test_scanned_bits_counted(self, geo8):
        outcome = _run_row_pass(AtomArray(geo8))
        # 4 quadrants x 4 rows x 4 bits
        assert outcome.n_scanned_bits == 64

    def test_line_commands_recorded_per_quadrant(self, geo8, rng):
        array = AtomArray(geo8, rng.random(geo8.shape) < 0.5)
        outcome = _run_row_pass(array)
        assert set(outcome.line_commands) == set(Quadrant)
        for counts in outcome.line_commands.values():
            assert len(counts) == geo8.half_height
        total = sum(sum(c) for c in outcome.line_commands.values())
        assert total == outcome.n_commands


class TestMirrorMerging:
    def test_mirror_rows_share_one_move(self):
        geo = ArrayGeometry.square(8, 4)
        # One identical west-half pattern in a NW row and its SW mirror.
        grid = np.zeros(geo.shape, dtype=bool)
        grid[0, 0] = True  # NW row u=3 (full row 0), hole at local 0..2
        grid[7, 0] = True  # SW mirror row
        array = AtomArray(geo, grid)
        outcome = _run_row_pass(array, merge=True)
        east_moves = [m for m in outcome.moves if m.direction is Direction.EAST]
        assert east_moves
        assert all(len(m) == 2 for m in east_moves)

    def test_unmerged_mode_splits_quadrants(self):
        geo = ArrayGeometry.square(8, 4)
        grid = np.zeros(geo.shape, dtype=bool)
        grid[0, 0] = True
        grid[7, 0] = True
        array = AtomArray(geo, grid)
        outcome = _run_row_pass(array, merge=False)
        east_moves = [m for m in outcome.moves if m.direction is Direction.EAST]
        assert all(len(m) == 1 for m in east_moves)

    def test_merge_reduces_move_count(self, geo20, rng):
        grid = rng.random(geo20.shape) < 0.5
        merged = _run_row_pass(AtomArray(geo20, grid), merge=True)
        split = _run_row_pass(AtomArray(geo20, grid), merge=False)
        assert merged.n_batches <= split.n_batches
        # Same physical outcome either way.
        assert merged.n_executed == split.n_executed


class TestColumnPassGuard:
    def test_stale_commands_skipped(self, geo8):
        # Scan a stale snapshot claiming holes that the live grid has
        # already filled: every command must be skipped, nothing moves.
        snapshot = np.zeros(geo8.shape, dtype=bool)
        snapshot[0, 3] = True  # NW local column 0 has an atom outboard
        live_grid = np.zeros(geo8.shape, dtype=bool)
        live_grid[0:4, 3] = True  # the hole is already filled
        array = AtomArray(geo8, live_grid)
        before = array.grid.copy()
        outcome = pass_of_one(run_pass, array, Phase.COLUMN, scan_source=snapshot)
        assert outcome.n_skipped_stale + outcome.n_skipped_empty > 0
        assert outcome.n_executed == 0
        assert np.array_equal(array.grid, before)

    def test_fresh_column_pass_compacts(self, geo8, rng):
        array = AtomArray(geo8, rng.random(geo8.shape) < 0.5)
        pass_of_one(run_pass, array, Phase.COLUMN)
        for frame in geo8.quadrant_frames():
            local = frame.extract(array.grid)
            for v in range(local.shape[1]):
                assert is_prefix_line(local[:, v])

    def test_column_pass_preserves_column_membership(self, geo8, rng):
        array = AtomArray(geo8, rng.random(geo8.shape) < 0.5)
        before = array.col_counts().copy()
        pass_of_one(run_pass, array, Phase.COLUMN)
        assert np.array_equal(array.col_counts(), before)


class TestDeterminism:
    def test_same_input_same_moves(self, geo20, rng):
        grid = rng.random(geo20.shape) < 0.5
        a = _run_row_pass(AtomArray(geo20, grid))
        b = _run_row_pass(AtomArray(geo20, grid))
        assert a.moves == b.moves
