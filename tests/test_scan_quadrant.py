"""Property tests: batched ``scan_quadrant`` == per-line ``scan_line``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scan import scan_axis, scan_line, scan_quadrant

grids = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=1.0),
).map(
    lambda args: (
        np.random.default_rng(args[2]).random((args[0], args[1])) < args[3]
    )
)

limits = st.one_of(st.none(), st.integers(min_value=0, max_value=14))


@given(grids, st.integers(min_value=0, max_value=1), limits)
@settings(max_examples=300)
def test_scan_quadrant_matches_per_line_scan(grid, axis, limit):
    scan = scan_quadrant(grid, axis, limit=limit)
    n_lines = grid.shape[axis]
    assert scan.n_lines == n_lines
    assert scan.n_positions == grid.shape[1 - axis]
    total = 0
    for line in range(n_lines):
        vector = grid[line, :] if axis == 0 else grid[:, line]
        expected = scan_line(vector, line=line, limit=limit)
        assert scan.line_counts[line] == expected.n_commands
        holes = scan.hole_positions[scan.hole_lines == line]
        assert tuple(holes) == expected.hole_positions
        total += expected.n_commands
    assert scan.n_commands == total
    # Flat arrays are line-major with ascending positions per line.
    pairs = list(zip(scan.hole_lines.tolist(), scan.hole_positions.tolist()))
    assert pairs == sorted(pairs)


@given(grids, st.integers(min_value=0, max_value=1), limits)
@settings(max_examples=150)
def test_results_bridge_matches_scan_line(grid, axis, limit):
    results = scan_quadrant(grid, axis, limit=limit).results()
    assert [r.line for r in results] == list(range(grid.shape[axis]))
    for result in results:
        vector = grid[result.line, :] if axis == 0 else grid[:, result.line]
        expected = scan_line(vector, line=result.line, limit=limit)
        assert result.hole_positions == expected.hole_positions
        assert result.bits_before == expected.bits_before
        assert result.n_atoms == expected.n_atoms
        assert result.n_commands == expected.n_commands


class TestEdges:
    def test_empty_lines_are_represented(self):
        grid = np.zeros((3, 4), dtype=bool)
        scan = scan_quadrant(grid, axis=0)
        assert scan.n_commands == 0
        assert list(scan.line_counts) == [0, 0, 0]
        assert len(scan.results()) == 3

    def test_zero_width_grid(self):
        scan = scan_quadrant(np.zeros((3, 0), dtype=bool), axis=0)
        assert scan.n_lines == 3
        assert scan.n_positions == 0
        assert scan.n_commands == 0

    def test_zero_lines_grid(self):
        scan = scan_quadrant(np.zeros((0, 5), dtype=bool), axis=0)
        assert scan.n_lines == 0
        assert scan.results() == []

    def test_limit_zero_blocks_all_commands(self):
        grid = np.array([[0, 1, 0, 1]], dtype=bool)
        assert scan_quadrant(grid, axis=0, limit=0).n_commands == 0

    def test_limit_beyond_width_is_noop(self):
        grid = np.array([[0, 1, 0, 1]], dtype=bool)
        full = scan_quadrant(grid, axis=0)
        capped = scan_quadrant(grid, axis=0, limit=99)
        assert np.array_equal(full.hole_positions, capped.hole_positions)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            scan_quadrant(np.zeros((2, 2), dtype=bool), axis=2)

    def test_scan_axis_delegates_to_quadrant_scan(self):
        grid = np.array([[1, 0, 1], [0, 0, 0]], dtype=bool)
        assert [r.hole_positions for r in scan_axis(grid, axis=0)] == [(1,), ()]


@pytest.mark.parametrize("limit_kind", ["none", "scalar", "per-line"])
@pytest.mark.parametrize("n_trials", [1, 3, 17])
@pytest.mark.parametrize("axis", [0, 1])
def test_folded_trial_stack_scans_as_one_quadrant(axis, n_trials, limit_kind, rng):
    # A (trial, line, position) stack folded to (trial·line, position) is
    # one scan with more lines: divmod recovers (trial, line), and a
    # per-line bound is tiled once per trial.
    n_lines, n_positions = 5, 7
    stack = rng.random((n_trials, n_lines, n_positions)) < rng.uniform(0.2, 0.8)
    if limit_kind == "none":
        limit = folded_limit = None
    elif limit_kind == "scalar":
        limit = folded_limit = 3
    else:
        limit = rng.integers(0, n_positions + 1, size=n_lines)
        folded_limit = np.tile(limit, n_trials)
    folded = stack.reshape(-1, n_positions)
    if axis == 1:  # lines are the columns of the scanned grid
        stack = stack.swapaxes(1, 2)
        folded = folded.T
    scan = scan_quadrant(folded, axis, limit=folded_limit)
    assert scan.n_lines == n_trials * n_lines
    trials, lines = np.divmod(scan.hole_lines, n_lines)
    for trial in range(n_trials):
        expected = scan_quadrant(stack[trial], axis, limit=limit)
        ours = trials == trial
        assert np.array_equal(lines[ours], expected.hole_lines)
        assert np.array_equal(scan.hole_positions[ours], expected.hole_positions)
        assert np.array_equal(
            scan.line_counts.reshape(n_trials, n_lines)[trial], expected.line_counts
        )
        assert np.array_equal(
            scan.holes_mask.reshape(n_trials, n_lines, n_positions)[trial],
            expected.holes_mask,
        )
    assert np.array_equal(
        np.flatnonzero(scan.holes_mask),
        scan.hole_lines * n_positions + scan.hole_positions,
    )
