"""Unit tests for repro.core.scan — the shift-kernel scan semantics."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import compact_line, is_prefix_line, is_young_diagram

from repro.core.scan import scan_axis, scan_line


def bits(text: str) -> np.ndarray:
    """'1011' -> array([True, False, True, True]), index 0 first."""
    return np.array([ch == "1" for ch in text], dtype=bool)


class TestScanLine:
    def test_full_line_has_no_commands(self):
        assert scan_line(bits("1111")).hole_positions == ()

    def test_empty_line_has_no_commands(self):
        assert scan_line(bits("0000")).hole_positions == ()

    def test_single_hole_with_atom_outboard(self):
        assert scan_line(bits("1011")).hole_positions == (1,)

    def test_hole_at_lsb(self):
        assert scan_line(bits("0111")).hole_positions == (0,)

    def test_trailing_holes_never_commands(self):
        # Holes with nothing outboard are "empty shifts" — removed.
        assert scan_line(bits("1100")).hole_positions == ()

    def test_interleaved(self):
        assert scan_line(bits("010101")).hole_positions == (0, 2, 4)

    def test_run_of_holes(self):
        assert scan_line(bits("10011")).hole_positions == (1, 2)

    def test_counts_and_snapshot(self):
        result = scan_line(bits("0110"), line=5)
        assert result.line == 5
        assert result.n_atoms == 2
        assert result.n_commands == 1
        assert result.bits_before == (False, True, True, False)

    def test_empty_input(self):
        result = scan_line(np.zeros(0, dtype=bool))
        assert result.hole_positions == ()
        assert result.n_atoms == 0

    def test_single_site(self):
        assert scan_line(bits("1")).hole_positions == ()
        assert scan_line(bits("0")).hole_positions == ()


class TestCompactLine:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1011", "1110"),
            ("0101", "1100"),
            ("0000", "0000"),
            ("1111", "1111"),
            ("0001", "1000"),
        ],
    )
    def test_examples(self, text, expected):
        assert list(compact_line(bits(text))) == list(bits(expected))

    def test_compaction_equals_executing_all_commands(self, rng):
        for _ in range(100):
            line = rng.random(12) < 0.5
            result = scan_line(line)
            state = line.copy()
            for k, hole in enumerate(result.hole_positions):
                cur = hole - k  # k earlier suffix shifts pulled it inward
                # suffix shift: everything above cur moves one inboard
                state[cur:-1] = state[cur + 1 :]
                state[-1] = False
            assert np.array_equal(state, compact_line(line))


class TestPredicates:
    def test_is_prefix_line(self):
        assert is_prefix_line(bits("1110"))
        assert is_prefix_line(bits("0000"))
        assert not is_prefix_line(bits("1011"))

    def test_is_young_diagram_true(self):
        grid = np.array(
            [
                [1, 1, 1],
                [1, 1, 0],
                [1, 0, 0],
            ],
            dtype=bool,
        )
        assert is_young_diagram(grid)

    def test_is_young_diagram_false_rows(self):
        grid = np.array([[1, 0, 1], [0, 0, 0]], dtype=bool)
        assert not is_young_diagram(grid)

    def test_is_young_diagram_false_cols(self):
        grid = np.array([[0, 0], [1, 1]], dtype=bool)
        assert not is_young_diagram(grid)


class TestScanAxis:
    def test_row_scan_lines(self):
        grid = np.array([[1, 0, 1], [0, 0, 0]], dtype=bool)
        scans = scan_axis(grid, axis=0)
        assert len(scans) == 2
        assert scans[0].hole_positions == (1,)
        assert scans[1].hole_positions == ()

    def test_column_scan_lines(self):
        grid = np.array([[1, 0], [0, 0], [1, 1]], dtype=bool)
        scans = scan_axis(grid, axis=1)
        assert len(scans) == 2
        assert scans[0].hole_positions == (1,)
        assert scans[1].hole_positions == (0, 1)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            scan_axis(np.zeros((2, 2), dtype=bool), axis=2)
