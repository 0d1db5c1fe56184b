"""Unit tests for repro.lattice.array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import Quadrant, Region


class TestConstruction:
    def test_default_is_empty(self, geo8):
        array = AtomArray(geo8)
        assert array.n_atoms == 0

    def test_full(self, geo8):
        assert AtomArray.full(geo8).n_atoms == geo8.n_sites

    def test_grid_is_copied(self, geo8):
        grid = np.zeros(geo8.shape, dtype=bool)
        array = AtomArray(geo8, grid)
        grid[0, 0] = True
        assert not array.is_occupied(0, 0)

    def test_shape_mismatch_raises(self, geo8):
        with pytest.raises(GeometryError):
            AtomArray(geo8, np.zeros((4, 4), dtype=bool))

    def test_from_rows_and_back(self, geo8):
        rows = [
            "#.......",
            ".#......",
            "..#.....",
            "...#....",
            "....#...",
            ".....#..",
            "......#.",
            ".......#",
        ]
        array = AtomArray.from_rows(geo8, rows)
        assert array.n_atoms == 8
        assert array.to_rows() == rows

    def test_from_rows_wrong_count(self, geo8):
        with pytest.raises(GeometryError):
            AtomArray.from_rows(geo8, ["#" * 8] * 7)

    def test_from_rows_wrong_length(self, geo8):
        with pytest.raises(GeometryError):
            AtomArray.from_rows(geo8, ["#" * 7] + ["#" * 8] * 7)

    def test_from_rows_accepts_ones(self, geo8):
        array = AtomArray.from_rows(geo8, ["1" * 8] + ["." * 8] * 7)
        assert array.n_atoms == 8


class TestQueries:
    def test_set_and_get(self, geo8):
        array = AtomArray(geo8)
        array.set_site(3, 4, True)
        assert array.is_occupied(3, 4)
        array.set_site(3, 4, False)
        assert not array.is_occupied(3, 4)

    def test_occupied_sites_row_major(self, geo8):
        array = AtomArray(geo8)
        array.set_site(2, 5, True)
        array.set_site(1, 3, True)
        assert array.occupied_sites() == [(1, 3), (2, 5)]

    def test_row_col_counts(self, geo8):
        array = AtomArray(geo8)
        array.set_site(0, 0, True)
        array.set_site(0, 5, True)
        array.set_site(4, 0, True)
        assert array.row_counts()[0] == 2
        assert array.col_counts()[0] == 2

    def test_region_count(self, geo8):
        array = AtomArray(geo8)
        region = Region(0, 0, 2, 2)
        array.set_site(0, 0, True)
        assert array.region_count(region) == 1

    def test_target_queries(self, geo8):
        array = AtomArray.full(geo8)
        assert array.target_count() == geo8.n_target_sites
        assert array.target_defects() == []

    def test_quadrant_count(self, geo8):
        array = AtomArray(geo8)
        array.set_site(0, 0, True)  # NW
        array.set_site(7, 7, True)  # SE
        assert array.quadrant_count(Quadrant.NW) == 1
        assert array.quadrant_count(Quadrant.SE) == 1
        assert array.quadrant_count(Quadrant.NE) == 0


class TestDunders:
    def test_copy_is_independent(self, array20):
        clone = array20.copy()
        clone.set_site(0, 0, not clone.is_occupied(0, 0))
        assert clone != array20

    def test_equality(self, geo8):
        a = AtomArray(geo8)
        b = AtomArray(geo8)
        assert a == b
        b.set_site(1, 1, True)
        assert a != b

    def test_equality_other_type(self, geo8):
        assert AtomArray(geo8) != "not an array"

    def test_repr_mentions_sizes(self, geo8):
        text = repr(AtomArray(geo8))
        assert "8x8" in text
        assert "4x4" in text
