"""Unit tests for repro.lattice.geometry."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import to_full

from repro.errors import GeometryError
from repro.lattice.geometry import (
    ArrayGeometry,
    Direction,
    Quadrant,
    Region,
)


class TestDirection:
    def test_deltas_are_unit_steps(self):
        for direction in Direction:
            dr, dc = direction.delta
            assert abs(dr) + abs(dc) == 1

    def test_north_decreases_row(self):
        assert Direction.NORTH.delta == (-1, 0)

    def test_east_increases_col(self):
        assert Direction.EAST.delta == (0, 1)

    def test_horizontal_classification(self):
        assert Direction.EAST.is_horizontal
        assert Direction.WEST.is_horizontal
        assert not Direction.NORTH.is_horizontal
        assert not Direction.SOUTH.is_horizontal


class TestRegion:
    def test_sites_row_major(self):
        region = Region(1, 2, 2, 2)
        assert region.sites() == [(1, 2), (1, 3), (2, 2), (2, 3)]

    def test_contains_boundaries(self):
        region = Region(1, 1, 2, 3)
        assert region.contains(1, 1)
        assert region.contains(2, 3)
        assert not region.contains(3, 1)
        assert not region.contains(1, 4)
        assert not region.contains(0, 1)

    def test_n_sites(self):
        assert Region(0, 0, 3, 4).n_sites == 12

    def test_negative_side_rejected(self):
        with pytest.raises(GeometryError):
            Region(0, 0, -1, 2)

    def test_slices(self):
        region = Region(1, 2, 3, 4)
        assert region.row_slice == slice(1, 4)
        assert region.col_slice == slice(2, 6)


class TestArrayGeometryValidation:
    def test_square_factory_default_target(self):
        geo = ArrayGeometry.square(50)
        assert geo.target_width == 30
        assert geo.target_height == 30

    def test_square_factory_small(self):
        geo = ArrayGeometry.square(4)
        assert geo.target_width == 2

    def test_odd_width_rejected(self):
        with pytest.raises(GeometryError):
            ArrayGeometry(width=9, height=8, target_width=4, target_height=4)

    def test_odd_target_rejected(self):
        with pytest.raises(GeometryError):
            ArrayGeometry(width=8, height=8, target_width=3, target_height=4)

    def test_zero_size_rejected(self):
        with pytest.raises(GeometryError):
            ArrayGeometry(width=0, height=8, target_width=0, target_height=4)

    def test_target_larger_than_array_rejected(self):
        with pytest.raises(GeometryError):
            ArrayGeometry(width=8, height=8, target_width=10, target_height=4)

    def test_target_region_centred(self):
        geo = ArrayGeometry.square(8, 4)
        target = geo.target_region
        assert (target.row0, target.col0) == (2, 2)
        assert (target.height, target.width) == (4, 4)

    def test_counts(self):
        geo = ArrayGeometry.square(10, 6)
        assert geo.n_sites == 100
        assert geo.n_target_sites == 36
        assert geo.half_width == 5
        assert geo.shape == (10, 10)

    def test_contains(self):
        geo = ArrayGeometry.square(8, 4)
        assert geo.contains(0, 0)
        assert geo.contains(7, 7)
        assert not geo.contains(8, 0)
        assert not geo.contains(0, -1)


class TestQuadrantFrames:
    @pytest.mark.parametrize("quadrant", list(Quadrant))
    def test_local_sites_cover_region(self, quadrant):
        geo = ArrayGeometry.square(10, 6)
        frame = geo.quadrant_frame(quadrant)
        sites = {
            to_full(frame, u, v)
            for u in range(frame.n_rows)
            for v in range(frame.n_cols)
        }
        assert sites == set(frame.region.sites())

    @pytest.mark.parametrize(
        "quadrant,corner",
        [
            (Quadrant.NW, (4, 4)),
            (Quadrant.NE, (4, 5)),
            (Quadrant.SW, (5, 4)),
            (Quadrant.SE, (5, 5)),
        ],
    )
    def test_local_origin_is_centre_adjacent_corner(self, quadrant, corner):
        geo = ArrayGeometry.square(10, 6)
        frame = geo.quadrant_frame(quadrant)
        assert to_full(frame, 0, 0) == corner

    @pytest.mark.parametrize(
        "quadrant,horizontal,vertical",
        [
            (Quadrant.NW, Direction.EAST, Direction.SOUTH),
            (Quadrant.NE, Direction.WEST, Direction.SOUTH),
            (Quadrant.SW, Direction.EAST, Direction.NORTH),
            (Quadrant.SE, Direction.WEST, Direction.NORTH),
        ],
    )
    def test_inward_directions(self, quadrant, horizontal, vertical):
        geo = ArrayGeometry.square(10, 6)
        frame = geo.quadrant_frame(quadrant)
        assert frame.horizontal_inward is horizontal
        assert frame.vertical_inward is vertical

    def test_inward_moves_decrease_local_v(self):
        geo = ArrayGeometry.square(10, 6)
        for frame in geo.quadrant_frames():
            r, c = to_full(frame, 2, 3)
            dr, dc = frame.horizontal_inward.delta
            assert to_full(frame, 2, 2) == (r + dr, c + dc)

    def test_extract_insert_round_trip(self, rng):
        geo = ArrayGeometry.square(12, 6)
        grid = rng.random(geo.shape) < 0.5
        for frame in geo.quadrant_frames():
            copy = grid.copy()
            local = frame.extract(copy)
            frame.insert(copy, local)
            assert np.array_equal(copy, grid)

    @pytest.mark.parametrize("quadrant", list(Quadrant))
    def test_local_view_of_stack(self, quadrant, rng):
        geo = ArrayGeometry.square(10, 6)
        frame = geo.quadrant_frame(quadrant)
        stack = rng.random((3, *geo.shape)) < 0.5
        view = frame.local_view(stack)
        assert view.shape == (3, frame.n_rows, frame.n_cols)
        for trial, grid in enumerate(stack):
            assert np.array_equal(view[trial], frame.extract(grid))
        # The view aliases the stack: writing it writes this quadrant only.
        expected = stack.copy()
        for grid in expected:
            frame.insert(grid, ~frame.extract(grid))
        view[...] = ~view
        assert np.array_equal(stack, expected)

    def test_extract_orientation(self):
        geo = ArrayGeometry.square(4, 2)
        grid = np.zeros(geo.shape, dtype=bool)
        grid[1, 1] = True  # NW quadrant, centre-adjacent corner
        frame = geo.quadrant_frame(Quadrant.NW)
        local = frame.extract(grid)
        assert local[0, 0]
        assert local.sum() == 1

    def test_insert_shape_mismatch_raises(self):
        geo = ArrayGeometry.square(8, 4)
        frame = geo.quadrant_frame(Quadrant.SE)
        with pytest.raises(GeometryError):
            frame.insert(np.zeros(geo.shape, dtype=bool), np.zeros((2, 2)))

    def test_quadrant_regions_partition_array(self):
        geo = ArrayGeometry.square(8, 4)
        seen = set()
        for frame in geo.quadrant_frames():
            sites = set(frame.region.sites())
            assert not (seen & sites)
            seen |= sites
        assert len(seen) == geo.n_sites
