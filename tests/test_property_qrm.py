"""Property tests for the QRM scheduler and quadrant transforms."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import is_young_diagram, to_full

from repro.aod.validator import validate_schedule
from repro.config import QrmParameters, ScanMode
from repro.core.qrm import QrmScheduler
from repro.core.typical import TypicalScheduler
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Quadrant

SIZES = st.sampled_from([4, 6, 8, 10, 12])


@st.composite
def random_arrays(draw):
    size = draw(SIZES)
    target = draw(st.sampled_from([t for t in (2, 4, 6) if t <= size]))
    geometry = ArrayGeometry.square(size, target)
    n_bits = geometry.n_sites
    bits = draw(st.lists(st.booleans(), min_size=n_bits, max_size=n_bits))
    grid = np.array(bits, dtype=bool).reshape(geometry.shape)
    return AtomArray(geometry, grid)


@given(random_arrays())
@settings(max_examples=60, deadline=None)
def test_qrm_schedule_always_validates(array):
    result = QrmScheduler(array.geometry).schedule(array)
    report = validate_schedule(array, result.schedule)
    assert report.ok
    assert report.final_array == result.final


@given(random_arrays())
@settings(max_examples=60, deadline=None)
def test_qrm_conserves_atoms_and_quadrant_populations(array):
    result = QrmScheduler(array.geometry).schedule(array)
    assert result.final.n_atoms == array.n_atoms
    for quadrant in Quadrant:
        assert (result.final.quadrant_count(quadrant) == array.quadrant_count(quadrant))


@given(random_arrays())
@settings(max_examples=40, deadline=None)
def test_fresh_mode_reaches_young_fixpoint(array):
    params = QrmParameters(n_iterations=4, scan_mode=ScanMode.FRESH)
    result = QrmScheduler(array.geometry, params).schedule(array)
    assert result.converged
    for frame in array.geometry.quadrant_frames():
        assert is_young_diagram(frame.extract(result.final.grid))


@given(random_arrays())
@settings(max_examples=40, deadline=None)
def test_pipelined_converges_to_young_fixpoint_with_headroom(array):
    params = QrmParameters(n_iterations=32, scan_mode=ScanMode.PIPELINED)
    result = QrmScheduler(array.geometry, params).schedule(array)
    assert result.converged
    for frame in array.geometry.quadrant_frames():
        assert is_young_diagram(frame.extract(result.final.grid))


@given(random_arrays())
@settings(max_examples=40, deadline=None)
def test_typical_matches_fresh_qrm(array):
    typical = TypicalScheduler(array.geometry).schedule(array)
    params = QrmParameters(n_iterations=8, scan_mode=ScanMode.FRESH)
    fresh = QrmScheduler(array.geometry, params).schedule(array)
    assert typical.final == fresh.final


@given(random_arrays())
@settings(max_examples=40, deadline=None)
def test_target_fill_never_decreases(array):
    result = QrmScheduler(array.geometry).schedule(array)
    assert result.final.target_count() >= array.target_count()


@st.composite
def frames_and_grids(draw):
    size = draw(SIZES)
    geometry = ArrayGeometry.square(size, 2)
    quadrant = draw(st.sampled_from(list(Quadrant)))
    n_bits = geometry.n_sites
    bits = draw(st.lists(st.booleans(), min_size=n_bits, max_size=n_bits))
    grid = np.array(bits, dtype=bool).reshape(geometry.shape)
    return geometry.quadrant_frame(quadrant), grid


@given(frames_and_grids())
@settings(max_examples=100)
def test_extract_insert_round_trip(frame_grid):
    frame, grid = frame_grid
    work = grid.copy()
    local = frame.extract(work)
    frame.insert(work, local)
    assert np.array_equal(work, grid)


@given(frames_and_grids())
@settings(max_examples=100)
def test_coordinate_transform_bijective(frame_grid):
    frame, _ = frame_grid
    seen = set()
    for u in range(frame.n_rows):
        for v in range(frame.n_cols):
            full = to_full(frame, u, v)
            assert full not in seen
            seen.add(full)
    assert seen == set(frame.region.sites())


@given(frames_and_grids())
@settings(max_examples=100)
def test_extract_agrees_with_pointwise_transform(frame_grid):
    frame, grid = frame_grid
    local = frame.extract(grid)
    for u in range(frame.n_rows):
        for v in range(frame.n_cols):
            assert local[u, v] == grid[to_full(frame, u, v)]
