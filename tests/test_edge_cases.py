"""Edge-case coverage across the core algorithm surfaces."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import pass_of_one

from repro.aod.validator import validate_schedule
from repro.config import QrmParameters, ScanMode
from repro.core.passes import Phase, run_pass
from repro.core.qrm import QrmScheduler
from repro.fpga.accelerator import QrmAccelerator
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry


class TestDegenerateGeometries:
    def test_minimal_geometry(self):
        """2x2 array with a 2x2 target: each quadrant is a single site."""
        geometry = ArrayGeometry.square(2, 2)
        array = AtomArray.full(geometry)
        result = QrmScheduler(geometry).schedule(array)
        assert result.n_moves == 0
        assert result.defect_free

    def test_minimal_geometry_partial(self):
        geometry = ArrayGeometry.square(2, 2)
        array = AtomArray(geometry)
        array.set_site(0, 0, True)
        result = QrmScheduler(geometry).schedule(array)
        # A single-site quadrant has nowhere to move anything.
        assert result.n_moves == 0

    def test_target_equals_array(self):
        geometry = ArrayGeometry.square(8, 8)
        array = AtomArray(geometry)
        for c in range(8):
            array.set_site(0, c, True)
        result = QrmScheduler(geometry).schedule(array)
        report = validate_schedule(array, result.schedule)
        assert report.ok

    def test_tiny_target_in_large_array(self):
        geometry = ArrayGeometry.square(20, 2)
        from repro.lattice.loading import load_uniform

        array = load_uniform(geometry, 0.3, rng=1)
        result = QrmScheduler(geometry).schedule(array)
        assert validate_schedule(array, result.schedule).ok
        if array.n_atoms >= 4:
            assert result.target_fill_fraction == 1.0


class TestSingleAtomJourneys:
    @pytest.mark.parametrize(
        "site",
        [(0, 0), (0, 7), (7, 0), (7, 7)],
        ids=["nw-corner", "ne-corner", "sw-corner", "se-corner"],
    )
    def test_corner_atom_reaches_centre_block(self, geo8, site):
        array = AtomArray(geo8)
        array.set_site(*site, True)
        result = QrmScheduler(geo8).schedule(array)
        final_sites = result.final.occupied_sites()
        assert len(final_sites) == 1
        row, col = final_sites[0]
        # The atom ends at its quadrant's centre-adjacent corner.
        assert row in (3, 4) and col in (3, 4)

    def test_centre_atom_never_moves(self, geo8):
        array = AtomArray(geo8)
        array.set_site(3, 3, True)
        result = QrmScheduler(geo8).schedule(array)
        assert result.n_moves == 0
        assert result.final.is_occupied(3, 3)


class TestPassEdgeCases:
    def test_pass_on_full_grid_emits_nothing(self, geo8):
        outcome = pass_of_one(run_pass, AtomArray.full(geo8), Phase.ROW)
        assert outcome.n_commands == 0

    def test_single_row_quadrants(self):
        """Height-2 arrays make one-row quadrants; column pass is trivial."""
        geometry = ArrayGeometry(width=8, height=2, target_width=4, target_height=2)
        from repro.lattice.loading import load_uniform

        array = load_uniform(geometry, 0.5, rng=2)
        result = QrmScheduler(geometry).schedule(array)
        assert validate_schedule(array, result.schedule).ok


class TestIterationBudgets:
    def test_single_iteration_budget(self, array20):
        params = QrmParameters(n_iterations=1)
        result = QrmScheduler(array20.geometry, params).schedule(array20)
        assert result.iterations_used == 1
        assert validate_schedule(array20, result.schedule).ok

    def test_more_iterations_never_hurt_fill(self, array20):
        fills = []
        for n in (1, 2, 4, 8):
            params = QrmParameters(n_iterations=n)
            result = QrmScheduler(array20.geometry, params).schedule(array20)
            fills.append(result.target_fill_fraction)
        assert fills == sorted(fills)

    def test_accelerator_respects_custom_iteration_count(self, array20):
        params = QrmParameters(n_iterations=6)
        run = QrmAccelerator(array20.geometry, params=params).run(array20)
        assert len(run.report.iteration_cycles) == 6


class TestFreshVsPipelinedMoveCounts:
    def test_modes_do_comparable_physical_work(self, geo20):
        """The two scan modes may reach different Young diagrams (their
        interleavings differ), but the amount of physical work and the
        assembled quality track each other closely."""
        from repro.lattice.loading import load_uniform

        for seed in range(3):
            array = load_uniform(geo20, 0.5, rng=seed)
            pipelined = QrmScheduler(geo20, QrmParameters(n_iterations=16)).schedule(
                array
            )
            fresh = QrmScheduler(
                geo20,
                QrmParameters(n_iterations=16, scan_mode=ScanMode.FRESH),
            ).schedule(array)
            assert pipelined.converged and fresh.converged
            ratio = pipelined.schedule.n_line_shifts / max(
                1, fresh.schedule.n_line_shifts
            )
            assert 0.85 <= ratio <= 1.25
            assert abs(
                pipelined.target_fill_fraction - fresh.target_fill_fraction
            ) <= 0.05


class TestGridDtypeTolerance:
    def test_integer_grid_accepted(self, geo8):
        grid = np.zeros(geo8.shape, dtype=int)
        grid[0, 0] = 1
        array = AtomArray(geo8, grid)
        assert array.n_atoms == 1

    def test_float_grid_accepted(self, geo8):
        grid = np.zeros(geo8.shape, dtype=float)
        grid[1, 1] = 1.0
        assert AtomArray(geo8, grid).n_atoms == 1
