"""Tests for the baseline algorithms and the registry."""

from __future__ import annotations

import pytest

from repro.aod.constraints import AodConstraints
from repro.aod.validator import validate_schedule
from repro.baselines.base import (
    get_algorithm,
    list_algorithms,
    register_algorithm,
    unregister_algorithm,
)
from repro.baselines.mta1 import Mta1Scheduler, Mta1SchedulerReference
from repro.baselines.psca import PscaScheduler
from repro.baselines.tetris import TetrisScheduler
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform

ALL_BASELINES = ["tetris", "psca", "mta1"]


class TestRegistry:
    def test_builtins_present(self):
        names = list_algorithms()
        for expected in [
            "qrm", "qrm-fresh", "qrm-repair", "typical", "tetris", "psca", "mta1"
        ]:
            assert expected in names

    def test_unknown_name_raises(self, geo8):
        with pytest.raises(KeyError):
            get_algorithm("nope", geo8)

    def test_factory_receives_geometry(self, geo20):
        algo = get_algorithm("tetris", geo20)
        assert algo.geometry == geo20

    def test_custom_registration(self, geo8):
        class Dummy:
            name = "dummy"

            def __init__(self, geometry):
                self.geometry = geometry

            def schedule(self, array):
                raise NotImplementedError

        register_algorithm("dummy-test", Dummy)
        try:
            assert "dummy-test" in list_algorithms()
            assert isinstance(get_algorithm("dummy-test", geo8), Dummy)
        finally:
            unregister_algorithm("dummy-test")
        assert "dummy-test" not in list_algorithms()


@pytest.mark.parametrize("name", ALL_BASELINES)
class TestBaselineContracts:
    def test_schedule_replays_cleanly(self, name, array20):
        algo = get_algorithm(name, array20.geometry)
        result = algo.schedule(array20)
        report = validate_schedule(array20, result.schedule)
        assert report.ok, report.violations[:3]
        assert report.final_array == result.final

    def test_atoms_conserved(self, name, array20):
        result = get_algorithm(name, array20.geometry).schedule(array20)
        assert result.final.n_atoms == array20.n_atoms

    def test_improves_target_fill(self, name, array20):
        result = get_algorithm(name, array20.geometry).schedule(array20)
        assert result.target_fill_fraction > array20.target_count() / (
            array20.geometry.n_target_sites
        )

    def test_empty_array_no_moves(self, name, geo8):
        result = get_algorithm(name, geo8).schedule(AtomArray(geo8))
        assert result.n_moves == 0

    def test_full_array_no_defects(self, name, geo8):
        result = get_algorithm(name, geo8).schedule(AtomArray.full(geo8))
        assert result.defect_free

    def test_geometry_mismatch_rejected(self, name, geo8, array20):
        with pytest.raises(ValueError):
            get_algorithm(name, geo8).schedule(array20)

    def test_wall_time_recorded(self, name, array20):
        result = get_algorithm(name, array20.geometry).schedule(array20)
        assert result.wall_time_s > 0
        assert result.analysis_ops > 0


class TestWallTimeConvention:
    """Every registered algorithm times the same span via timed_schedule."""

    def test_every_registered_algorithm_populates_wall_time(self, geo8):
        array = load_uniform(geo8, 0.5, rng=7)
        for name in list_algorithms():
            result = get_algorithm(name, geo8).schedule(array)
            assert result.wall_time_s > 0, name

    def test_wall_time_covers_qrm_repair_stage(self, geo20):
        # The helper stamps the result *after* post-passes, so the QRM
        # repair stage is inside the measured span, not bolted on after.
        array = load_uniform(geo20, 0.5, rng=11)
        result = get_algorithm("qrm-repair", geo20).schedule(array)
        assert result.repair_moves >= 0
        assert result.wall_time_s > 0


class TestMta1Accounting:
    """Regression tests pinning the fixed analysis_ops accounting.

    The published profile is O(defects x reservoir): every defect ranks
    the whole reservoir (one op per candidate examined) and each probed
    candidate charges exactly the path cells its short-circuiting
    L-clearance tests touch — not a flat per-candidate constant, and not
    ``n_sites`` per defect as the old accounting over-charged.
    """

    def test_analysis_ops_pinned_on_fixed_grid(self):
        geometry = ArrayGeometry.square(4, 2)
        array = AtomArray.from_rows(geometry, ["#...", "..#.", ".#..", "...#"])
        result = Mta1Scheduler(geometry).schedule(array)
        reference = Mta1SchedulerReference(geometry).schedule(array)
        # Two defects, served centre-outward: (1,1) ranks a 2-atom
        # reservoir and routes (0,0) over a clear row-then-column L-path
        # probing 1+1 cells; (2,2) ranks the remaining 1-atom reservoir
        # and routes (3,3) the same way: (2 + 2) + (1 + 2) = 7.
        assert result.analysis_ops == reference.analysis_ops == 7
        assert result.unresolved_defects == 0
        assert result.n_moves == 4

    def test_short_circuit_probe_charges_pinned(self):
        geometry = ArrayGeometry.square(4, 2)
        array = AtomArray.from_rows(geometry, [".#..", ".##.", "....", "...."])
        result = Mta1Scheduler(geometry).schedule(array)
        reference = Mta1SchedulerReference(geometry).schedule(array)
        # Both defects are unroutable from the single reservoir atom at
        # (0,1).  Defect (2,1): zero-cell row leg, then the 2-cell
        # column window fails both attempts -> 1 + (0+2) + 2.  Defect
        # (2,2): 1-cell row leg clears, 2-cell column window fails, then
        # the column-first 2-cell window fails before its row leg is
        # probed -> 1 + (1+2) + 2.  Total 11.
        assert result.analysis_ops == reference.analysis_ops == 11
        assert result.unresolved_defects == 2
        assert result.n_moves == 0


class TestMta1Specifics:
    def test_moves_are_single_atom(self, array20):
        result = Mta1Scheduler(array20.geometry).schedule(array20)
        assert all(len(move) == 1 for move in result.schedule)
        shifts = [move.shifts[0] for move in result.schedule]
        assert all(s.span_stop - s.span_start == 1 for s in shifts)

    def test_at_most_two_legs_per_defect(self, array20):
        result = Mta1Scheduler(array20.geometry).schedule(array20)
        initial_defects = array20.geometry.n_target_sites - array20.target_count()
        assert len(result.schedule) <= 2 * initial_defects


class TestPscaSpecifics:
    def test_tweezer_budget_respected(self, array20):
        scheduler = PscaScheduler(array20.geometry, max_tweezers=4)
        result = scheduler.schedule(array20)
        assert all(len(move) <= 4 for move in result.schedule)
        report = validate_schedule(array20, result.schedule)
        assert report.ok

    def test_budget_respects_tone_constraint(self, array20):
        scheduler = PscaScheduler(array20.geometry, max_tweezers=4)
        result = scheduler.schedule(array20)
        constraints = AodConstraints(max_line_tones=4)
        report = validate_schedule(array20, result.schedule, constraints)
        assert report.ok

    def test_smaller_budget_means_more_moves(self, array20):
        small = PscaScheduler(array20.geometry, max_tweezers=2).schedule(array20)
        large = PscaScheduler(array20.geometry, max_tweezers=16).schedule(array20)
        assert small.n_moves >= large.n_moves


class TestTetrisSpecifics:
    def test_decent_fill_at_half_loading(self, geo20):
        array = load_uniform(geo20, 0.5, rng=31)
        result = TetrisScheduler(geo20).schedule(array)
        assert result.target_fill_fraction >= 0.85

    def test_pull_moves_share_source_row(self, array20):
        result = TetrisScheduler(array20.geometry).schedule(array20)
        for move in result.schedule:
            if not move.is_horizontal and len(move) > 1:
                starts = {s.span_start for s in move.shifts}
                assert len(starts) == 1  # one source row per pull batch
