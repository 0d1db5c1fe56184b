"""Unit and behavioural tests for the QRM scheduler."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import assert_results_identical, is_young_diagram

from repro.aod.validator import validate_schedule
from repro.baselines.base import get_algorithm
from repro.config import QrmParameters, ScanMode
from repro.core.qrm import QrmScheduler
from repro.errors import ConfigurationError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Quadrant
from repro.lattice.loading import load_uniform


class TestParameters:
    def test_defaults_match_paper(self):
        params = QrmParameters()
        assert params.n_iterations == 4
        assert params.scan_mode is ScanMode.PIPELINED
        assert params.merge_mirror_quadrants
        assert not params.enable_repair

    def test_invalid_iterations(self):
        with pytest.raises(ConfigurationError):
            QrmParameters(n_iterations=0)

    def test_string_scan_mode_is_the_enum(self):
        assert QrmParameters(scan_mode="fresh").scan_mode is ScanMode.FRESH
        assert QrmParameters(scan_mode="pipelined") == QrmParameters()

    def test_string_scan_mode_schedules_like_the_default(self):
        geometry = ArrayGeometry.square(16)
        array = load_uniform(geometry, 0.5, rng=3)
        assert_results_identical(
            get_algorithm("qrm", geometry, scan_mode="pipelined").schedule(array),
            get_algorithm("qrm", geometry).schedule(array),
        )

    def test_dict_round_trip(self):
        params = QrmParameters(
            n_iterations=2,
            scan_mode=ScanMode.FRESH,
            merge_mirror_quadrants=False,
            enable_repair=True,
            scan_limit="mask",
        )
        assert params.to_dict() == {
            "n_iterations": 2,
            "scan_mode": "fresh",
            "merge_mirror_quadrants": False,
            "enable_repair": True,
            "scan_limit": "mask",
        }
        assert QrmParameters.from_dict(params.to_dict()) == params
        assert QrmParameters.from_dict({}) == QrmParameters()

    @pytest.mark.parametrize(
        "data",
        [
            {"scan_mode": "sideways"},
            {"scan_mode": None},
            {"n_iterations": "4"},
            {"n_iterations": 2.0},
            {"n_iterations": True},
            {"merge_mirror_quadrants": "no"},
            {"enable_repair": 1},
            {"scan_limit": 0},
            {"scan_limit": "all"},
            {"scan_limit": False},
            {"max_repair_moves": 10},
            ["pipelined"],
        ],
    )
    def test_from_dict_refuses_wrong_types_and_values(self, data):
        with pytest.raises(ConfigurationError):
            QrmParameters.from_dict(data)


class TestScheduleBasics:
    def test_geometry_mismatch_rejected(self, geo8, geo20):
        scheduler = QrmScheduler(geo20)
        with pytest.raises(ValueError):
            scheduler.schedule(AtomArray(geo8))

    def test_empty_array_converges_immediately(self, geo8):
        result = QrmScheduler(geo8).schedule(AtomArray(geo8))
        assert result.converged
        assert result.n_moves == 0
        assert result.iterations_used == 1

    def test_full_array_needs_no_moves(self, geo8):
        result = QrmScheduler(geo8).schedule(AtomArray.full(geo8))
        assert result.n_moves == 0
        assert result.defect_free

    def test_schedule_replays_cleanly(self, array20):
        result = QrmScheduler(array20.geometry).schedule(array20)
        report = validate_schedule(array20, result.schedule)
        assert report.ok
        assert report.final_array == result.final

    def test_atoms_conserved(self, array20):
        result = QrmScheduler(array20.geometry).schedule(array20)
        assert result.final.n_atoms == array20.n_atoms

    def test_initial_array_not_mutated(self, array20):
        snapshot = array20.copy()
        QrmScheduler(array20.geometry).schedule(array20)
        assert array20 == snapshot

    def test_result_metadata(self, array20):
        result = QrmScheduler(array20.geometry).schedule(array20)
        assert result.algorithm == "qrm"
        assert result.wall_time_s > 0
        assert result.analysis_ops > 0
        assert 1 <= result.iterations_used <= 4
        assert len(result.pass_outcomes) == 2 * result.iterations_used


class TestConvergence:
    def test_quadrants_reach_young_fixpoint_fresh(self, geo20):
        array = load_uniform(geo20, 0.5, rng=3)
        params = QrmParameters(n_iterations=4, scan_mode=ScanMode.FRESH)
        result = QrmScheduler(geo20, params).schedule(array)
        assert result.converged
        for frame in geo20.quadrant_frames():
            assert is_young_diagram(frame.extract(result.final.grid))

    def test_fresh_converges_after_one_working_iteration(self, geo20):
        array = load_uniform(geo20, 0.5, rng=3)
        params = QrmParameters(n_iterations=8, scan_mode=ScanMode.FRESH)
        result = QrmScheduler(geo20, params).schedule(array)
        # One compaction round plus one empty verification round.
        assert result.iterations_used == 2

    def test_pipelined_reaches_young_fixpoint_given_headroom(self, geo20):
        array = load_uniform(geo20, 0.5, rng=5)
        params = QrmParameters(n_iterations=16, scan_mode=ScanMode.PIPELINED)
        result = QrmScheduler(geo20, params).schedule(array)
        assert result.converged
        for frame in geo20.quadrant_frames():
            assert is_young_diagram(frame.extract(result.final.grid))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_paper_iteration_budget_suffices_at_50(self, seed):
        # "In our experiment, four iterations were used to complete the
        # entire process."  By the fourth iteration the remaining work
        # must be negligible compared to the first.
        geo = ArrayGeometry.square(50, 30)
        array = load_uniform(geo, 0.5, rng=seed)
        result = QrmScheduler(geo).schedule(array)
        first = result.iterations[0]
        last = result.iterations[-1]
        assert last.n_commands <= max(10, 0.01 * first.n_commands)

    def test_pipelined_skips_stale_commands(self, geo50):
        array = load_uniform(geo50, 0.5, rng=7)
        result = QrmScheduler(geo50).schedule(array)
        assert sum(i.n_skipped_stale for i in result.iterations) > 0

    def test_fresh_never_skips_stale(self, geo50):
        array = load_uniform(geo50, 0.5, rng=7)
        params = QrmParameters(scan_mode=ScanMode.FRESH)
        result = QrmScheduler(geo50, params).schedule(array)
        assert sum(i.n_skipped_stale for i in result.iterations) == 0


class TestMovementStructure:
    def test_moves_are_centre_ward(self, array20):
        """Every move must decrease the summed distance to the centre."""
        result = QrmScheduler(array20.geometry).schedule(array20)
        geo = array20.geometry
        cr = (geo.height - 1) / 2.0
        cc = (geo.width - 1) / 2.0
        grid = array20.grid.copy()

        def cost(g):
            rows, cols = np.nonzero(g)
            return float(np.abs(rows - cr).sum() + np.abs(cols - cc).sum())

        from repro.aod.executor import apply_parallel_move

        previous = cost(grid)
        for move in result.schedule:
            apply_parallel_move(grid, move)
            current = cost(grid)
            assert current < previous
            previous = current

    def test_quadrant_populations_invariant(self, array20):
        """QRM never moves atoms across the quadrant boundary."""
        result = QrmScheduler(array20.geometry).schedule(array20)
        for quadrant in Quadrant:
            assert (
                result.final.quadrant_count(quadrant)
                == array20.quadrant_count(quadrant)
            )

    def test_all_moves_single_step(self, array20):
        result = QrmScheduler(array20.geometry).schedule(array20)
        assert all(move.steps == 1 for move in result.schedule)

    def test_merged_moves_have_multiple_lines(self, geo50):
        array = load_uniform(geo50, 0.5, rng=11)
        result = QrmScheduler(geo50).schedule(array)
        assert any(len(move) > 1 for move in result.schedule)


class TestRepairMode:
    def test_repair_reaches_defect_free(self, geo20):
        array = load_uniform(geo20, 0.55, rng=21)
        params = QrmParameters(enable_repair=True)
        result = QrmScheduler(geo20, params).schedule(array)
        assert result.defect_free
        assert result.repair_moves > 0

    def test_repair_schedule_still_valid(self, geo20):
        array = load_uniform(geo20, 0.55, rng=21)
        params = QrmParameters(enable_repair=True)
        result = QrmScheduler(geo20, params).schedule(array)
        report = validate_schedule(array, result.schedule)
        assert report.ok
        assert report.final_array == result.final

    def test_repair_disabled_leaves_defects(self, geo20):
        array = load_uniform(geo20, 0.5, rng=22)
        baseline = QrmScheduler(geo20).schedule(array)
        if baseline.defects == 0:
            pytest.skip("seed happened to assemble perfectly")
        assert baseline.repair_moves == 0
