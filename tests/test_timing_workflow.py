"""Tests for timing helpers, move-timing model and workflow budgets.

Includes the cross-checks that keep the analytic hardware budgets
(:mod:`repro.workflow.system`) and the measured pipeline stage reports
(:mod:`repro.timing.latency`) on one stage vocabulary and one unit, so
``StageReport.compare_to_budget`` stays a like-for-like table.
"""

from __future__ import annotations

import pytest

from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.timing import DEFAULT_MOVE_TIMING, MoveTimingModel
from repro.errors import ConfigurationError
from repro.lattice.geometry import Direction
from repro.timing.latency import (
    BUDGETED_STAGES,
    PIPELINE_STAGES,
    StageReport,
    measure_wall,
)
from repro.workflow.links import AXI_DDR, COAXPRESS_12, LinkModel
from repro.workflow.system import (
    architecture_a_budget,
    architecture_b_budget,
    compare_architectures,
)


class TestLatencyHelpers:
    def test_measure_wall(self):
        result, elapsed = measure_wall(lambda: 42)
        assert result == 42
        assert elapsed >= 0


class TestMoveTiming:
    def test_move_duration(self):
        timing = MoveTimingModel(
            pickup_us=100, drop_us=100, transfer_us_per_site=10, settle_us=5
        )
        move = ParallelMove.of([LineShift(Direction.EAST, 0, 0, 3, steps=4)])
        assert timing.steps_duration_us(move.steps) == 100 + 40 + 100

    def test_schedule_motion_time(self, geo8):
        timing = MoveTimingModel(
            pickup_us=10, drop_us=10, transfer_us_per_site=1, settle_us=2
        )
        move = ParallelMove.of([LineShift(Direction.EAST, 0, 0, 2)])
        schedule = MoveSchedule(geo8, moves=[move, move])
        assert timing.schedule_motion_us(schedule) == 21 + 21 + 2

    def test_empty_schedule_zero(self, geo8):
        assert DEFAULT_MOVE_TIMING.schedule_motion_us(MoveSchedule(geo8)) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MoveTimingModel(pickup_us=-1)


class TestLinks:
    def test_transfer_time_includes_latency(self):
        link = LinkModel("test", bandwidth_gbps=1.0, latency_us=10.0)
        # 1 Gbps = 1000 bits/us.
        assert link.transfer_us(1000) == pytest.approx(11.0)

    def test_zero_bits_is_latency(self):
        assert COAXPRESS_12.transfer_us(0) == COAXPRESS_12.latency_us

    def test_faster_link_faster(self):
        bits = 1_000_000
        assert AXI_DDR.transfer_us(bits) < COAXPRESS_12.transfer_us(bits)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkModel("bad", bandwidth_gbps=0, latency_us=0)
        with pytest.raises(ConfigurationError):
            COAXPRESS_12.transfer_us(-1)


class TestArchitectureBudgets:
    def test_architecture_b_faster(self):
        budgets = compare_architectures(50, fpga_analysis_us=1.6)
        assert budgets["b"].total_us < budgets["a"].total_us

    def test_architecture_a_dominated_by_host_path(self):
        budget = architecture_a_budget(50)
        host_items = [item for item in budget.items if "host" in item.stage]
        assert sum(i.time_us for i in host_items) > budget.total_us / 2

    def test_architecture_b_analysis_is_minor(self):
        budget = architecture_b_budget(50, fpga_analysis_us=1.6)
        analysis = next(i for i in budget.items if "analysis" in i.stage)
        assert analysis.time_us < 0.1 * budget.total_us

    def test_budget_formatting(self):
        budget = architecture_b_budget(20, fpga_analysis_us=1.0)
        text = budget.format()
        assert "total" in text
        assert "QRM accelerator analysis" in text

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            architecture_a_budget(1)
        with pytest.raises(ConfigurationError):
            architecture_b_budget(0, 1.0)

    def test_budgets_scale_with_size(self):
        small = architecture_a_budget(20).total_us
        large = architecture_a_budget(90).total_us
        assert large > small


class TestBudgetStageVocabulary:
    """Budgets and measured stage reports must share one vocabulary."""

    @staticmethod
    def budgets():
        return (
            architecture_a_budget(20),
            architecture_b_budget(20, fpga_analysis_us=1.6),
        )

    def test_every_budget_item_has_canonical_key(self):
        for budget in self.budgets():
            for item in budget.items:
                assert item.key in PIPELINE_STAGES, (
                    f"budget row {item.stage!r} has non-canonical "
                    f"key {item.key!r}"
                )

    def test_stage_totals_cover_only_budgeted_stages(self):
        # `replay` is physical motion, not control latency: no budget
        # row may claim it, and the totals must account for every row.
        for budget in self.budgets():
            totals = budget.stage_totals()
            assert set(totals) <= set(BUDGETED_STAGES)
            assert sum(totals.values()) == pytest.approx(budget.total_us)

    def test_stage_totals_follow_data_path_order(self):
        for budget in self.budgets():
            keys = list(budget.stage_totals())
            assert keys == [k for k in PIPELINE_STAGES if k in keys]

    def test_compare_to_budget_joins_on_shared_keys(self):
        report = StageReport()
        for stage in PIPELINE_STAGES:
            report.record(stage, 100.0)
        budget = architecture_b_budget(20, fpga_analysis_us=1.6)
        table = report.compare_to_budget(budget.stage_totals(), "unit budget")
        for key in BUDGETED_STAGES:
            assert key in table
        assert "replay" not in table
