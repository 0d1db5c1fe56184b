"""Tests for the register-level shift-kernel model (paper Fig. 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scan import scan_line
from repro.errors import SimulationError
from repro.fpga.bitvec import BitVector
from repro.fpga.shift_kernel import PipelinedShiftKernel, ShiftKernelLane


def vec(text: str) -> BitVector:
    return BitVector.from_bits(ch == "1" for ch in text)


class TestSingleRowScan:
    def test_matches_functional_scan_random(self, rng):
        for _ in range(300):
            qw = int(rng.integers(1, 40))
            bits = rng.random(qw) < rng.uniform(0.2, 0.8)
            lane = ShiftKernelLane(qw)
            trace = lane.scan_row(BitVector.from_array(bits))
            assert trace.hole_positions() == scan_line(bits).hole_positions

    def test_register_shifts_every_stage(self):
        lane = ShiftKernelLane(4)
        trace = lane.scan_row(vec("1010"))
        for stage, state in enumerate(trace.stages):
            assert state.register_before.value == (0b0101 >> stage)
            assert state.register_after.value == (0b0101 >> (stage + 1))

    def test_no_commands_without_outboard_atoms(self):
        lane = ShiftKernelLane(4)
        trace = lane.scan_row(vec("1100"))
        assert trace.hole_positions() == ()

    def test_width_mismatch_rejected(self):
        lane = ShiftKernelLane(4)
        with pytest.raises(SimulationError):
            lane.scan_row(vec("101"))

    def test_invalid_width_rejected(self):
        with pytest.raises(SimulationError):
            ShiftKernelLane(0)


class TestSenGating:
    def test_masked_stage_issues_no_command(self):
        # s_en = 0 on stage 1 blocks the shift the hole would trigger.
        mask = BitVector.from_bits([True, False, True, True])
        lane = ShiftKernelLane(4, s_en_mask=mask)
        trace = lane.scan_row(vec("1011"))
        assert trace.hole_positions() == ()

    def test_unmasked_stages_unaffected(self):
        mask = BitVector.from_bits([False, True, True, True])
        lane = ShiftKernelLane(4, s_en_mask=mask)
        trace = lane.scan_row(vec("0101"))  # holes at 0 (masked) and 2
        assert trace.hole_positions() == (2,)

    def test_mask_width_checked(self):
        with pytest.raises(SimulationError):
            ShiftKernelLane(4, s_en_mask=BitVector(3, 0))


class TestColumnStream:
    def test_transpose_of_pre_shift_bits(self, rng):
        qw = 6
        rows = [(rng.random(qw) < 0.5) for _ in range(qw)]
        lane = ShiftKernelLane(qw)
        for r in rows:
            lane.scan_row(BitVector.from_array(r))
        columns = lane.column_stream()
        matrix = np.array(rows)
        for v in range(qw):
            assert columns[v].to_bools() == list(matrix[:, v])

    def test_fig6_column0_example(self):
        """Fig. 6(b): Column-0 is the original right-most bit of each row."""
        qw = 5
        rows = ["11101", "10011", "01110", "11111", "00001"]
        lane = ShiftKernelLane(qw)
        for r in rows:
            lane.scan_row(vec(r))
        column0 = lane.column_stream()[0]
        expected = [r[0] == "1" for r in rows]
        assert column0.to_bools() == expected

    def test_reset_buffers(self):
        lane = ShiftKernelLane(3)
        lane.scan_row(vec("111"))
        lane.reset_buffers()
        assert all(len(buf) == 0 for buf in lane.column_buffers)


class TestPipelinedKernel:
    def test_latency_formula(self):
        kernel = PipelinedShiftKernel(qw=25)
        assert kernel.latency_cycles(25) == 24 + 25
        assert kernel.latency_cycles(25, extra_depth=3) == 24 + 25 + 3
        assert kernel.latency_cycles(0) == 0

    def test_snapshot_after_three_cycles(self):
        """Fig. 6(a): after 3 cycles, three rows are in flight."""
        kernel = PipelinedShiftKernel(qw=5)
        rows = [vec("10110"), vec("01011"), vec("11100"), vec("00110"), vec("10101")]
        kernel.process(rows)
        snap = kernel.snapshot(3)
        assert len(snap.occupancy) == 4  # rows 0..3 at stages 3,2,1,0
        assert (0, 3) in snap.occupancy
        assert (3, 0) in snap.occupancy
        assert snap.completed_rows == ()

    def test_snapshot_after_qw_plus_one(self):
        """Fig. 6(b): after Qw+1 cycles the first rows have completed."""
        kernel = PipelinedShiftKernel(qw=5)
        rows = [vec("10110")] * 5
        kernel.process(rows)
        snap = kernel.snapshot(6)
        assert 0 in snap.completed_rows
        assert 1 in snap.completed_rows

    def test_render_snapshot_text(self):
        kernel = PipelinedShiftKernel(qw=5)
        kernel.process([vec("10110")] * 5)
        text = kernel.render_snapshot(3)
        assert "cycle 3" in text
        assert "row 0" in text

    def test_process_returns_traces_matching_scan(self, rng):
        qw = 8
        rows_np = [(rng.random(qw) < 0.5) for _ in range(qw)]
        kernel = PipelinedShiftKernel(qw)
        traces = kernel.process([BitVector.from_array(r) for r in rows_np])
        for trace, bits in zip(traces, rows_np):
            assert trace.hole_positions() == scan_line(bits).hole_positions
