"""Property-based tests for the scan kernel semantics."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import compact_line, is_prefix_line

from repro.core.scan import scan_line
from repro.fpga.bitvec import BitVector
from repro.fpga.shift_kernel import ShiftKernelLane

lines = st.lists(st.booleans(), min_size=1, max_size=64).map(
    lambda bits: np.array(bits, dtype=bool)
)


@given(lines)
def test_scan_commands_are_holes_with_outboard_atoms(line):
    result = scan_line(line)
    for hole in result.hole_positions:
        assert not line[hole]
        assert line[hole + 1 :].any()


@given(lines)
def test_scan_commands_strictly_ascending(line):
    holes = scan_line(line).hole_positions
    assert list(holes) == sorted(set(holes))


@given(lines)
def test_command_count_bounded_by_holes(line):
    result = scan_line(line)
    n_holes = int((~line).sum())
    assert result.n_commands <= n_holes


@given(lines)
def test_compaction_preserves_popcount(line):
    compacted = compact_line(line)
    assert compacted.sum() == line.sum()
    assert is_prefix_line(compacted)


@given(lines)
def test_compaction_idempotent(line):
    once = compact_line(line)
    twice = compact_line(once)
    assert np.array_equal(once, twice)


@given(lines)
def test_compacted_lines_scan_to_zero_commands(line):
    assert scan_line(compact_line(line)).n_commands == 0


@given(lines)
def test_executing_commands_reaches_compaction(line):
    state = line.copy()
    for k, hole in enumerate(scan_line(line).hole_positions):
        cur = hole - k  # k earlier suffix shifts pulled it inward
        assert not state[cur]  # the tracked hole is still a hole
        state[cur:-1] = state[cur + 1 :]
        state[-1] = False
    assert np.array_equal(state, compact_line(line))


@given(lines)
@settings(max_examples=200)
def test_register_model_matches_functional_scan(line):
    lane = ShiftKernelLane(line.size)
    trace = lane.scan_row(BitVector.from_array(line))
    assert trace.hole_positions() == scan_line(line).hole_positions


@given(lines)
def test_register_model_transpose_is_input(line):
    lane = ShiftKernelLane(line.size)
    lane.scan_row(BitVector.from_array(line))
    streamed = [buf[0] for buf in lane.column_buffers]
    assert streamed == list(line)
