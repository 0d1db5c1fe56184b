"""Micro-benchmarks of the individual substrates.

Not a paper figure — these guard the performance of the hot paths the
other benchmarks depend on (scan kernel, executor, detection).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aod.executor import apply_parallel_move
from repro.aod.move import LineShift, ParallelMove
from repro.core.scan import scan_axis, scan_line
from repro.detection.detect import detect_occupancy
from repro.detection.imaging import render_image
from repro.fpga.bitvec import BitVector
from repro.fpga.shift_kernel import ShiftKernelLane
from repro.lattice.geometry import ArrayGeometry, Direction
from repro.lattice.loading import load_uniform


@pytest.fixture(scope="module")
def line45(rng=np.random.default_rng(5)):
    return rng.random(45) < 0.5


@pytest.fixture(scope="module")
def grid50(rng=np.random.default_rng(6)):
    return rng.random((50, 50)) < 0.5


def test_scan_line_45(benchmark, line45):
    result = benchmark(scan_line, line45)
    assert result.n_atoms == int(line45.sum())


def test_scan_axis_quadrant_45(benchmark, grid50):
    local = grid50[:45, :45]
    scans = benchmark(scan_axis, local, 0)
    assert len(scans) == 45


def test_register_kernel_row_45(benchmark, line45):
    lane = ShiftKernelLane(line45.size)
    vec = BitVector.from_array(line45)

    def scan():
        lane.reset_buffers()
        return lane.scan_row(vec)

    trace = benchmark(scan)
    assert len(trace.stages) == line45.size


def test_executor_parallel_move_50_lines(benchmark, grid50):
    grid = grid50.copy()
    grid[:, 20] = False  # keep the leading column free of collisions
    shifts = [
        LineShift(Direction.EAST, line, span_start=0, span_stop=20)
        for line in range(50)
    ]
    move = ParallelMove.of(shifts)

    def run():
        work = grid.copy()
        return apply_parallel_move(work, move)

    moved = benchmark(run)
    assert moved > 0


def test_detection_20(benchmark):
    geometry = ArrayGeometry.square(20, 12)
    truth = load_uniform(geometry, 0.5, rng=4)
    image = render_image(truth, rng=5)
    result = benchmark(detect_occupancy, image, geometry)
    assert result.array.n_atoms > 0
