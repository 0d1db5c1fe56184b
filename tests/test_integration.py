"""Integration tests across subsystems.

These walk the paper's Fig. 1 workflow end to end (image -> detection ->
rearrangement analysis -> validated schedule -> AWG program) and pin the
cross-model equivalences the reproduction rests on.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_fig7a
from repro.aod.timing import MoveTimingModel
from repro.aod.validator import validate_schedule
from repro.awg.compiler import compile_schedule
from repro.baselines.base import get_algorithm, list_algorithms
from repro.config import QrmParameters, ScanMode
from repro.core.qrm import QrmScheduler
from repro.detection.detect import detect_occupancy, detection_fidelity
from repro.detection.imaging import render_image
from repro.fpga.accelerator import QrmAccelerator
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform


class TestFig1Workflow:
    """Camera image -> detection -> schedule -> waveforms, end to end."""

    def test_full_pipeline(self, geo20):
        truth = load_uniform(geo20, 0.5, rng=77)

        # 1. Fluorescence imaging and atom detection.
        image = render_image(truth, rng=78)
        detection = detect_occupancy(image, geo20)
        assert detection_fidelity(truth, detection.array) >= 0.99

        # 2. Rearrangement analysis on the detected occupancy.
        result = QrmScheduler(geo20).schedule(detection.array)
        report = validate_schedule(detection.array, result.schedule)
        assert report.ok

        # 3. The schedule compiles to a playable AWG program.
        timing = MoveTimingModel(
            pickup_us=10.0,
            drop_us=10.0,
            transfer_us_per_site=5.0,
            settle_us=1.0,
        )
        program = compile_schedule(result.schedule, timing=timing)
        assert len(program) >= 3 * result.n_moves
        assert program.total_duration_us == pytest.approx(
            timing.schedule_motion_us(result.schedule)
        )

    def test_detection_errors_only_flip_isolated_sites(self, geo20):
        """Even with detection noise the schedule stays executable."""
        truth = load_uniform(geo20, 0.5, rng=80)
        image = render_image(truth, rng=81)
        detected = detect_occupancy(image, geo20).array
        result = QrmScheduler(geo20).schedule(detected)
        assert validate_schedule(detected, result.schedule).ok


class TestGoldenEquivalences:
    @pytest.mark.parametrize("size", [10, 20, 30])
    def test_accelerator_matches_scheduler_across_sizes(self, size):
        geometry = ArrayGeometry.square(size)
        array = load_uniform(geometry, 0.5, rng=size)
        run = QrmAccelerator(geometry).run(array)
        golden = QrmScheduler(geometry).schedule(array)
        assert run.result.schedule.moves == golden.schedule.moves
        assert run.result.final == golden.final

    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_algorithms_validate_on_same_input(self, geo20, seed):
        array = load_uniform(geo20, 0.5, rng=seed)
        for name in list_algorithms():
            result = get_algorithm(name, geo20).schedule(array)
            report = validate_schedule(array, result.schedule)
            assert report.ok, (name, report.violations[:3])
            assert report.final_array == result.final


class TestScanModesAgreeOnQuality:
    def test_pipelined_and_fresh_reach_same_fill_level(self, geo50):
        array = load_uniform(geo50, 0.5, rng=13)
        pipelined = QrmScheduler(
            geo50, QrmParameters(n_iterations=16, scan_mode=ScanMode.PIPELINED)
        ).schedule(array)
        fresh = QrmScheduler(
            geo50, QrmParameters(n_iterations=4, scan_mode=ScanMode.FRESH)
        ).schedule(array)
        # Different interleavings may reach different Young diagrams, but
        # the assembled fill levels agree closely.
        assert pipelined.target_fill_fraction == pytest.approx(
            fresh.target_fill_fraction, abs=0.02
        )


class TestExperimentCoherence:
    def test_fig7a_speedup_direction_matches_paper(self):
        result = run_fig7a(sizes=(50,), trials=1)
        row = result.rows[0]
        # The paper reports 54x at 50; our honest cycle model lands in
        # the same decade.
        assert 10 <= row.speedup_model <= 200

    def test_measured_python_slower_than_model(self):
        """Python measurement is orders above the C++-equivalent model —
        documenting why both columns exist."""
        result = run_fig7a(sizes=(30,), trials=1)
        row = result.rows[0]
        assert row.cpu_measured_us > row.cpu_model_us
