"""Tests for the top-level accelerator model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_fig7a
from repro.aod.validator import validate_schedule
from repro.config import QrmParameters, ScanMode
from repro.core.passes import PassOutcome, Phase
from repro.core.qrm import QrmScheduler
from repro.errors import SimulationError
from repro.fpga.accelerator import QrmAccelerator
from repro.fpga.config import FpgaConfig
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Quadrant
from repro.lattice.loading import load_uniform
from repro.lattice.mask import TargetMask


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_schedule_identical_to_golden_scheduler(self, geo20, seed):
        array = load_uniform(geo20, 0.5, rng=seed)
        run = QrmAccelerator(geo20).run(array)
        golden = QrmScheduler(geo20).schedule(array)
        assert run.result.schedule.moves == golden.schedule.moves
        assert run.result.final == golden.final

    def test_schedule_replays_cleanly(self, array20):
        run = QrmAccelerator(array20.geometry).run(array20)
        report = validate_schedule(array20, run.schedule)
        assert report.ok

    def test_geometry_mismatch_rejected(self, geo8, array20):
        with pytest.raises(SimulationError):
            QrmAccelerator(geo8).run(array20)

    def test_non_square_rejected(self):
        geometry = ArrayGeometry(width=10, height=8, target_width=4, target_height=4)
        with pytest.raises(SimulationError):
            QrmAccelerator(geometry)


class TestCycleReport:
    def test_report_structure(self, array20):
        report = QrmAccelerator(array20.geometry).run(array20).report
        assert report.size == 20
        assert report.clock_mhz == 250.0
        assert len(report.iteration_cycles) == 4
        assert report.total_cycles == (
            report.control_cycles
            + report.load_cycles
            + sum(report.iteration_cycles)
            + report.writeback_cycles
        )
        assert report.time_us == pytest.approx(report.total_cycles / 250.0)

    def test_converged_runs_still_pay_static_iterations(self, geo8):
        # An empty array converges after one iteration, but the PL
        # schedule is static: four iterations of cycles are charged.
        run = QrmAccelerator(geo8).run(AtomArray(geo8))
        assert run.result.iterations_used == 1
        assert len(run.report.iteration_cycles) == 4

    def test_latency_grows_with_size(self):
        times = []
        for size in (10, 30, 50, 90):
            geometry = ArrayGeometry.square(size)
            array = load_uniform(geometry, 0.5, rng=1)
            times.append(QrmAccelerator(geometry).latency_us(array))
        assert times == sorted(times)

    def test_latency_microsecond_scale_at_50(self, geo50):
        """Fig. 7(a) territory: a couple of microseconds at 50x50."""
        array = load_uniform(geo50, 0.5, rng=1)
        time_us = QrmAccelerator(geo50).latency_us(array)
        assert 0.5 <= time_us <= 3.0

    def test_iteration_cycles_scale_with_qw(self):
        """Per-iteration cost tracks the paper's ~2*Qw + row latency."""
        for size in (20, 40, 80):
            geometry = ArrayGeometry.square(size)
            array = load_uniform(geometry, 0.5, rng=2)
            report = QrmAccelerator(geometry).run(array).report
            qw = size // 2
            per_iter = report.iteration_cycles[0]
            assert 3 * qw <= per_iter <= 3 * qw + 40

    def test_packet_accounting(self, geo50):
        array = load_uniform(geo50, 0.5, rng=3)
        report = QrmAccelerator(geo50).run(array).report
        assert report.n_input_packets == 3
        assert report.n_output_packets >= 1
        assert report.n_records > 0

    def test_module_stats_collected(self, array20):
        report = QrmAccelerator(array20.geometry).run(array20).report
        assert any("shift_kernel" in name for name in report.module_busy)
        assert any("row_combination" in name for name in report.module_busy)

    def test_fig7a_cycles_are_pinned(self):
        # The series committed in benchmarks/results/fig7a.txt: every
        # number the cycle model reports must survive changes to how it
        # is computed.
        result = run_fig7a(sizes=(10, 30, 50, 70, 90), trials=2, seed_base=0)
        assert [row.fpga_cycles for row in result.rows] == [
            147.5,
            271.5,
            400.0,
            527.0,
            658.0,
        ]

    def test_fifo_stats_cover_every_iteration(self, geo50):
        # Pushes add up over the iterations and the peak is the highest
        # any iteration reached, not the last iteration's.
        accelerator = QrmAccelerator(geo50)
        run = accelerator.run(load_uniform(geo50, 0.5, rng=0))
        report = run.report
        assert report.fifo_stats["out_packets"]["pushed"] == report.n_output_packets
        passes = run.result.pass_outcomes
        peaks = []
        for row_pass, col_pass in zip(passes[::2], passes[1::2]):
            stats, _ = accelerator._simulate_iteration_reference(row_pass, col_pass)
            peaks.append(stats.fifo_stats["merged"]["max_occupancy"])
        assert report.fifo_stats["merged"]["max_occupancy"] == max(peaks) > 1

    def test_summary_text(self, array20):
        text = QrmAccelerator(array20.geometry).run(array20).report.summary()
        assert "20x20" in text
        assert "cycles" in text


class TestConfigSensitivity:
    def test_faster_clock_lower_latency(self, array20):
        base = QrmAccelerator(array20.geometry).run(array20).report
        fast = QrmAccelerator(array20.geometry, config=FpgaConfig(clock_mhz=500.0)).run(
            array20
        ).report
        assert fast.time_us < base.time_us
        assert fast.total_cycles == base.total_cycles

    def test_deeper_pipeline_more_cycles(self, array20):
        base = QrmAccelerator(array20.geometry).run(array20).report
        deep = QrmAccelerator(
            array20.geometry,
            config=FpgaConfig(kernel_pipeline_depth_extra=20),
        ).run(array20).report
        assert deep.total_cycles > base.total_cycles

    def test_fresh_mode_supported(self, array20):
        params = QrmParameters(n_iterations=2, scan_mode=ScanMode.FRESH)
        run = QrmAccelerator(array20.geometry, params=params).run(array20)
        assert len(run.report.iteration_cycles) == 2
        report = validate_schedule(array20, run.schedule)
        assert report.ok


@st.composite
def _line_commands(draw, qw: int) -> dict:
    """One pass's per-quadrant line command counts; quadrants may be
    missing, idle, sparse or dense."""
    commands = {}
    for quadrant in Quadrant:
        kind = draw(st.sampled_from(("missing", "idle", "sparse", "dense")))
        if kind == "missing":
            continue
        counts = {
            "idle": st.just(0),
            "sparse": st.sampled_from((0, 0, 0, 1, 2)),
            "dense": st.integers(min_value=1, max_value=4),
        }[kind]
        commands[quadrant] = draw(st.lists(counts, min_size=qw, max_size=qw))
    return commands


@st.composite
def _iterations(draw):
    """(Qw, row pass, column pass, config) for one accelerator iteration."""
    qw = draw(st.integers(min_value=1, max_value=48))
    row_pass = PassOutcome(phase=Phase.ROW, line_commands=draw(_line_commands(qw)))
    col_pass = PassOutcome(phase=Phase.COLUMN, line_commands=draw(_line_commands(qw)))
    config = FpgaConfig(
        # Half the draws drain all four lanes per cycle, and shallow
        # FIFOs are favoured, so both sides of the back-pressure line
        # are covered.
        fifo_depth=draw(st.integers(1, 8) | st.integers(1, 64)),
        combiner_per_cycle=draw(st.just(4) | st.integers(1, 3)),
        # Includes records as wide as, or wider than, a packet.
        packet_bits=draw(st.sampled_from((32, 64, 256, 1024))),
        record_bits=draw(st.sampled_from((16, 32, 64))),
        recorder_latency=draw(st.integers(min_value=1, max_value=4)),
        kernel_pipeline_depth_extra=draw(st.integers(min_value=0, max_value=4)),
    )
    return qw, row_pass, col_pass, config


class TestClosedFormCycleModel:
    """The closed-form iteration cost against the tick simulator."""

    @settings(max_examples=200, deadline=None)
    @given(case=_iterations())
    def test_matches_the_tick_simulator_or_declines_on_stalls(self, case):
        qw, row_pass, col_pass, config = case
        accelerator = QrmAccelerator(ArrayGeometry.square(2 * qw, 2), config=config)
        closed = accelerator._closed_form_iteration(row_pass, col_pass)
        reference, _ = accelerator._simulate_iteration_reference(row_pass, col_pass)
        if closed is None:
            stalls = sum(fifo["stalls"] for fifo in reference.fifo_stats.values())
            assert stalls > 0 or config.combiner_per_cycle < len(Quadrant)
            return
        assert closed == reference
        assert list(closed.module_busy) == list(reference.module_busy)
        assert list(closed.fifo_stats) == list(reference.fifo_stats)

    @pytest.mark.parametrize(
        "geometry",
        [ArrayGeometry.square(size) for size in (6, 16, 50, 90, 128)]
        + [ArrayGeometry.with_mask(16, 16, TargetMask.ring(16, 16, 6.0, 2.0))],
        ids=["6", "16", "50", "90", "128", "ring16"],
    )
    @pytest.mark.parametrize("fill", [0.3, 0.6, 0.9])
    def test_default_config_never_ticks(self, monkeypatch, geometry, fill):
        # Every iteration of a default-config run takes the closed form.
        def tick(*args, **kwargs):
            raise AssertionError("the tick simulator ran inside run()")

        monkeypatch.setattr(QrmAccelerator, "_simulate_iteration_reference", tick)
        array = load_uniform(geometry, fill, rng=geometry.width)
        assert QrmAccelerator(geometry).run(array).report.total_cycles > 0

    @pytest.mark.parametrize(
        "config",
        [
            FpgaConfig(),
            FpgaConfig(fifo_depth=2),  # back-pressure: falls back per iteration
            FpgaConfig(combiner_per_cycle=2),  # always falls back
            FpgaConfig(packet_bits=64, recorder_latency=3),
        ],
        ids=["default", "fifo2", "combiner2", "narrow-packets"],
    )
    def test_report_identical_to_the_tick_simulator(self, monkeypatch, geo50, config):
        array = load_uniform(geo50, 0.5, rng=0)
        closed = QrmAccelerator(geo50, config=config).run(array).report
        monkeypatch.setattr(
            QrmAccelerator, "_closed_form_iteration", lambda self, row, col: None
        )
        ticked = QrmAccelerator(geo50, config=config).run(array).report
        assert closed == ticked
