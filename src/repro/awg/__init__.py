"""AWG waveform synthesis: move schedules -> RF tone programs.

The output end of the paper's data path: the accelerator's parallel
moves become the multi-tone RF waveforms an arbitrary waveform
generator plays into the 2-D AOD, one frequency per active row/column
(the tone-generation stage that low-latency FPGA control systems such
as Hu et al., arXiv:2607.08687, synthesise on-chip).  Conventions:
frequencies in MHz, durations in microseconds, amplitudes normalised to
[0, 1].

A compiled :class:`~repro.awg.waveform.WaveformProgram` is columnar:
one row per chirp segment (label, duration, amplitude envelope, offset
into the tone columns) and one flat ``start_mhz``/``end_mhz`` pair of
columns holding every tone of every segment.  Its ``segments`` is a
read-only view that builds :class:`~repro.awg.waveform.Segment` objects
on access.  :func:`~repro.awg.compiler.compile_schedule` fills the
columns in one NumPy pass over the schedule's
:class:`~repro.aod.table.ScheduleTable`;
:func:`~repro.awg.compiler.compile_schedule_reference`, the move-by-move
object walker, is its differential oracle.  The program's total
duration equals the schedule's physical motion-time estimate.  The
closed-loop pipeline (:mod:`repro.pipeline`) drives this package as its
``awg`` stage.
"""

from repro.awg.compiler import compile_move, compile_schedule
from repro.awg.tones import AodToneConfig, ToneMap
from repro.awg.waveform import Segment, Tone, WaveformProgram

__all__ = [
    "AodToneConfig",
    "Segment",
    "Tone",
    "ToneMap",
    "WaveformProgram",
    "compile_move",
    "compile_schedule",
]
