"""Multi-tone waveform segments with linear chirps.

A segment plays a set of simultaneous tones for a fixed duration; each
tone ramps linearly from a start to an end frequency (a chirp) under a
linear amplitude envelope.  Phase is integrated exactly so consecutive
samples are continuous within a segment.

Units: frequencies in MHz, durations in microseconds, sample rates in
MS/s (so frequency x time products are dimensionless cycles), and
amplitudes normalised to [0, 1] of full scale.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import WaveformError


@dataclass(frozen=True)
class Tone:
    """One chirped tone inside a segment (frequencies in MHz)."""

    start_mhz: float
    end_mhz: float


@dataclass(frozen=True)
class Segment:
    """A fixed-duration block of simultaneous tones.

    ``amplitude_start``/``amplitude_end`` define a linear envelope over
    the whole segment, shared by all tones (the AWG scales channels
    together during pickup and drop ramps).
    """

    label: str
    duration_us: float
    tones: tuple[Tone, ...]
    amplitude_start: float = 1.0
    amplitude_end: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise WaveformError(f"segment '{self.label}' needs positive duration")
        for amp in (self.amplitude_start, self.amplitude_end):
            if not 0.0 <= amp <= 1.0:
                raise WaveformError(
                    f"segment '{self.label}' amplitude {amp} outside [0, 1]"
                )

    def n_samples(self, sample_rate_msps: float) -> int:
        return max(1, int(round(self.duration_us * sample_rate_msps)))

    def synthesize(self, sample_rate_msps: float = 500.0) -> np.ndarray:
        """Sample the segment (arbitrary units, one summed channel).

        The instantaneous phase of a linear chirp from f0 to f1 over T is
        ``2*pi*(f0*t + (f1-f0)*t^2/(2*T))``.
        """
        n = self.n_samples(sample_rate_msps)
        t = np.arange(n) / sample_rate_msps  # microseconds
        envelope = self.amplitude_start + (
            self.amplitude_end - self.amplitude_start
        ) * (t / self.duration_us)
        out = np.zeros(n, dtype=float)
        for tone in self.tones:
            sweep = tone.end_mhz - tone.start_mhz
            phase = 2.0 * np.pi * (
                tone.start_mhz * t + sweep * t**2 / (2.0 * self.duration_us)
            )
            out += np.sin(phase)
        if self.tones:
            out /= len(self.tones)
        return envelope * out


@dataclass(frozen=True, eq=False)
class WaveformProgram:
    """An ordered run of segments covering a whole move schedule, by column.

    Segment ``i`` is ``labels[i]``, lasts ``durations[i]`` µs under the
    envelope ``amplitude_start[i] -> amplitude_end[i]``, and plays tones
    ``tone_offsets[i]:tone_offsets[i + 1]`` of the flat ``start_mhz`` /
    ``end_mhz`` columns.  :attr:`segments` presents the same program as
    :class:`Segment` objects.
    """

    labels: Sequence[str]
    durations: np.ndarray
    amplitude_start: np.ndarray
    amplitude_end: np.ndarray
    tone_offsets: np.ndarray
    start_mhz: np.ndarray
    end_mhz: np.ndarray

    @classmethod
    def from_segments(cls, segments: Sequence[Segment]) -> WaveformProgram:
        """Pack ``segments`` into columns, in order."""
        tone_offsets = np.zeros(len(segments) + 1, dtype=np.intp)
        tone_offsets[1:] = np.cumsum([len(s.tones) for s in segments], dtype=np.intp)
        tones = [tone for s in segments for tone in s.tones]
        return cls(
            labels=[s.label for s in segments],
            durations=np.array([s.duration_us for s in segments], dtype=float),
            amplitude_start=np.array([s.amplitude_start for s in segments], float),
            amplitude_end=np.array([s.amplitude_end for s in segments], float),
            tone_offsets=tone_offsets,
            start_mhz=np.array([t.start_mhz for t in tones], dtype=float),
            end_mhz=np.array([t.end_mhz for t in tones], dtype=float),
        )

    @property
    def segments(self) -> SegmentView:
        """Read-only sequence of the program's :class:`Segment` objects."""
        return SegmentView(self)

    @property
    def total_duration_us(self) -> float:
        # Builtin sum in segment order, not np.sum (pairwise): the same
        # float as adding the segments' durations one by one.
        return sum(self.durations.tolist())

    def n_samples(self, sample_rate_msps: float) -> int:
        return sum(s.n_samples(sample_rate_msps) for s in self.segments)

    def synthesize(self, sample_rate_msps: float = 500.0) -> np.ndarray:
        """Concatenate all segment samples (use on small programs only)."""
        if not self.segments:
            return np.zeros(0, dtype=float)
        return np.concatenate([s.synthesize(sample_rate_msps) for s in self.segments])

    def __len__(self) -> int:
        return len(self.labels)


class SegmentLabels(Sequence):
    """Labels ``move{m}.{kind}`` of a compiled program, formatted on access.

    Move ``m`` compiles to one segment per entry of ``kinds``, in order,
    and the program holds the first ``n`` of those segments (the last
    move has no settle gap).
    """

    __slots__ = ("_n", "_kinds")

    def __init__(self, n: int, kinds: Sequence[str]) -> None:
        self._n = n
        self._kinds = tuple(kinds)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(self._n)[index]]
        move, kind = divmod(range(self._n)[index], len(self._kinds))
        return f"move{move}.{self._kinds[kind]}"


class SegmentView(Sequence):
    """A :class:`WaveformProgram`'s segments, built on access.

    ``len()`` is O(1); item ``i`` is a fresh :class:`Segment` holding
    the program's columns at row ``i``.
    """

    __slots__ = ("_program",)

    def __init__(self, program: WaveformProgram) -> None:
        self._program = program

    def __len__(self) -> int:
        return len(self._program)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        p = self._program
        a, b = p.tone_offsets[i], p.tone_offsets[i + 1]
        return Segment(
            label=p.labels[i],
            duration_us=float(p.durations[i]),
            tones=tuple(map(Tone, p.start_mhz[a:b].tolist(), p.end_mhz[a:b].tolist())),
            amplitude_start=float(p.amplitude_start[i]),
            amplitude_end=float(p.amplitude_end[i]),
        )
