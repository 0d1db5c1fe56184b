"""Compile move schedules into AWG waveform programs.

Every parallel move becomes a pickup / transport / drop segment triple:

* *pickup* — the AOD tones of the selected rows and columns ramp up in
  amplitude to transfer atoms from the static traps into the tweezers;
* *transport* — the tones of the moving axis chirp by ``steps`` lattice
  spacings while the orthogonal axis stays static;
* *drop* — amplitude ramps back down, releasing atoms into the lattice.

Durations come from the shared :class:`~repro.aod.timing.MoveTimingModel`
so the program length equals the physical motion-time estimate exactly
(asserted in tests).
"""

from __future__ import annotations

import numpy as np

from repro.aod.move import ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.table import ScheduleTable
from repro.aod.timing import DEFAULT_MOVE_TIMING, MoveTimingModel
from repro.awg.tones import AodToneConfig
from repro.awg.waveform import Segment, SegmentLabels, Tone, WaveformProgram
from repro.lattice.geometry import Direction


def _axis_tones(tone_map, indices: list[int]) -> tuple[Tone, ...]:
    return tuple(Tone(start_mhz=f, end_mhz=f) for f in tone_map.frequencies(indices))


def _chirped_tones(tone_map, indices: list[int], delta: int) -> tuple[Tone, ...]:
    tones = []
    for index in indices:
        start = tone_map.frequency(index)
        end = tone_map.frequency(index + delta)
        tones.append(Tone(start_mhz=start, end_mhz=end))
    return tuple(tones)


def compile_move(
    move: ParallelMove,
    tones: AodToneConfig,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
    index: int = 0,
) -> list[Segment]:
    """Segments (pickup, transport, drop) for one parallel move."""
    if move.is_horizontal:
        row_indices = move.selected_lines()
        col_indices = move.selected_cross()
    else:
        col_indices = move.selected_lines()
        row_indices = move.selected_cross()

    row_static = _axis_tones(tones.rows, row_indices)
    col_static = _axis_tones(tones.cols, col_indices)

    delta = move.steps
    if move.direction in (Direction.NORTH, Direction.WEST):
        delta = -delta
    if move.is_horizontal:
        transport_tones = row_static + _chirped_tones(tones.cols, col_indices, delta)
    else:
        transport_tones = col_static + _chirped_tones(tones.rows, row_indices, delta)

    label = f"move{index}"
    pickup = Segment(
        label=f"{label}.pickup",
        duration_us=timing.pickup_us,
        tones=row_static + col_static,
        amplitude_start=0.0,
        amplitude_end=1.0,
    )
    transport = Segment(
        label=f"{label}.transport",
        duration_us=timing.transfer_us_per_site * move.steps,
        tones=transport_tones,
    )
    drop_row = _axis_tones(
        tones.rows,
        [i + (delta if not move.is_horizontal else 0) for i in row_indices],
    )
    drop_col = _axis_tones(
        tones.cols,
        [i + (delta if move.is_horizontal else 0) for i in col_indices],
    )
    drop = Segment(
        label=f"{label}.drop",
        duration_us=timing.drop_us,
        tones=drop_row + drop_col,
        amplitude_start=1.0,
        amplitude_end=0.0,
    )
    return [pickup, transport, drop]


def compile_schedule_reference(
    schedule: MoveSchedule,
    tones: AodToneConfig | None = None,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
) -> WaveformProgram:
    """Move-by-move object walker kept as the oracle for :func:`compile_schedule`."""
    if tones is None:
        tones = AodToneConfig()
    segments: list[Segment] = []
    for index, move in enumerate(schedule):
        segments.extend(compile_move(move, tones, timing, index))
        if timing.settle_us > 0 and index < len(schedule) - 1:
            segments.append(
                Segment(
                    label=f"move{index}.settle",
                    duration_us=timing.settle_us,
                    tones=(),
                )
            )
    return WaveformProgram.from_segments(segments)


#: The segments one move compiles to, in program order; the settle gap
#: follows every move but the last, and only when ``settle_us > 0``.
_KINDS = ("pickup", "transport", "drop", "settle")
_AMPLITUDE_START = (0.0, 1.0, 1.0, 1.0)
_AMPLITUDE_END = (1.0, 1.0, 0.0, 1.0)


def _compiles_cleanly(
    table: ScheduleTable,
    shift_move: np.ndarray,
    tones: AodToneConfig,
    timing: MoveTimingModel,
) -> bool:
    """No tone index outside its map and no non-positive segment duration.

    These are the schedules :func:`compile_schedule_reference` compiles
    without raising, less those with trusted empty spans (which take
    the reference path too).
    """
    horizontal = table.horizontal[shift_move]
    line, start, stop = table.line, table.span_start, table.span_stop
    shift = table.displacement[shift_move]
    n_line = np.where(horizontal, tones.rows.n_sites, tones.cols.n_sites)
    n_cross = np.where(horizontal, tones.cols.n_sites, tones.rows.n_sites)
    in_range = (
        (line >= 0)
        & (line < n_line)
        & (start >= 0)
        & (stop > start)
        & (stop <= n_cross)
        & (start + shift >= 0)
        & (stop - 1 + shift < n_cross)
    )
    return bool(
        in_range.all()
        and timing.pickup_us > 0
        and timing.drop_us > 0
        and (timing.transfer_us_per_site * table.steps > 0).all()
    )


def _frequencies(
    tones: AodToneConfig, on_rows: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """:meth:`ToneMap.frequency` over an index array, without range checks.

    Each entry uses the rows map where ``on_rows`` and the cols map
    elsewhere; the arithmetic is the scalar map's, so are the floats.
    """
    rows, cols = tones.rows, tones.cols
    base = np.where(on_rows, rows.base_mhz, cols.base_mhz)
    spacing = np.where(on_rows, rows.spacing_mhz, cols.spacing_mhz)
    return base + indices * spacing


def _slots(first: np.ndarray, size: np.ndarray, lead, transport_lead) -> list:
    """Flat tone slots in a move's pickup, transport and drop segments.

    ``first`` is a tone's slot counted from its move's first pickup
    tone, ``size`` the move's tones per segment, and ``lead`` the tones
    listed ahead of it in pickup and drop (``transport_lead`` in
    transport).
    """
    return [first + lead, first + size + transport_lead, first + 2 * size + lead]


def compile_schedule(
    schedule: MoveSchedule,
    tones: AodToneConfig | None = None,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
) -> WaveformProgram:
    """The full AWG program for ``schedule``, with settle gaps.

    Every tone of the schedule comes from one NumPy pass over
    :meth:`MoveSchedule.table`: tone maps are affine, so each frequency
    is ``base + index * spacing`` over an index array; a move's
    span-axis tones are the union of its spans, found with a difference
    array; and all tones are scattered straight into segment order.
    Segment for segment, the program equals
    :func:`compile_schedule_reference`'s.  A schedule this pass cannot
    compile cleanly (a tone index outside its map, a non-positive
    duration) goes to the reference, which raises the exact
    :class:`~repro.errors.WaveformError`.
    """
    if tones is None:
        tones = AodToneConfig()
    table = schedule.table()
    n = len(table)
    shift_move = table.shift_move
    if not n or not _compiles_cleanly(table, shift_move, tones, timing):
        return compile_schedule_reference(schedule, tones, timing)

    # Per move: pickup, transport, drop (, settle).  The first three
    # each carry the move's line tones and span tones, settle none.
    per = 4 if timing.settle_us > 0 else 3
    n_segments = n * per - (per == 4)
    n_lines = np.diff(table.offsets)
    cross_move, cross = table.span_union()
    horizontal = table.horizontal
    displacement = table.displacement
    n_cross = np.bincount(cross_move, minlength=n)
    move_tones = n_lines + n_cross
    counts = np.zeros((n, per), dtype=np.intp)
    counts[:, :3] = move_tones[:, None]
    tone_offsets = np.zeros(n_segments + 1, dtype=np.intp)
    np.cumsum(counts.ravel()[:n_segments], out=tone_offsets[1:])
    first = tone_offsets[: n * per : per]
    cross_first = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(n_cross, out=cross_first[1:])

    # Pickup and drop list row tones before column tones; transport
    # lists the static line tones before the chirped span tones.
    line_h = horizontal[shift_move]
    line_rank = np.arange(table.n_shifts) - table.offsets[shift_move]
    line_slots = _slots(
        first[shift_move] + line_rank,
        move_tones[shift_move],
        np.where(line_h, 0, n_cross[shift_move]),
        0,
    )
    lines = table.line[np.lexsort((table.line, shift_move))]
    line_mhz = _frequencies(tones, line_h, lines)

    cross_h = horizontal[cross_move]
    cross_lines = n_lines[cross_move]
    cross_rank = np.arange(len(cross)) - cross_first[cross_move]
    cross_slots = _slots(
        first[cross_move] + cross_rank,
        move_tones[cross_move],
        np.where(cross_h, cross_lines, 0),
        cross_lines,
    )
    picked = _frequencies(tones, ~cross_h, cross)
    dropped = _frequencies(tones, ~cross_h, cross + displacement[cross_move])

    slots = np.concatenate(line_slots + cross_slots)
    start_mhz = np.empty(tone_offsets[-1])
    end_mhz = np.empty(tone_offsets[-1])
    start_mhz[slots] = np.concatenate([line_mhz] * 3 + [picked, picked, dropped])
    end_mhz[slots] = np.concatenate([line_mhz] * 3 + [picked, dropped, dropped])

    durations = np.empty((n, per))
    durations[:] = (timing.pickup_us, 0.0, timing.drop_us, timing.settle_us)[:per]
    durations[:, 1] = timing.transfer_us_per_site * table.steps
    return WaveformProgram(
        labels=SegmentLabels(n_segments, _KINDS[:per]),
        durations=durations.ravel()[:n_segments],
        amplitude_start=np.tile(_AMPLITUDE_START[:per], n)[:n_segments],
        amplitude_end=np.tile(_AMPLITUDE_END[:per], n)[:n_segments],
        tone_offsets=tone_offsets,
        start_mhz=start_mhz,
        end_mhz=end_mhz,
    )
