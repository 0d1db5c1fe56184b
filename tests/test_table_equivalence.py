"""Schedule-table consumers vs their object-walker oracles.

AWG compilation and lossy replay run as NumPy passes over a schedule's
:class:`~repro.aod.table.ScheduleTable`; each keeps the move-by-move
walker it replaced as a ``*_reference`` oracle and must match it bit
for bit:

* :func:`~repro.awg.compiler.compile_schedule` vs
  :func:`~repro.awg.compiler.compile_schedule_reference` — every
  segment (label, duration, tones, envelope, settle gaps), the total
  duration, and the exact :class:`~repro.errors.WaveformError` when a
  tone index overflows its map or a segment would last no time;
* :func:`~repro.physics.loss.simulate_losses` vs
  :func:`~repro.physics.loss.simulate_losses_reference` — final grid,
  loss counters, duration, the generator's state afterwards, and the
  exact :class:`~repro.errors.MoveError` when a move is invalid for the
  array it replays on (raised, like a negative move duration's
  :class:`~repro.errors.ConfigurationError`, before anything is drawn).

Inputs are schedules of every registered algorithm (wide QRM rounds,
single-site MTA1 and repair moves) on rectangular and masked
geometries, under drawn tone maps, timing and loss models, and for
replay also rogue bundles held as raw columns (shared lines, overlapping
or reversed spans, lines outside the grid) and hand-built schedules
whose moves start and end the runs replay walks (a line driven again, a
turn of axis, a rogue bundle or a collision mid-run).  A bundle whose
shifts do not move in lockstep never becomes a schedule: building one
raises the :class:`~repro.aod.move.ParallelMove` constructor's error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import atom_arrays, masked_atom_arrays

from repro.aod.constraints import DEFAULT_CONSTRAINTS
from repro.aod.executor import (
    MoveApplier,
    apply_parallel_move,
    apply_parallel_move_reference,
    execute_schedule,
)
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.table import DIRECTION_CODE, ScheduleTable
from repro.aod.timing import MoveTimingModel
from repro.awg.compiler import compile_schedule, compile_schedule_reference
from repro.awg.tones import AodToneConfig, ToneMap
from repro.baselines.base import get_algorithm, list_algorithms, supports_geometry
from repro.errors import ConfigurationError, MoveError, WaveformError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Direction
from repro.physics.loss import LossModel, simulate_losses, simulate_losses_reference


@st.composite
def schedules(draw):
    """``(array, schedule)``: any registered algorithm on a drawn array."""
    array = draw(st.one_of(atom_arrays(), masked_atom_arrays()))
    names = [n for n in list_algorithms() if supports_geometry(n, array.geometry)]
    name = draw(st.sampled_from(names))
    return array, get_algorithm(name, array.geometry).schedule(array).schedule


def _raw_schedule(geometry, moves):
    """``moves`` held as raw columns (:meth:`MoveSchedule.from_table`).

    A table built from columns is not checked, so a move may drive one
    line twice or hold no shift; each shift takes its move's direction
    and steps, as in every table.
    """
    shifts = [shift for move in moves for shift in move.shifts]

    def column(items, name):
        return np.array([getattr(item, name) for item in items], dtype=np.intp)

    table = ScheduleTable(
        direction=np.array([DIRECTION_CODE[m.direction] for m in moves], np.int8),
        steps=column(moves, "steps"),
        offsets=np.cumsum([0] + [len(move.shifts) for move in moves]),
        line=column(shifts, "line"),
        span_start=column(shifts, "span_start"),
        span_stop=column(shifts, "span_stop"),
    )
    return MoveSchedule.from_table(geometry, table, [move.tag for move in moves])


def _raised(build) -> str | None:
    """The message of the :class:`MoveError` ``build()`` raises, or None."""
    try:
        build()
    except MoveError as exc:
        return str(exc)
    return None


def _built_and_constructed(geometry, direction, steps, shifts):
    """What building a schedule of a ``trusted`` bundle raises, and what
    constructing the bundle raises (see :func:`_raised`)."""
    bundle = ParallelMove.trusted(direction, steps, shifts)
    return (
        _raised(lambda: MoveSchedule(geometry, moves=[bundle])),
        _raised(lambda: ParallelMove(direction, steps, shifts)),
    )


def _assert_off_lockstep_refused(draw, geometry, direction, steps, shifts):
    """Turn one of ``shifts`` off the move's direction or steps; building
    a schedule of the bundle must raise the constructor's message."""
    k = draw(st.integers(0, len(shifts) - 1))
    turned = draw(st.sampled_from(list(Direction)))
    longer = steps + draw(st.integers(int(turned is direction), 1))
    shift = shifts[k]
    rogue = list(shifts)
    rogue[k] = LineShift.trusted(
        turned, shift.line, shift.span_start, shift.span_stop, longer
    )
    built, constructed = _built_and_constructed(
        geometry, direction, steps, tuple(rogue)
    )
    assert constructed is not None and built == constructed


@st.composite
def rogue_schedules(draw):
    """``(array, schedule)``: rogue bundles on a small drawn array.

    Every shift moves with its move, but shifts may share a line,
    overlap, reverse their span or reach outside the grid, so moves can
    drive one line twice (which every path refuses), collide or leave
    the grid.  The schedule holds them as raw columns.  A bundle drawn
    with a shift off its move's direction or steps is only checked to
    be refused where it would become a schedule.
    """
    size = draw(st.sampled_from((4, 6)))
    geometry = ArrayGeometry.square(size, 2)
    fill = draw(st.sampled_from((0.2, 0.4)))
    grid = np.random.default_rng(draw(st.integers(0, 2**16))).random((size, size))
    # Lines and spans reach outside the grid in some schedules only, and
    # shifts crowd onto two lines in the others.
    reach = draw(st.booleans())
    index = st.integers(-1, size) if reach else st.integers(0, size - 1)
    line = st.integers(-1, size) if reach else st.integers(1, 2)
    moves = []
    for _ in range(draw(st.integers(1, 5))):
        direction = draw(st.sampled_from(list(Direction)))
        steps = draw(st.integers(1, 2))
        shifts = []
        for _ in range(draw(st.integers(1, 4))):
            start = draw(index)
            stop = start + draw(st.integers(-1, 3 if reach else size - start))
            shifts.append(LineShift.trusted(direction, draw(line), start, stop, steps))
        if draw(st.booleans()):
            # Two one-site shifts on one line, one landing on the other's site.
            first, at = draw(st.integers(0, size - 1 - steps)), draw(line)
            for site in (first, first + steps):
                shifts.append(LineShift.trusted(direction, at, site, site + 1, steps))
        if draw(st.booleans()):
            _assert_off_lockstep_refused(draw, geometry, direction, steps, shifts)
        moves.append(ParallelMove.trusted(direction, steps, tuple(shifts)))
    return AtomArray(geometry, grid < fill), _raw_schedule(geometry, moves)


#: The direction of a move, by (horizontal, towards higher indices).
HEADINGS = {
    (True, True): Direction.EAST,
    (True, False): Direction.WEST,
    (False, True): Direction.SOUTH,
    (False, False): Direction.NORTH,
}


def _drawn_shift(draw, grid, direction, line, steps, collide):
    """A shift of ``steps`` along ``line`` that is valid on ``grid`` or,
    with ``collide``, lands an atom on a static atom; None if none is."""
    vec = grid[line] if direction.is_horizontal else grid[:, line]
    forward = sum(direction.delta) > 0
    if not forward:
        vec = vec[::-1]  # the move runs towards higher indices of ``vec``
    size = vec.size
    ends = range(1, size - steps + 1)
    if collide:  # the span's last atom lands on an atom
        stops = [b for b in ends if vec[b - 1] and vec[b - 1 + steps]]
    else:  # the sites its last atoms land on, just past it, are empty
        stops = [b for b in ends if not vec[b : b + steps].any()]
    if not stops:
        return None
    stop = draw(st.sampled_from(stops))
    start = draw(st.integers(0, stop - 1))
    if not forward:
        start, stop = size - stop, size - start
    return LineShift(direction, line, start, stop, steps)


def _drawn_rogue(draw, geometry, grid, direction, steps, shifts):
    """A rogue ``trusted`` shift that moves with its move, or None.

    A shift drawn off the move's direction or steps is None, once the
    bundle holding it is checked to be refused as a schedule.
    """
    size = grid.shape[0]
    line = draw(st.integers(0, size - 1))
    rogue = draw(st.sampled_from(("leaves", "leaves", "outside", "twice", "off")))
    if rogue == "leaves":  # a span over the edge, whose edge sites are empty
        vec = grid[line] if direction.is_horizontal else grid[:, line]
        if sum(direction.delta) > 0 and not vec[size - steps :].any():
            return LineShift.trusted(direction, line, size - steps - 1, size, steps)
        if sum(direction.delta) < 0 and not vec[:steps].any():
            return LineShift.trusted(direction, line, 0, steps + 1, steps)
        return None
    if rogue == "outside":
        return LineShift.trusted(direction, size, 0, 1, steps)
    if rogue == "twice":
        return shifts[0] if shifts else None
    shifts = shifts + [LineShift.trusted(direction, line, 0, 1, steps)]
    _assert_off_lockstep_refused(draw, geometry, direction, steps, shifts)
    return None


@st.composite
def run_boundary_schedules(draw):
    """``(array, schedule)``: moves that start and end the replay's runs.

    Each move keeps the previous move's axis or turns, and drives fresh
    lines or one that a move on its axis drove ``k`` moves back, so runs
    of line-disjoint moves form and break.  Moves are valid on the grid
    the moves before them leave, except where a drawn move lands an
    atom on a static atom or adds a ``trusted`` rogue shift: a span over
    the grid's edge whose edge sites are empty (which every path
    accepts), a line outside the grid or a line driven twice.  Either
    can come in the middle of a run.  The schedule holds its moves as
    raw columns; a shift drawn off the move's direction or steps is only
    checked to be refused where it would become a schedule.
    """
    size = draw(st.sampled_from((6, 8)))
    geometry = ArrayGeometry.square(size, 2)
    fill = draw(st.sampled_from((0.3, 0.5)))
    grid = np.random.default_rng(draw(st.integers(0, 2**16))).random((size, size))
    array = AtomArray(geometry, grid < fill)
    work = array.grid.copy()
    horizontal = draw(st.booleans())
    driven = {True: [], False: []}  # per axis, the lines each move drove
    since_turn: set[int] = set()  # lines driven since the axis last turned
    moves = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 4)) == 0:  # turns one move in five
            horizontal, since_turn = not horizontal, set()
        direction = HEADINGS[horizontal, draw(st.booleans())]
        steps = draw(st.integers(1, 2))
        kind = draw(st.sampled_from(("fresh",) * 4 + ("again", "collide", "rogue")))
        # Lines not driven since the turn keep a run going.
        line = st.sampled_from(sorted(set(range(size)) - since_turn) or [0])
        lines = draw(st.lists(line, min_size=1, max_size=2, unique=True))
        if kind == "again" and driven[horizontal]:
            back = draw(st.integers(1, len(driven[horizontal])))
            lines = [draw(st.sampled_from(driven[horizontal][-back]))]
        shifts = [
            _drawn_shift(draw, work, direction, at, steps, kind == "collide")
            for at in lines
        ]
        shifts = [shift for shift in shifts if shift is not None]
        if kind == "rogue":
            shifts.append(_drawn_rogue(draw, geometry, work, direction, steps, shifts))
            shifts = [shift for shift in shifts if shift is not None]
        if not shifts:
            continue
        moves.append(ParallelMove.trusted(direction, steps, tuple(shifts)))
        inside = [shift.line for shift in shifts if 0 <= shift.line < size]
        if inside:
            driven[horizontal].append(inside)
            since_turn.update(inside)
        try:
            apply_parallel_move(work, moves[-1])  # a refused move leaves ``work``
        except MoveError:
            pass
    return array, _raw_schedule(geometry, moves)


durations = st.one_of(
    st.sampled_from((0.0, 1.0, 50.0, 300.0)),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)

timings = st.builds(
    MoveTimingModel,
    pickup_us=durations,
    drop_us=durations,
    transfer_us_per_site=durations,
    settle_us=durations,
)

tone_maps = st.builds(
    ToneMap,
    base_mhz=st.floats(min_value=10.0, max_value=200.0),
    spacing_mhz=st.floats(min_value=0.01, max_value=2.0),
    n_sites=st.integers(min_value=4, max_value=256),
)

tone_configs = st.one_of(
    st.just(AodToneConfig()),
    st.builds(AodToneConfig, rows=tone_maps, cols=tone_maps),
)

loss_models = st.builds(
    LossModel,
    vacuum_lifetime_s=st.sampled_from((30.0, 0.05, 1e-3)),
    loss_per_transfer=st.sampled_from((0.0, 2e-3, 0.2)),
    loss_per_site=st.sampled_from((0.0, 1e-4, 0.05)),
)


def _compiled(compile, schedule, tones, timing):
    """Everything a compiled program exposes, or the error it raised."""
    try:
        program = compile(schedule, tones, timing)
    except WaveformError as exc:
        return "error", str(exc)
    return len(program), list(program.segments), program.total_duration_us


def _replayed(simulate, array, schedule, loss, timing, seed):
    """Everything a loss replay reports, or the error it raised."""
    gen = np.random.default_rng(seed)
    try:
        report = simulate(array, schedule, loss, timing, gen)
    except (MoveError, ConfigurationError) as exc:
        return type(exc), str(exc), gen.bit_generator.state
    return (
        report.final_array.grid.tobytes(),
        report.atoms_final,
        report.lost_transfer,
        report.lost_vacuum,
        report.duration_us,
        gen.bit_generator.state,
    )


@given(schedules(), tone_configs, timings)
@settings(max_examples=120, deadline=None)
def test_compile_schedule_matches_reference(scheduled, tones, timing):
    _, schedule = scheduled
    ours = _compiled(compile_schedule, schedule, tones, timing)
    assert ours == _compiled(compile_schedule_reference, schedule, tones, timing)


@given(schedules(), loss_models, timings, st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=120, deadline=None)
def test_simulate_losses_matches_reference(scheduled, loss, timing, seed, perturb):
    array, schedule = scheduled
    if perturb:
        # A detection error: the schedule replays on an array it was not
        # computed for, so some moves collide or strand atoms.
        flips = np.random.default_rng(seed).random(array.geometry.shape) < 0.1
        array = AtomArray(array.geometry, array.grid ^ flips)
    replay = (array, schedule, loss, timing, seed)
    ours = _replayed(simulate_losses, *replay)
    assert ours == _replayed(simulate_losses_reference, *replay)


@given(rogue_schedules(), loss_models, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_rogue_bundles_replay_like_the_reference(scheduled, loss, seed):
    replay = (*scheduled, loss, MoveTimingModel(), seed)
    assert _replayed(simulate_losses, *replay) == _replayed(
        simulate_losses_reference, *replay
    )


@given(run_boundary_schedules(), loss_models, st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_runs_of_moves_replay_like_the_reference(scheduled, loss, seed):
    replay = (*scheduled, loss, MoveTimingModel(), seed)
    assert _replayed(simulate_losses, *replay) == _replayed(
        simulate_losses_reference, *replay
    )


def _walked(apply, array, schedule):
    grid = array.grid.copy()
    for move in schedule:
        apply(grid, move)
    return grid


def _lossless(simulate, array, schedule):
    no_loss = LossModel(loss_per_transfer=0.0, loss_per_site=0.0)
    instant = MoveTimingModel(pickup_us=0, drop_us=0, transfer_us_per_site=0)
    return simulate(array, schedule, no_loss, instant, rng=0).final_array.grid


#: Every replay of a schedule, lossless, as ``(array, schedule) -> grid``.
REPLAY_PATHS = {
    "apply_parallel_move": lambda a, s: _walked(apply_parallel_move, a, s),
    "apply_parallel_move_reference": (
        lambda a, s: _walked(apply_parallel_move_reference, a, s)
    ),
    "execute_schedule": lambda a, s: execute_schedule(a, s, None)[0].grid,
    "simulate_losses": lambda a, s: _lossless(simulate_losses, a, s),
    "simulate_losses_reference": (
        lambda a, s: _lossless(simulate_losses_reference, a, s)
    ),
}


@given(rogue_schedules())
@settings(max_examples=200, deadline=None)
def test_rogue_bundles_have_one_outcome_on_every_path(scheduled):
    """Same final grid everywhere, or a refusal everywhere.

    Every path refuses a move driving one line twice before anything
    else, with the same message; other refusals may word it their own
    way.
    """
    outcomes = {}
    for name, replay in REPLAY_PATHS.items():
        try:
            outcomes[name] = replay(*scheduled).tobytes()
        except MoveError as exc:
            shared = str(exc).startswith("two shifts target the same line")
            outcomes[name] = str(exc) if shared else "refused"
    assert len(set(outcomes.values())) == 1, outcomes


def _qrm_schedule(geometry, seed=0):
    array = AtomArray(
        geometry, np.random.default_rng(seed).random(geometry.shape) < 0.5
    )
    return get_algorithm("qrm", geometry).schedule(array).schedule


@pytest.mark.parametrize(
    "tones, timing",
    [
        (AodToneConfig(rows=ToneMap(n_sites=6)), MoveTimingModel()),
        (AodToneConfig(cols=ToneMap(n_sites=11)), MoveTimingModel()),
        (AodToneConfig(), MoveTimingModel(transfer_us_per_site=0)),
        (AodToneConfig(), MoveTimingModel(pickup_us=0)),
        (AodToneConfig(), MoveTimingModel(drop_us=0)),
    ],
    ids=["row-overflow", "chirp-overflow", "transport-0", "pickup-0", "drop-0"],
)
def test_compile_errors_match_reference(geo20, tones, timing):
    schedule = _qrm_schedule(geo20)
    with pytest.raises(WaveformError) as ours:
        compile_schedule(schedule, tones, timing)
    with pytest.raises(WaveformError) as reference:
        compile_schedule_reference(schedule, tones, timing)
    assert str(ours.value) == str(reference.value)


def test_table_columns_match_the_objects(geo20):
    schedule = _qrm_schedule(geo20)
    table = schedule.table()
    assert table is schedule.table()  # the stored form, not rebuilt
    assert len(table) == len(schedule)
    assert table.n_shifts == schedule.n_line_shifts
    shifts = [shift for move in schedule for shift in move.shifts]
    assert table.line.tolist() == [s.line for s in shifts]
    assert table.span_start.tolist() == [s.span_start for s in shifts]
    assert table.span_stop.tolist() == [s.span_stop for s in shifts]
    for index, move in enumerate(schedule):
        dr, dc = move.direction.delta
        assert table.horizontal[index] == move.is_horizontal
        assert table.steps[index] == move.steps
        assert table.displacement[index] == move.steps * (dr + dc)
        a, b = table.offsets[index], table.offsets[index + 1]
        assert b - a == len(move.shifts)


def test_empty_schedule_table_and_program(geo8):
    schedule = MoveSchedule(geo8)
    assert len(schedule.table()) == 0
    program = compile_schedule(schedule)
    assert len(program.segments) == 0
    assert program.total_duration_us == 0


def _assert_replays_like_the_reference(array, schedule, loss, timing, seeds=8):
    for seed in range(seeds):
        replay = (array, schedule, loss, timing, seed)
        ours = _replayed(simulate_losses, *replay)
        assert ours == _replayed(simulate_losses_reference, *replay)


#: Raw-column EAST moves that drive one line twice, as ``(size, atoms,
#: steps, shifts)`` with each shift ``(line, start, stop)``.
LINE_SHARING_BUNDLES = {
    # Overlapping spans select (1, 1) twice: lifting both selections at
    # once carries its atom twice.
    "overlapping-spans": (6, [(1, 0), (1, 1)], 1, [(1, 0, 2), (1, 1, 2)]),
    # Each shift alone is valid; together they still drive row 2 twice.
    "disjoint-spans": (8, [(2, 0), (2, 4)], 1, [(2, 0, 1), (2, 4, 5)]),
    # The first lands (1, 0)'s atom on (1, 2), which the second empties.
    "landing-on-a-source": (8, [(1, 0), (1, 2)], 2, [(1, 0, 1), (1, 2, 3)]),
    # Six copies of one shift select (0, 0) six times.
    "one-shift-six-times": (2, [(0, 0), (1, 1)], 1, [(0, 0, 1)] * 6),
}


def _refused_by(apply):
    def check(array, schedule, message):
        work = array.grid.copy()
        with pytest.raises(MoveError, match=message):
            apply(work, schedule[0])
        assert np.array_equal(work, array.grid)

    return check


def _refused_by_applier_apply(array, schedule, message):
    work = array.grid.copy()
    with pytest.raises(MoveError, match=message):
        MoveApplier(work, schedule).apply(0)
    assert np.array_equal(work, array.grid)


def _refused_by_applier_carry(array, schedule, message):
    grid = array.grid
    labels = np.where(grid, np.cumsum(grid).reshape(grid.shape) - 1, -1)
    work = labels.copy()
    with pytest.raises(MoveError, match=message):
        MoveApplier(grid.copy(), schedule).carry(work)
    assert np.array_equal(work, labels)


def _refused_by_strict_execution(array, schedule, message):
    for constraints in (None, DEFAULT_CONSTRAINTS):
        with pytest.raises(MoveError, match=message):
            execute_schedule(array, schedule, constraints)


def _skipped_by_lenient_execution(array, schedule, message):
    for constraints in (None, DEFAULT_CONSTRAINTS):
        final, report = execute_schedule(array, schedule, constraints, strict=False)
        assert final == array
        assert report.n_failed_moves == 1 and not report.violations


def _refused_by_lossy(simulate):
    def check(array, schedule, message):
        gen = np.random.default_rng(0)
        with pytest.raises(MoveError, match=message):
            simulate(array, schedule, LossModel(loss_per_transfer=0.5), rng=gen)
        assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state

    return check


#: How each replay path meets a raw-column move that
#: :meth:`ParallelMove.check_lockstep` refuses, as ``(array, schedule,
#: message) -> None``: it raises the check's message before the grid, the
#: labels or the generator change, and non-strict execution counts the
#: move as failed and keeps the array.
RAW_MOVE_REFUSALS = {
    "apply_parallel_move": _refused_by(apply_parallel_move),
    "apply_parallel_move_reference": _refused_by(apply_parallel_move_reference),
    "MoveApplier.apply": _refused_by_applier_apply,
    "MoveApplier.carry": _refused_by_applier_carry,
    "execute_schedule": _refused_by_strict_execution,
    "execute_schedule-non-strict": _skipped_by_lenient_execution,
    "simulate_losses": _refused_by_lossy(simulate_losses),
    "simulate_losses_reference": _refused_by_lossy(simulate_losses_reference),
}


@pytest.mark.parametrize("path", list(RAW_MOVE_REFUSALS))
@pytest.mark.parametrize("name", list(LINE_SHARING_BUNDLES))
def test_a_bundle_driving_one_line_twice_is_refused_on_every_path(name, path):
    size, atoms, steps, shifts = LINE_SHARING_BUNDLES[name]
    geometry = ArrayGeometry.square(size, 2)
    grid = np.zeros(geometry.shape, dtype=bool)
    grid[tuple(zip(*atoms))] = True
    rogue = ParallelMove.trusted(
        Direction.EAST,
        steps,
        tuple(LineShift.trusted(Direction.EAST, *shift, steps) for shift in shifts),
    )
    schedule = _raw_schedule(geometry, [rogue])
    message = f"two shifts target the same line {shifts[0][0]}"
    RAW_MOVE_REFUSALS[path](AtomArray(geometry, grid), schedule, message)


@pytest.mark.parametrize("path", list(RAW_MOVE_REFUSALS))
def test_a_move_with_no_shift_is_refused_on_every_path(geo8, path):
    array = AtomArray(geo8, np.random.default_rng(5).random(geo8.shape) < 0.5)
    schedule = _raw_schedule(geo8, [ParallelMove.trusted(Direction.WEST, 1, ())])
    message = "a ParallelMove needs at least one LineShift"
    RAW_MOVE_REFUSALS[path](array, schedule, message)


def test_negative_duration_raises_before_any_draw(geo8):
    # A trusted bundle with a negative step count lasts a negative time,
    # which no vacuum hazard exists for: both replays refuse it up front.
    valid = ParallelMove.of([LineShift(Direction.EAST, 0, 0, 2)])
    rogue = ParallelMove.trusted(
        Direction.EAST, -20, (LineShift.trusted(Direction.EAST, 3, 0, 2, -20),)
    )
    array = AtomArray(geo8, np.random.default_rng(4).random(geo8.shape) < 0.5)
    schedule = MoveSchedule(geo8, moves=[valid, rogue])
    for simulate in (simulate_losses, simulate_losses_reference):
        gen = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="duration_us must be >= 0"):
            simulate(array, schedule, rng=gen)
        assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_replay_that_empties_the_array_like_the_reference(geo20):
    array = AtomArray(geo20, np.random.default_rng(3).random(geo20.shape) < 0.5)
    schedule = _qrm_schedule(geo20, seed=3)
    loss = LossModel(vacuum_lifetime_s=1e-3, loss_per_transfer=0.0, loss_per_site=0.0)
    timing = MoveTimingModel(settle_us=300)
    report = simulate_losses(array, schedule, loss, timing, rng=0)
    assert report.atoms_final == 0  # emptied well before the last move
    assert len(schedule) > 20
    _assert_replays_like_the_reference(array, schedule, loss, timing)


def test_empty_schedule_replays_without_draws(geo8):
    array = AtomArray(geo8, np.random.default_rng(1).random(geo8.shape) < 0.5)
    schedule = MoveSchedule(geo8)
    gen = np.random.default_rng(0)
    report = simulate_losses(array, schedule, rng=gen)
    assert report.final_array == array and report.duration_us == 0.0
    assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state
    _assert_replays_like_the_reference(array, schedule, LossModel(), MoveTimingModel())


def test_zero_duration_moves_draw_no_vacuum_uniforms(geo20):
    array = AtomArray(geo20, np.random.default_rng(2).random(geo20.shape) < 0.5)
    schedule = _qrm_schedule(geo20, seed=2)
    instant = MoveTimingModel(
        pickup_us=0, drop_us=0, transfer_us_per_site=0, settle_us=0
    )
    # With no hand-off or transport loss either, nothing is drawn at all.
    no_handling = LossModel(loss_per_transfer=0.0, loss_per_site=0.0)
    gen = np.random.default_rng(0)
    report = simulate_losses(array, schedule, no_handling, instant, rng=gen)
    assert report.duration_us == 0.0
    assert report.atoms_final == report.atoms_initial
    assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state
    for loss in (no_handling, LossModel()):
        _assert_replays_like_the_reference(array, schedule, loss, instant)


#: ``trusted`` bundles of a one-step SOUTH move that its constructor refuses.
REFUSED_BUNDLES = {
    "reversed-shift": (
        LineShift(Direction.SOUTH, 5, 0, 3),
        LineShift(Direction.NORTH, 1, 2, 6),
    ),
    "longer-shift": (
        LineShift(Direction.SOUTH, 5, 0, 3),
        LineShift(Direction.SOUTH, 1, 2, 6, steps=2),
    ),
    "empty": (),
    "two-shifts-one-line": (
        LineShift(Direction.SOUTH, 5, 0, 3),
        LineShift(Direction.SOUTH, 5, 4, 6),
    ),
}


@pytest.mark.parametrize("name", list(REFUSED_BUNDLES))
def test_a_bundle_the_constructor_refuses_never_becomes_a_schedule(geo8, name):
    # The AWG compiler and the loss model read a move's direction and
    # steps, replay used to read each shift's: no schedule holds a move
    # on which they could disagree.
    shifts = REFUSED_BUNDLES[name]
    built, constructed = _built_and_constructed(geo8, Direction.SOUTH, 1, shifts)
    assert constructed is not None and built == constructed


@st.composite
def bundles(draw):
    """``(direction, steps, shifts)`` of a ``trusted`` bundle, lockstep or not."""
    direction = draw(st.sampled_from(list(Direction)))
    steps = draw(st.integers(1, 2))
    shifts = tuple(
        LineShift.trusted(
            draw(st.sampled_from((direction,) * 3 + tuple(Direction))),
            draw(st.integers(0, 3)),
            0,
            1,
            draw(st.sampled_from((steps, steps, 1, 2))),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    return direction, steps, shifts


@given(bundles())
@settings(max_examples=200, deadline=None)
def test_a_schedule_takes_exactly_the_bundles_the_constructor_takes(bundle):
    built, constructed = _built_and_constructed(ArrayGeometry.square(4, 2), *bundle)
    assert built == constructed
