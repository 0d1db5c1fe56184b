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
replay also ``trusted`` bundles that break the lockstep contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import atom_arrays, masked_atom_arrays

from repro.aod.executor import MoveApplier, execute_schedule
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
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


@st.composite
def rogue_schedules(draw):
    """``(array, schedule)``: ``trusted`` bundles on a small drawn array.

    Shifts may share a line, overlap, reach outside the grid, or carry
    their own direction and step count, so moves can select a site twice,
    land two atoms on one site, collide or leave the grid.
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
            shifts.append(
                LineShift.trusted(
                    draw(st.sampled_from((direction,) * 3 + tuple(Direction))),
                    draw(line),
                    start,
                    start + draw(st.integers(-1, 3 if reach else size - start)),
                    draw(st.sampled_from((steps, steps, 1, 2))),
                )
            )
        if draw(st.booleans()):
            # Two one-site shifts on one line that land on one site.
            first = draw(st.integers(0, size - 3))
            far = first if sum(direction.delta) > 0 else first + 2
            at = draw(line)
            shifts.append(LineShift.trusted(direction, at, far, far + 1, 2))
            shifts.append(LineShift.trusted(direction, at, first + 1, first + 2, 1))
        moves.append(ParallelMove.trusted(direction, steps, tuple(shifts)))
    return AtomArray(geometry, grid < fill), MoveSchedule(geometry, moves=moves)


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
        assert (table.shift_displacement[a:b] == table.displacement[index]).all()


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


def test_atom_merging_rogue_bundle_replays_like_the_reference(geo8):
    # Two shifts on one row land (2, 0) and (2, 1) both on (2, 2): the
    # atoms merge, the lower label keeping the site, so the atom count
    # drops by one that neither loss counter holds.
    rogue = ParallelMove.trusted(
        Direction.EAST,
        steps=1,
        shifts=(
            LineShift.trusted(Direction.EAST, 2, 0, 1, steps=2),
            LineShift.trusted(Direction.EAST, 2, 1, 2, steps=1),
        ),
    )
    grid = np.zeros(geo8.shape, dtype=bool)
    grid[2, :2] = grid[5] = True
    array = AtomArray(geo8, grid)
    schedule = MoveSchedule(geo8, moves=[rogue, rogue, rogue])
    lossless = LossModel(
        vacuum_lifetime_s=1e9, loss_per_transfer=0.0, loss_per_site=0.0
    )
    merged = simulate_losses(array, schedule, lossless, rng=0)
    assert merged.atoms_final == array.n_atoms - 1
    assert merged.final_array.grid[2].tolist() == [0, 0, 1, 0, 0, 0, 0, 0]
    labels = np.where(grid, np.cumsum(grid).reshape(grid.shape) - 1, -1)
    carried = MoveApplier(grid, schedule).carry(labels)
    assert [c.tolist() for c in carried] == [[0, 1], [], []]
    assert labels[2].tolist() == [-1, -1, 0, -1, -1, -1, -1, -1]
    short_lived = LossModel(vacuum_lifetime_s=1e-3, loss_per_transfer=0.2)
    for seed in range(8):
        report = simulate_losses(array, schedule, short_lived, rng=seed)
        lost = report.lost_vacuum + report.lost_transfer
        assert report.atoms_initial - report.atoms_final == lost + 1
    _assert_replays_like_the_reference(
        array, schedule, short_lived, MoveTimingModel(), seeds=16
    )


def test_landing_on_another_shifts_source_raises_like_the_executor(geo8):
    # Two shifts on row 1: the first lands (1, 0)'s atom on (1, 2), which
    # the second empties in the same move.  No label is overwritten, but
    # the landing is outside the first shift's span on an occupied site,
    # which the executor refuses; so must both replays.
    rogue = ParallelMove.trusted(
        Direction.EAST,
        steps=1,
        shifts=(
            LineShift.trusted(Direction.EAST, 1, 0, 1, steps=2),
            LineShift.trusted(Direction.EAST, 1, 2, 3, steps=1),
        ),
    )
    grid = np.zeros(geo8.shape, dtype=bool)
    grid[1, 0] = grid[1, 2] = True
    array = AtomArray(geo8, grid)
    schedule = MoveSchedule(geo8, moves=[rogue])
    with pytest.raises(MoveError) as expected:
        execute_schedule(array, schedule, constraints=None)
    for simulate in (simulate_losses, simulate_losses_reference):
        with pytest.raises(MoveError) as raised:
            simulate(array, schedule, rng=0)
        assert str(raised.value) == str(expected.value)


def test_rogue_bundle_moving_more_atoms_than_sites_like_the_reference():
    # Six copies of one shift select (0, 0) six times on a grid of four
    # sites: its atom goes with the first, so one hand-off is drawn.
    geometry = ArrayGeometry.square(2, 2)
    shift = LineShift.trusted(Direction.EAST, 0, 0, 1, steps=1)
    rogue = ParallelMove.trusted(Direction.EAST, 1, (shift,) * 6)
    array = AtomArray(geometry, np.array([[True, False], [False, True]]))
    schedule = MoveSchedule(geometry, moves=[rogue])
    labels = np.array([[0, -1], [-1, 1]])
    carried = MoveApplier(array.grid, schedule).carry(labels)
    assert [c.tolist() for c in carried] == [[0]]
    assert labels.tolist() == [[-1, 0], [-1, 1]]
    loss = LossModel(loss_per_transfer=0.5)
    _assert_replays_like_the_reference(array, schedule, loss, MoveTimingModel())


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
    assert report.duration_us == 0.0 and report.atoms_lost == 0
    assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state
    for loss in (no_handling, LossModel()):
        _assert_replays_like_the_reference(array, schedule, loss, instant)


def test_trusted_bundle_compiles_like_the_reference(geo8):
    # compile_move reads the move's direction and steps, not the shifts'.
    rogue = ParallelMove.trusted(
        Direction.SOUTH,
        steps=1,
        shifts=(
            LineShift(Direction.SOUTH, 5, 0, 3),
            LineShift(Direction.SOUTH, 1, 2, 6, steps=2),
        ),
        tag="rogue",
    )
    schedule = MoveSchedule(geo8, moves=[rogue, rogue])
    assert schedule.moves == [rogue, rogue]
    assert [move.shifts for move in schedule] == [rogue.shifts] * 2
    assert schedule.tags == ("rogue", "rogue")
    tones, timing = AodToneConfig(), MoveTimingModel()
    ours = _compiled(compile_schedule, schedule, tones, timing)
    assert ours == _compiled(compile_schedule_reference, schedule, tones, timing)
