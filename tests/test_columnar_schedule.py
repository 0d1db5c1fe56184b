"""The columnar schedule contract.

A :class:`~repro.aod.schedule.MoveSchedule` stores one
:class:`~repro.aod.table.ScheduleTable` plus one tag per move;
:class:`~repro.aod.move.ParallelMove`/:class:`~repro.aod.move.LineShift`
objects are views, built on access and never stored.  This suite pins
what follows from that:

* a pickled QRM result carries columns and strings, and no move class;
* QRM and batched QRM schedule, compile, replay and lossy-replay without
  building a move object or flattening objects into a table;
* a schedule built from objects (every registered algorithm, repair,
  deserialisation) gives back equal objects, tags included;
* the columnar emitter's lexsort fallback (arrays too wide for its
  packed sort key) emits exactly the packed order.
"""

from __future__ import annotations

import collections
import pickle
import pickletools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    assert_moves_identical,
    assert_results_identical,
    atom_arrays,
    masked_atom_arrays,
)

from repro.aod.executor import execute_schedule
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.serialize import dumps, loads
from repro.aod.table import ScheduleTable
from repro.awg.compiler import compile_schedule
from repro.baselines.base import get_algorithm, list_algorithms, supports_geometry
from repro.config import QrmParameters, ScanMode
from repro.core import passes
from repro.core.passes import schedule_from_outcomes
from repro.core.qrm import QrmScheduler
from repro.core.repair import repair_defects
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform
from repro.physics.loss import LossModel, simulate_losses


def _globals(data: bytes) -> set[tuple[str, str]]:
    """``(module, name)`` of every global a protocol-2 pickle references."""
    return {
        tuple(arg.split(" ", 1))
        for opcode, arg, _ in pickletools.genops(data)
        if opcode.name == "GLOBAL"
    }


def _views_of_every_kind(schedule: MoveSchedule) -> None:
    list(schedule)
    schedule.moves
    schedule[0], schedule[-1], schedule[1:3]


def test_pickled_qrm_result_references_no_move_class():
    geometry = ArrayGeometry.square(64)
    result = QrmScheduler(geometry).schedule(load_uniform(geometry, 0.5, rng=7))
    _views_of_every_kind(result.schedule)  # views are not stored
    referenced = _globals(pickle.dumps(result, protocol=2))
    assert ("repro.aod.table", "ScheduleTable") in referenced
    assert not [pair for pair in referenced if pair[0] == "repro.aod.move"]
    data = pickle.dumps(result)  # the service's protocol
    strings = {arg for _, arg, _ in pickletools.genops(data) if isinstance(arg, str)}
    assert "repro.aod.move" not in strings
    again = pickle.loads(data)
    assert_moves_identical(again.schedule, result.schedule)
    assert again.final == result.final
    assert not hasattr(result.schedule, "__dict__")  # slots only: no view cache


def test_schedule_columns_are_read_only():
    geometry = ArrayGeometry.square(16)
    array = load_uniform(geometry, 0.5, rng=1)
    schedule = QrmScheduler(geometry).schedule(array).schedule
    table = schedule.table()
    with pytest.raises(ValueError):
        table.line[0] = 99
    assert not pickle.loads(pickle.dumps(table)).span_start.flags.writeable


@pytest.fixture
def construction_counts(monkeypatch):
    """Counts move-object constructions and object-to-table flattenings."""
    counts: collections.Counter = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for cls in (ParallelMove, LineShift):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
        trusted = staticmethod(counted(cls.__name__, cls.trusted))
        monkeypatch.setattr(cls, "trusted", trusted)
    monkeypatch.setattr(
        ScheduleTable,
        "from_moves",
        staticmethod(counted("from_moves", ScheduleTable.from_moves)),
    )
    return counts


def test_loop_consumers_build_no_move_objects(construction_counts):
    geometry = ArrayGeometry.square(24)
    arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(3)]
    single = QrmScheduler(geometry)
    results = [single.schedule(array) for array in arrays]
    results += single.schedule_batch(arrays)
    loss = LossModel(vacuum_lifetime_s=0.05, loss_per_transfer=0.01)
    for result in results:
        assert len(result.schedule)
        compile_schedule(result.schedule)
        simulate_losses(result.initial, result.schedule, loss, rng=0)
        final, report = execute_schedule(
            result.initial, result.schedule, constraints=None
        )
        assert report.ok and final == result.final
    assert construction_counts == {}
    results[0].schedule[0]  # the counters do see a view being built
    assert construction_counts["ParallelMove"] == 1


def _spy_on_constructions(monkeypatch) -> list[tuple[list, MoveSchedule]]:
    """Records the objects every ``MoveSchedule(...)`` call is built from."""
    built: list[tuple[list, MoveSchedule]] = []
    original = MoveSchedule.__init__

    def init(self, geometry, algorithm="", moves=()):
        moves = list(moves)
        original(self, geometry, algorithm, moves)
        built.append((moves, self))

    monkeypatch.setattr(MoveSchedule, "__init__", init)
    return built


def _assert_views_equal(schedule: MoveSchedule, moves: list) -> None:
    assert_moves_identical(schedule, moves)
    assert schedule.tags == tuple(move.tag for move in moves)
    for view, move in zip(schedule, moves):
        assert type(view) is ParallelMove
        assert view.shifts == move.shifts
        assert all(type(shift) is LineShift for shift in view.shifts)


@given(array=atom_arrays() | masked_atom_arrays())
@settings(max_examples=30, deadline=None)
def test_schedules_built_from_objects_give_them_back(array):
    names = [n for n in list_algorithms() if supports_geometry(n, array.geometry)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = _spy_on_constructions(monkeypatch)
        for name in names:
            schedule = get_algorithm(name, array.geometry).schedule(array).schedule
            loads(dumps(schedule))
        repair = repair_defects(array.copy())
        MoveSchedule(array.geometry, "repair", repair.moves)
    assert built
    for moves, schedule in built:
        _assert_views_equal(schedule, moves)
    assert_moves_identical(
        schedule_from_outcomes(array.geometry, "qrm", [], repair.moves), repair.moves
    )


def test_repair_tail_of_a_qrm_schedule_gives_the_objects_back():
    geometry = ArrayGeometry.square(20)
    array = load_uniform(geometry, 0.45, rng=np.random.default_rng(4))
    plain = QrmScheduler(geometry).schedule(array)
    expected = repair_defects(plain.final.copy()).moves
    assert expected
    result = QrmScheduler(geometry, QrmParameters(enable_repair=True)).schedule(array)
    assert result.repair_moves == len(expected)
    assert_moves_identical(result.schedule[len(plain.schedule) :], expected)


@given(array=atom_arrays(), merge=st.booleans(), pipelined=st.booleans())
@settings(max_examples=30, deadline=None)
def test_emitter_lexsort_fallback_matches_the_packed_sort(array, merge, pipelined):
    # Arrays wider than the packed key's 13-bit fields sort with lexsort;
    # an extent bound of 0 sends every schedule down that path.
    params = QrmParameters(
        merge_mirror_quadrants=merge,
        scan_mode=ScanMode.PIPELINED if pipelined else ScanMode.FRESH,
    )
    packed = QrmScheduler(array.geometry, params).schedule(array)
    packed_batch = QrmScheduler(array.geometry, params).schedule_batch([array] * 2)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(passes, "_PACKED_MAX_EXTENT", 0)
        fallback = QrmScheduler(array.geometry, params).schedule(array)
        fallback_batch = QrmScheduler(array.geometry, params).schedule_batch(
            [array] * 2
        )
    for ours, reference in zip([fallback, *fallback_batch], [packed, *packed_batch]):
        assert_results_identical(ours, reference)
