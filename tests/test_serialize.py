"""Tests for schedule JSON serialisation."""

from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aod.serialize import (
    FORMAT_VERSION,
    dumps,
    loads,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.qrm import QrmScheduler
from repro.errors import ReproError, ScheduleValidationError
from repro.lattice.loading import load_uniform


@pytest.fixture
def schedule(array20):
    return QrmScheduler(array20.geometry).schedule(array20).schedule


class TestRoundTrip:
    def test_dict_round_trip(self, schedule):
        recovered = schedule_from_dict(schedule_to_dict(schedule))
        assert recovered.geometry == schedule.geometry
        assert recovered.algorithm == schedule.algorithm
        assert recovered.moves == schedule.moves

    def test_json_round_trip(self, schedule):
        recovered = loads(dumps(schedule))
        assert recovered.moves == schedule.moves

    def test_tags_preserved(self, schedule):
        recovered = loads(dumps(schedule))
        assert [m.tag for m in recovered] == [m.tag for m in schedule]

    def test_round_trip_replays_identically(self, array20, schedule):
        from repro.aod.executor import execute_schedule

        recovered = loads(dumps(schedule))
        original_final, _ = execute_schedule(array20, schedule)
        recovered_final, _ = execute_schedule(array20, recovered)
        assert original_final == recovered_final

    def test_empty_schedule(self, geo8):
        from repro.aod.schedule import MoveSchedule

        empty = MoveSchedule(geo8, algorithm="none")
        recovered = loads(dumps(empty))
        assert len(recovered) == 0
        assert recovered.algorithm == "none"


class TestFormat:
    def test_version_embedded(self, schedule):
        data = schedule_to_dict(schedule)
        assert data["version"] == FORMAT_VERSION

    def test_wrong_version_rejected(self, schedule):
        data = schedule_to_dict(schedule)
        data["version"] = 999
        with pytest.raises(ScheduleValidationError):
            schedule_from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ScheduleValidationError):
            loads("{not json")

    def test_missing_geometry_rejected(self, schedule):
        data = schedule_to_dict(schedule)
        del data["geometry"]
        with pytest.raises(ScheduleValidationError):
            schedule_from_dict(data)

    def test_malformed_shift_rejected(self, schedule):
        data = schedule_to_dict(schedule)
        data["moves"][0]["shifts"][0] = {"dir": "X"}
        with pytest.raises(ScheduleValidationError):
            schedule_from_dict(data)

    def test_default_steps(self, schedule):
        data = schedule_to_dict(schedule)
        for move in data["moves"]:
            for shift in move["shifts"]:
                del shift["steps"]
        recovered = schedule_from_dict(data)
        assert all(m.steps == 1 for m in recovered)

    def test_output_is_plain_json(self, schedule):
        parsed = json.loads(dumps(schedule))
        assert isinstance(parsed, dict)
        assert isinstance(parsed["moves"], list)


class TestCrossAlgorithm:
    @pytest.mark.parametrize("name", ["tetris", "psca", "mta1"])
    def test_baseline_schedules_serialise(self, name, geo20):
        from repro.baselines.base import get_algorithm

        array = load_uniform(geo20, 0.5, rng=2)
        result = get_algorithm(name, geo20).schedule(array)
        recovered = loads(dumps(result.schedule))
        assert recovered.moves == result.schedule.moves


@functools.lru_cache(maxsize=None)
def _document_text(masked: bool = False) -> str:
    from repro.lattice.geometry import ArrayGeometry
    from repro.lattice.mask import TargetMask

    if masked:
        geometry = ArrayGeometry.with_mask(8, 8, TargetMask.ring(8, 8, 3.0, 1.0))
    else:
        geometry = ArrayGeometry.square(8, 4)
    array = load_uniform(geometry, 0.5, rng=3)
    return dumps(QrmScheduler(geometry).schedule(array).schedule)


def _document(masked: bool = False) -> dict:
    """A fresh copy of a small valid schedule document."""
    return json.loads(_document_text(masked))


def _with(path: tuple, value):
    """The base document with the value at ``path`` replaced."""
    data = _document()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "5",
            "null",
            '"schedule"',
            json.dumps(_with(("geometry",), [8, 8, 4, 4])),
            json.dumps(_with(("geometry", "width"), "x")),
            json.dumps(_with(("geometry", "width"), 8.0)),
            json.dumps(_with(("geometry", "mask"), "####")),
            json.dumps(_with(("version",), True)),
            json.dumps(_with(("algorithm",), 5)),
            json.dumps(_with(("moves",), {"0": {}})),
            json.dumps(_with(("moves", 0), 5)),
            json.dumps(_with(("moves", 0, "shifts", 0), [0, 1])),
            json.dumps(_with(("moves", 0, "shifts", 0, "line"), 1.5)),
            json.dumps(_with(("moves", 0, "shifts", 0, "line"), True)),
            json.dumps(_with(("moves", 0, "shifts", 0, "line"), "3")),
            json.dumps(_with(("moves", 0, "shifts", 0, "line"), 2**64)),
            json.dumps(_with(("moves", 0, "shifts", 0, "steps"), 0)),
            json.dumps(_with(("moves", 0, "shifts", 0, "steps"), True)),
            json.dumps(_with(("moves", 0, "shifts", 0, "steps"), 1.0)),
            json.dumps(_with(("moves", 0, "shifts", 0, "steps"), "1")),
            json.dumps(_with(("moves", 0, "tag"), 5)),
            json.dumps(_with(("moves", 0, "shifts"), [])),
        ],
    )
    def test_rejected_with_a_typed_error(self, text):
        with pytest.raises(ScheduleValidationError):
            loads(text)


_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(),
        st.text(max_size=6),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)


def _load_or_reject(text: str) -> None:
    """Either a schedule that round-trips exactly, or a :class:`ReproError`."""
    try:
        schedule = loads(text)
    except ReproError:
        return
    again = loads(dumps(schedule))
    assert again == schedule
    assert again.tags == schedule.tags
    assert dumps(again) == dumps(schedule)


def _slots(node, path=()):
    """The path of every value in a JSON document."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _slots(child, path + (key,))


@st.composite
def _mutated_documents(draw) -> dict:
    data = _document(masked=draw(st.booleans()))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = [path for path in _slots(data) if path]
        path = draw(st.sampled_from(paths))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(
                st.one_of(
                    st.sampled_from([1.5, True, "3", -1, 0, 2**40, None, [], {}]),
                    _json_values,
                )
            )
    return data


class TestFuzzedDocuments:
    @settings(max_examples=200, deadline=None)
    @given(value=_json_values)
    def test_arbitrary_json_loads_or_raises_repro_error(self, value):
        _load_or_reject(json.dumps(value))

    @settings(max_examples=200, deadline=None)
    @given(data=_mutated_documents())
    def test_mutated_documents_load_or_raise_repro_error(self, data):
        _load_or_reject(json.dumps(data))
