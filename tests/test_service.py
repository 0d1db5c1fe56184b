"""Differential-oracle and behaviour tests for the scheduling service.

The service's whole contract is that remote scheduling is *bit-identical*
to local scheduling: same moves, same tags, same final grids, same
statistics, regardless of how requests interleave into micro-batch waves.
This suite drives a real server (on a background thread, loopback TCP)
through geometry x fill x concurrency and holds every response to the
local :class:`~repro.core.qrm.QrmScheduler` / registry scheduler with
:func:`tests.oracles.assert_results_identical`, then covers the service
behaviours around that core: masked keys on the wire, wave
coalescing counters, the warm scheduler LRU, the JSON front door,
error isolation between wave siblings, and client retry/timeout
semantics.
"""

from __future__ import annotations

import io
import json
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aod.serialize import schedule_to_dict
from repro.baselines.base import register_algorithm, unregister_algorithm
from repro.campaign.protocol import read_frame, write_handshake
from repro.campaign.spec import MaskSpec
from repro.errors import ServiceError, ServiceTimeoutError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform
from repro.lattice.mask import TargetMask
from repro.service import (
    SchedulerCache,
    SchedulerKey,
    ServiceClient,
    resolve_scheduler,
    serve_in_thread,
)
from repro.service.wire import MAX_JSON_LINE

from tests.oracles import assert_results_identical


def key_for(geometry: ArrayGeometry, algorithm: str = "qrm") -> SchedulerKey:
    return SchedulerKey(
        geometry=(
            geometry.width,
            geometry.height,
            geometry.target_width,
            geometry.target_height,
        ),
        algorithm=algorithm,
        mask=None if geometry.mask is None else geometry.mask.token(),
    )


@pytest.fixture(scope="module")
def server():
    with serve_in_thread(batch_window=0.05, max_batch_size=32) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(server):
    with ServiceClient(server.address) as client:
        yield client


# ---------------------------------------------------------------------------
# The differential oracle: remote == local, bit for bit
# ---------------------------------------------------------------------------


GEOMETRIES = (
    ArrayGeometry.square(8),
    ArrayGeometry.square(10, 6),
    ArrayGeometry(12, 8, 6, 4),  # non-square array, non-square target
)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: f"{g.width}x{g.height}")
@pytest.mark.parametrize("fill", (0.3, 0.6))
@pytest.mark.parametrize("algorithm", ("qrm", "tetris"))
def test_service_schedules_identical_to_local(client, geometry, fill, algorithm):
    key = key_for(geometry, algorithm)
    local = resolve_scheduler(key)
    for seed in range(3):
        array = load_uniform(geometry, fill, rng=seed)
        remote = client.schedule(key, array)
        assert_results_identical(remote, local.schedule(array))


@pytest.mark.parametrize("concurrency", (4, 16))
def test_concurrent_submissions_stay_identical(client, concurrency):
    # Whole stacks submitted at once coalesce into micro-batch waves
    # server-side; results must come back in submission order and match
    # fresh local scheduling exactly.
    geometry = ArrayGeometry.square(10)
    key = key_for(geometry)
    arrays = [
        load_uniform(geometry, 0.5, rng=seed) for seed in range(concurrency)
    ]
    remote_results = client.schedule_many(key, arrays)
    local = resolve_scheduler(key)
    for array, remote in zip(arrays, remote_results):
        assert_results_identical(remote, local.schedule(array))


def test_mixed_geometries_in_one_wave(client):
    # Interleaved submissions under two different scheduler keys ride the
    # same wave but are grouped per key — every response must match its
    # own geometry's local scheduler.
    keys = [key_for(g) for g in GEOMETRIES]
    futures = [
        (key, client.submit_schedule(key, array))
        for seed in range(4)
        for key, array in (
            (
                keys[seed % len(keys)],
                load_uniform(GEOMETRIES[seed % len(keys)], 0.5, rng=seed),
            ),
        )
    ]
    for key, future in futures:
        remote = future.result()
        local = resolve_scheduler(key)
        assert_results_identical(remote, local.schedule(remote.initial))


def test_results_arrive_without_pass_outcomes(client):
    # Pass outcomes are analysis-internal and dominate pickle size; the
    # server strips them before responding.
    geometry = ArrayGeometry.square(8)
    result = client.schedule(key_for(geometry), load_uniform(geometry, 0.5, rng=0))
    assert result.pass_outcomes == []


def _off_centre_rect() -> TargetMask:
    grid = np.zeros((12, 12), dtype=bool)
    grid[1:7, 6:10] = True
    return TargetMask.from_array(grid)


MASKS = {
    "ring": MaskSpec.parse("ring:outer=4,inner=1.5").build(12),
    "sparse": MaskSpec.parse("sparse:sites=2-3+3-8+5-2+7-9+8-5+10-6").build(12),
    "off-centre-rect": _off_centre_rect(),
}


@pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS.keys())
@pytest.mark.parametrize("algorithm", ("qrm-repair", "psca"))
def test_masked_keys_schedule_identical_to_local(client, mask, algorithm):
    # The mask token must survive the wire: a server that dropped it
    # would schedule toward the mask's bounding rectangle instead.
    geometry = ArrayGeometry.with_mask(12, 12, mask)
    key = key_for(geometry, algorithm)
    arrays = [load_uniform(geometry, 0.55, rng=seed) for seed in range(4)]
    local = resolve_scheduler(key)
    for array, remote in zip(arrays, client.schedule_many(key, arrays)):
        assert_results_identical(remote, local.schedule(array))


# ---------------------------------------------------------------------------
# Micro-batching and the warm scheduler cache
# ---------------------------------------------------------------------------


def test_waves_coalesce_concurrent_requests():
    with serve_in_thread(batch_window=0.2, max_batch_size=32) as thread:
        geometry = ArrayGeometry.square(8)
        key = key_for(geometry)
        arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(8)]
        with ServiceClient(thread.address) as client:
            client.schedule_many(key, arrays)
            stats = client.stats()
    assert stats["requests"] == 8
    # The 0.2s window lets the whole stack pile into far fewer waves
    # than requests — concurrency actually amortises.
    assert stats["waves"] < 8
    assert stats["max_wave"] >= 2
    assert stats["batched_requests"] >= 2
    assert stats["native_batch_calls"] == stats["waves"]
    assert stats["fallback_calls"] == 0


def test_batching_off_schedules_alone():
    with serve_in_thread(max_batch_size=1) as thread:
        geometry = ArrayGeometry.square(8)
        key = key_for(geometry)
        arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(5)]
        with ServiceClient(thread.address) as client:
            client.schedule_many(key, arrays)
            stats = client.stats()
    assert stats["waves"] == 5
    assert stats["max_wave"] == 1
    assert stats["batched_requests"] == 0


def test_scheduler_cache_stays_warm_and_evicts_lru():
    with serve_in_thread(cache_size=2) as thread:
        with ServiceClient(thread.address) as client:
            for geometry in (GEOMETRIES[0], GEOMETRIES[1], GEOMETRIES[0]):
                client.schedule(
                    key_for(geometry), load_uniform(geometry, 0.5, rng=0)
                )
            warm = client.stats()["cache"]
            # Third request reuses the first geometry's live scheduler.
            assert warm == {**warm, "misses": 2, "hits": 1, "evictions": 0}
            # A third distinct geometry overflows capacity 2 and evicts
            # the least recently used entry.
            geometry = GEOMETRIES[2]
            client.schedule(key_for(geometry), load_uniform(geometry, 0.5, rng=0))
            evicted = client.stats()["cache"]
            assert evicted["evictions"] == 1
            assert evicted["size"] == 2


def test_scheduler_cache_unit_counters():
    cache = SchedulerCache(capacity=1)
    key_a = key_for(ArrayGeometry.square(8))
    key_b = key_for(ArrayGeometry.square(10))
    first = cache.get(key_a)
    assert cache.get(key_a) is first
    cache.get(key_b)
    assert key_a not in cache
    assert cache.stats() == {
        "size": 1,
        "capacity": 1,
        "hits": 1,
        "misses": 2,
        "evictions": 1,
    }


# ---------------------------------------------------------------------------
# JSON front door
# ---------------------------------------------------------------------------


def json_roundtrip(address, *requests: dict) -> list[dict]:
    with socket.create_connection(address, timeout=10.0) as sock:
        with sock.makefile("rwb") as stream:
            for request in requests:
                stream.write(json.dumps(request).encode() + b"\n")
            stream.flush()
            return [json.loads(stream.readline()) for _ in requests]


def test_json_front_door_schedules(server):
    geometry = ArrayGeometry.square(8)
    array = load_uniform(geometry, 0.5, rng=0)
    (response,) = json_roundtrip(
        server.address,
        {
            "id": 7,
            "algorithm": "qrm",
            "size": 8,
            "grid": array.grid.astype(int).tolist(),
        },
    )
    local = resolve_scheduler(key_for(geometry)).schedule(array)
    assert response["id"] == 7
    assert response["ok"] is True
    assert response["algorithm"] == "qrm"
    assert response["moves"] == local.n_moves
    assert response["converged"] == local.converged
    assert len(response["schedule"]["moves"]) == local.n_moves


def test_json_front_door_stats_and_errors(server):
    ping, stats, bad = json_roundtrip(
        server.address,
        {"id": 1, "op": "ping"},
        {"id": 2, "op": "stats"},
        {"id": 3, "op": "schedule"},  # no grid
    )
    assert ping == {"id": 1, "ok": True, "value": "pong"}
    assert stats["ok"] is True and "waves" in stats["value"]
    assert bad["ok"] is False and "grid" in bad["error"]
    # Validation errors still echo the request id for correlation.
    assert bad["id"] == 3


def json_lines(address, lines: list[bytes], n_responses: int) -> list[dict]:
    """Send raw request lines on one connection; read ``n_responses``."""
    with socket.create_connection(address, timeout=30.0) as sock:
        with sock.makefile("rwb") as stream:
            stream.write(b"".join(line + b"\n" for line in lines))
            stream.flush()
            return [json.loads(stream.readline()) for _ in range(n_responses)]


@pytest.mark.parametrize(
    "fields",
    [
        b'"size": "abc"',
        b'"size": [8]',
        b'"size": 1e400',
        b'"size": 8, "target": "x"',
        b'"geometry": {"width": "w", "height": 8, "target_width": 4, '
        b'"target_height": 4}',
        b'"size": 8, "grid": [[0, 1], [0]]',
        b'"size": 8, "params": [1]',
        b'"size": 8, "params": {"no_such_parameter": 1}',
    ],
)
def test_json_front_door_rejects_malformed_fields_and_keeps_serving(server, fields):
    grid = b'"grid": ' + json.dumps(np.zeros((8, 8), int).tolist()).encode()
    body = fields if b'"grid"' in fields else fields + b", " + grid
    responses = json_lines(
        server.address, [b'{"id": 5, ' + body + b"}", b'{"id": 6, "op": "ping"}'], 2
    )
    # A request that decodes answers from the dispatcher, after the ping.
    bad, ping = sorted(responses, key=lambda response: response["id"])
    assert bad["id"] == 5 and bad["ok"] is False and bad["error"]
    assert ping == {"id": 6, "ok": True, "value": "pong"}


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(max_size=4),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=6,
)
_grids = st.lists(st.lists(st.integers(0, 1), max_size=5), max_size=5)


@st.composite
def _json_requests(draw) -> dict:
    """A schedule request whose fields hold drawn values of any JSON type."""
    request = {}
    for name in ("size", "target", "algorithm", "mask", "params", "qrm"):
        if draw(st.booleans()):
            request[name] = draw(st.one_of(st.integers(0, 12), _json_values))
    if draw(st.booleans()):
        request["geometry"] = draw(
            st.one_of(
                _json_values,
                st.fixed_dictionaries(
                    {
                        name: st.one_of(st.integers(0, 12), _json_values)
                        for name in ("width", "height", "target_width", "target_height")
                    }
                ),
            )
        )
    request["grid"] = draw(st.one_of(_grids, _json_values))
    return request


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(_json_requests(), min_size=1, max_size=4))
def test_json_front_door_answers_every_drawn_request(server, requests):
    lines = [
        json.dumps({"id": index, **request}).encode()
        for index, request in enumerate(requests)
    ]
    ping_id = len(requests)
    lines.append(json.dumps({"id": ping_id, "op": "ping"}).encode())
    responses = json_lines(server.address, lines, len(lines))
    # Schedules answer from the dispatcher, errors and pings from the
    # reader, so responses may come back out of order — but exactly one
    # per line, each carrying its id.
    assert sorted(response["id"] for response in responses) == list(range(len(lines)))
    assert {"id": ping_id, "ok": True, "value": "pong"} in responses


def test_json_front_door_serves_requests_over_64_kib(server):
    geometry = ArrayGeometry.square(192)
    array = load_uniform(geometry, 0.5, rng=0)
    line = json.dumps(
        {"id": 1, "size": 192, "grid": array.grid.astype(int).tolist()}
    ).encode()
    assert len(line) > 64 * 1024
    (response,) = json_lines(server.address, [line], 1)
    local = resolve_scheduler(key_for(geometry)).schedule(array)
    assert response["ok"] is True
    assert response["schedule"] == schedule_to_dict(local.schedule)


def test_json_front_door_answers_an_over_limit_line(server):
    line = b'{"id": 1, "grid": [' + b"0, " * (MAX_JSON_LINE // 3) + b"0]}"
    assert len(line) > MAX_JSON_LINE
    error, ping = json_lines(server.address, [line, b'{"id": 2, "op": "ping"}'], 2)
    assert error["ok"] is False and str(MAX_JSON_LINE) in error["error"]
    assert ping == {"id": 2, "ok": True, "value": "pong"}


# ---------------------------------------------------------------------------
# Error paths and sibling isolation
# ---------------------------------------------------------------------------


def test_unknown_algorithm_errors_only_that_request(client):
    geometry = ArrayGeometry.square(8)
    good = client.submit_schedule(
        key_for(geometry), load_uniform(geometry, 0.5, rng=0)
    )
    bad = client.submit_schedule(
        key_for(geometry, "no-such-scheduler"),
        load_uniform(geometry, 0.5, rng=1),
    )
    with pytest.raises(ServiceError, match="no-such-scheduler"):
        bad.result()
    assert good.result().algorithm == "qrm"


def test_unknown_op_is_rejected(client):
    with pytest.raises(ServiceError, match="unknown op"):
        client._submit("bogus", None).result()


def test_malformed_grid_is_rejected(client):
    geometry = ArrayGeometry.square(8)
    payload = key_for(geometry).to_payload()
    payload["grid"] = np.ones((3, 3), dtype=bool)  # wrong shape
    with pytest.raises(ServiceError):
        client._submit("schedule", payload).result()


def test_undecodable_frame_gets_an_error_frame(server, client):
    # A payload that does not unpickle, after a valid handshake: the
    # peer gets one error frame, and the server keeps serving others.
    stream = io.BytesIO()
    write_handshake(stream, {"client": "repro", "proto": "schedule"})
    garbage = b"\x00not a pickle"
    stream.write(struct.pack(">I", len(garbage)) + garbage)
    with socket.create_connection(server.address, timeout=10.0) as sock:
        sock.sendall(stream.getvalue())
        with sock.makefile("rb") as rfile:
            status, request_id, message = read_frame(rfile)
    assert (status, request_id) == ("error", None)
    assert "undecodable" in message
    assert client.ping()


class _PoisonScheduler:
    """Schedules via tetris but explodes on all-empty frames."""

    name = "poison-prone"

    def __init__(self, geometry):
        from repro.baselines.tetris import TetrisScheduler

        self._inner = TetrisScheduler(geometry)

    def schedule(self, array: AtomArray):
        if not array.grid.any():
            raise RuntimeError("mid-analysis explosion on an empty frame")
        return self._inner.schedule(array)


def test_wave_sibling_isolation_on_mid_batch_failure():
    register_algorithm("poison-prone", lambda geometry: _PoisonScheduler(geometry))
    try:
        with serve_in_thread(batch_window=0.2, max_batch_size=32) as thread:
            geometry = ArrayGeometry.square(8)
            key = key_for(geometry, "poison-prone")
            arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(4)]
            poison = AtomArray(geometry, np.zeros(geometry.shape, dtype=bool))
            with ServiceClient(thread.address) as client:
                futures = [
                    client.submit_schedule(key, array)
                    for array in arrays[:2] + [poison] + arrays[2:]
                ]
                with pytest.raises(ServiceError, match="explosion"):
                    futures[2].result()
                local = _PoisonScheduler(geometry)
                for array, future in zip(
                    arrays, futures[:2] + futures[3:]
                ):
                    assert_results_identical(
                        future.result(), local.schedule(array)
                    )
                stats = client.stats()
    finally:
        unregister_algorithm("poison-prone")
    assert stats["fallback_calls"] >= 1
    assert stats["errors"] == 1


# ---------------------------------------------------------------------------
# Client reliability: timeout, retry, reconnect
# ---------------------------------------------------------------------------


def test_request_timeout_exhausts_retries_and_raises():
    # A listener that accepts but never answers: every attempt times
    # out, and the wait raises once the retry budget is spent.
    with socket.create_server(("127.0.0.1", 0)) as mute:
        client = ServiceClient(
            mute.getsockname(),
            request_timeout=0.05,
            max_retries=1,
            backoff_base=0.01,
        )
        try:
            start = time.perf_counter()
            with pytest.raises(ServiceTimeoutError, match="no response"):
                client.ping()
            assert time.perf_counter() - start < 5.0
        finally:
            client.close()


def test_unreachable_service_raises_service_error():
    with socket.create_server(("127.0.0.1", 0)) as placeholder:
        free_port = placeholder.getsockname()[1]
    with pytest.raises(ServiceError, match="cannot reach"):
        ServiceClient(
            ("127.0.0.1", free_port), max_retries=0, backoff_base=0.01
        )


def test_client_reconnects_after_server_restart():
    first = serve_in_thread()
    host, port = first.address
    client = ServiceClient(
        (host, port), max_retries=8, backoff_base=0.05
    )
    try:
        assert client.ping()
        first.stop()
        second = serve_in_thread(host=host, port=port)
        try:
            # The receiver thread sees EOF, reconnects with backoff, and
            # the next request flows through the fresh server.
            assert client.ping()
            geometry = ArrayGeometry.square(8)
            array = load_uniform(geometry, 0.5, rng=0)
            remote = client.schedule(key_for(geometry), array)
            local = resolve_scheduler(key_for(geometry))
            assert_results_identical(remote, local.schedule(array))
        finally:
            second.stop()
    finally:
        client.close()


def test_client_rejects_bad_configuration():
    with pytest.raises(ServiceError, match="max_in_flight"):
        ServiceClient(("127.0.0.1", 1), max_in_flight=0)
