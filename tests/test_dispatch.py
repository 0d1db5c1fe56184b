"""Tests for the distributed dispatch fabric and its worker protocol."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import pickle
import queue
import re
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import journal_events

import dispatch_sleeper

import repro
from repro.campaign import (
    CampaignSpec,
    DistributedExecutor,
    ExperimentCampaign,
    RunJournal,
    ScenarioCell,
    TcpWorkerTransport,
    TrialSpec,
    WorkerSpec,
    parse_workers,
    read_journal,
)
from repro.campaign.protocol import (
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    decode_payload,
    function_path,
    parse_hostport,
    read_frame,
    read_handshake,
    resolve_function,
    write_frame,
    write_handshake,
)
from repro.campaign.trial import run_trial_batch
from repro.campaign.worker import serve, serve_connections
from repro.errors import ConfigurationError, ExecutionError

TESTS_DIR = str(Path(__file__).resolve().parent)


# Module-level work functions: they cross the transport as import paths
# ("test_dispatch:name"), so worker daemons are launched with this
# directory on PYTHONPATH (see `child_pythonpath` / `worker_daemon`).


def square(value: int) -> int:
    return value * value


def child_pythonpath() -> str:
    """PYTHONPATH putting both the package and this test module in reach."""
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    return os.pathsep.join([package_root, TESTS_DIR])


@contextlib.contextmanager
def worker_daemon(max_connections: int | None = None):
    """A real ``repro worker --listen`` daemon on a free port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = child_pythonpath()
    command = [sys.executable, "-m", "repro.cli", "worker", "--listen", "127.0.0.1:0"]
    if max_connections is not None:
        command += ["--max-connections", str(max_connections)]
    process = subprocess.Popen(
        command, stderr=subprocess.PIPE, text=True, env=env
    )
    try:
        banner = process.stderr.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        assert match, f"no listen banner in {banner!r}"
        yield process, WorkerSpec(host=match.group(1), port=int(match.group(2)))
    finally:
        if process.poll() is None:
            process.kill()
        process.stderr.close()
        process.wait()


def frame_bytes(payload) -> bytes:
    stream = io.BytesIO()
    write_frame(stream, payload)
    return stream.getvalue()


def handshake_bytes(payload) -> bytes:
    stream = io.BytesIO()
    write_handshake(stream, payload)
    return stream.getvalue()


def raw_frame(data: bytes) -> bytes:
    """A frame around arbitrary bytes (not necessarily a pickle)."""
    return struct.pack(">I", len(data)) + data


GARBAGE = b"\x00not a pickle"
PREAMBLE = bytes([PROTOCOL_MAGIC, PROTOCOL_VERSION])
ABS_HANDSHAKE = handshake_bytes({"fn": "builtins:abs"})

#: Streams a broken or hostile peer might send a worker daemon; each
#: must end its own connection with a ConfigurationError, nothing more.
MALFORMED_PEERS = {
    "undecodable-handshake": PREAMBLE + raw_frame(GARBAGE),
    "handshake-not-a-dict": handshake_bytes(["fn", "builtins:abs"]),
    "handshake-missing-module": handshake_bytes({"fn": "no_such_module:run"}),
    "unit-not-index-item": ABS_HANDSHAKE + frame_bytes(5),
    "undecodable-unit": ABS_HANDSHAKE + raw_frame(GARBAGE),
}
malformed_peers = pytest.mark.parametrize(
    "data", list(MALFORMED_PEERS.values()), ids=list(MALFORMED_PEERS)
)


class TestProtocol:
    def test_frame_round_trip(self):
        stream = io.BytesIO()
        write_frame(stream, (3, {"metrics": [1.0, 2.0]}))
        write_frame(stream, "second")
        stream.seek(0)
        assert read_frame(stream) == (3, {"metrics": [1.0, 2.0]})
        assert read_frame(stream) == "second"
        assert read_frame(stream) is None

    def test_truncated_frame_raises(self):
        stream = io.BytesIO()
        write_frame(stream, "payload")
        data = stream.getvalue()
        with pytest.raises(EOFError):
            read_frame(io.BytesIO(data[:-2]))
        with pytest.raises(EOFError):
            read_frame(io.BytesIO(data[:2]))

    def test_function_path_round_trip(self):
        path = function_path(run_trial_batch)
        assert path == "repro.campaign.trial:run_trial_batch"
        assert resolve_function(path) is run_trial_batch

    def test_function_path_rejects_non_module_level(self):
        with pytest.raises(ConfigurationError):
            function_path(lambda x: x)

        def local(x):
            return x

        with pytest.raises(ConfigurationError):
            function_path(local)

    def test_resolve_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            resolve_function("no-colon")
        with pytest.raises(ConfigurationError):
            resolve_function("math:pi")  # not callable
        with pytest.raises(ConfigurationError, match="cannot resolve"):
            resolve_function("no_such_module:run")
        with pytest.raises(ConfigurationError, match="cannot resolve"):
            resolve_function("builtins:no_such_function")

    def test_undecodable_payload_raises_configuration_error(self):
        stream = io.BytesIO(raw_frame(GARBAGE))
        with pytest.raises(ConfigurationError, match="undecodable"):
            read_frame(stream)
        with pytest.raises(ConfigurationError, match="undecodable"):
            decode_payload(pickle.dumps((1, 2))[:-3])

    def test_oversized_frame_header_rejected_before_allocation(self):
        # A forged 2 GiB length must raise, not attempt the allocation.
        stream = io.BytesIO(struct.pack(">I", 1 << 31))
        with pytest.raises(ConfigurationError, match="limit"):
            read_frame(stream)
        # The guard is tunable: the same frame passes a larger budget...
        payload = io.BytesIO()
        write_frame(payload, b"x" * 64)
        with pytest.raises(ConfigurationError, match="limit"):
            read_frame(io.BytesIO(payload.getvalue()), max_bytes=16)
        assert read_frame(io.BytesIO(payload.getvalue())) == b"x" * 64

    def test_handshake_round_trip(self):
        stream = io.BytesIO()
        write_handshake(stream, {"fn": "builtins:abs"})
        write_frame(stream, (0, -3))
        stream.seek(0)
        assert read_handshake(stream) == {"fn": "builtins:abs"}
        assert read_frame(stream) == (0, -3)

    def test_handshake_rejects_wrong_magic(self):
        # A text-protocol peer (e.g. HTTP) can never start with the
        # magic byte; the failure must be a clear ConfigurationError.
        stream = io.BytesIO(b"GET / HTTP/1.1\r\n")
        with pytest.raises(ConfigurationError, match="magic"):
            read_handshake(stream)

    def test_handshake_rejects_unknown_version(self):
        stream = io.BytesIO()
        write_handshake(stream, {"fn": "builtins:abs"})
        forged = bytearray(stream.getvalue())
        assert forged[1] == PROTOCOL_VERSION
        forged[1] = PROTOCOL_VERSION + 1
        with pytest.raises(ConfigurationError, match="version"):
            read_handshake(io.BytesIO(bytes(forged)))
        assert forged[0] == PROTOCOL_MAGIC

    def test_handshake_clean_eof_and_truncation(self):
        assert read_handshake(io.BytesIO()) is None
        with pytest.raises(EOFError):
            read_handshake(io.BytesIO(bytes([PROTOCOL_MAGIC])))

    def test_parse_hostport(self):
        assert parse_hostport("gpu-01:7501") == ("gpu-01", 7501)
        assert parse_hostport(" 127.0.0.1:80 ") == ("127.0.0.1", 80)
        assert parse_hostport("::1:7500") == ("::1", 7500)
        for bad in ("nohost", ":7501", "host:", "host:abc", "host:70000"):
            with pytest.raises(ConfigurationError):
                parse_hostport(bad)


class TestWorkerLoop:
    def _serve(self, handshake, *frames):
        stdin = io.BytesIO()
        if handshake is not None:
            write_handshake(stdin, handshake)
        for frame in frames:
            write_frame(stdin, frame)
        stdin.seek(0)
        stdout = io.BytesIO()
        served = serve(stdin, stdout)
        stdout.seek(0)
        results = []
        while (frame := read_frame(stdout)) is not None:
            results.append(frame)
        return served, results

    def test_serves_and_tags_results(self):
        served, results = self._serve({"fn": "builtins:abs"}, (0, -3), (1, 4))
        assert served == 2
        assert results == [("ok", 0, 3), ("ok", 1, 4)]

    def test_error_frames_do_not_kill_the_worker(self):
        served, results = self._serve({"fn": "builtins:len"}, (0, 123), (1, "ok"))
        assert served == 2
        assert results[0][0] == "error"
        assert results[0][1] == 0
        assert "TypeError" in results[0][2]
        assert results[1] == ("ok", 1, 2)

    def test_error_frames_carry_a_traceback_tail(self):
        _, results = self._serve({"fn": "builtins:len"}, (0, 123))
        status, _, message = results[0]
        assert status == "error"
        assert message.startswith("TypeError: ")
        assert "Traceback (most recent call last)" in message

    def test_pings_answered_and_not_counted_as_work(self):
        served, results = self._serve(
            {"fn": "builtins:abs"}, ("ping", 7), (0, -3), ("ping", 8)
        )
        assert served == 1
        assert ("ok", 0, 3) in results
        assert ("pong", 7, None) in results
        assert ("pong", 8, None) in results

    def test_empty_session(self):
        served, results = self._serve(None)
        assert served == 0
        assert results == []

    def test_garbage_handshake_raises(self):
        with pytest.raises(ConfigurationError, match="magic"):
            serve(io.BytesIO(b"\x00garbage"), io.BytesIO())

    @malformed_peers
    def test_malformed_peer_raises_configuration_error(self, data):
        with pytest.raises(ConfigurationError):
            serve(io.BytesIO(data), io.BytesIO())


def trial_batches(n_seeds: int = 4) -> list[list[TrialSpec]]:
    """One single-trial batch per seed, the items ``run_trial_batch`` takes."""
    cell = ScenarioCell(algorithm="qrm", size=8, fill=0.5)
    return [
        [TrialSpec(cell=cell, seed_index=index, master_seed=7)]
        for index in range(n_seeds)
    ]


def scripted_workers(count: int) -> list[WorkerSpec]:
    """Distinct endpoints for scripted transports (never dialled)."""
    return [WorkerSpec("scripted", 7000 + offset) for offset in range(count)]


class TestWorkerSpec:
    def test_spec_validation(self):
        fields = [field.name for field in dataclasses.fields(WorkerSpec)]
        assert fields == ["host", "port"]
        with pytest.raises(ConfigurationError):
            WorkerSpec("gpu-01", 0)
        with pytest.raises(ConfigurationError):
            WorkerSpec("gpu-01", 65536)

    def test_parse(self):
        assert WorkerSpec.parse("gpu-01:7501") == WorkerSpec("gpu-01", 7501)

    def test_parse_workers(self):
        specs = parse_workers("a:1, b:2,")
        assert specs == (WorkerSpec("a", 1), WorkerSpec("b", 2))
        with pytest.raises(ConfigurationError):
            parse_workers("host:bad")

    @pytest.mark.parametrize("value", [None, "  ", ","], ids=["none", "blank", "comma"])
    def test_parse_workers_needs_daemon_endpoints(self, value):
        # No endpoint at all: the error names both forms --workers
        # takes, the local pool and remote daemons.
        with pytest.raises(ConfigurationError) as excinfo:
            parse_workers(value)
        message = str(excinfo.value)
        assert "--workers N" in message
        assert "--workers host:port[,host:port...]" in message
        assert "repro worker --listen HOST:PORT" in message


class TestDistributedExecutor:
    def test_matches_in_process_results(self):
        items = trial_batches(4)
        expected = {index: run_trial_batch(item) for index, item in enumerate(items)}
        with worker_daemon() as (_, spec):
            executor = DistributedExecutor(workers=[spec])
            assert dict(executor.run(run_trial_batch, items)) == expected

    def test_campaign_aggregates_match_serial(self):
        spec = CampaignSpec(
            name="dispatch-unit",
            algorithms=("qrm",),
            sizes=(8,),
            fills=(0.5,),
            n_seeds=4,
        )
        serial = ExperimentCampaign(spec).run()
        with worker_daemon() as (_, spec_a), worker_daemon() as (_, spec_b):
            distributed = ExperimentCampaign(
                spec,
                executor=DistributedExecutor(workers=[spec_a, spec_b]),
                batch_size=2,
            ).run()
        assert serial.to_csv() == distributed.to_csv()

    def test_empty_items(self):
        executor = DistributedExecutor(workers=scripted_workers(1))
        assert list(executor.run(run_trial_batch, [])) == []

    def test_remote_error_surfaces_with_traceback(self):
        bad = TrialSpec(
            cell=ScenarioCell(algorithm="no-such-algorithm", size=8),
            seed_index=0,
            master_seed=0,
        )
        with worker_daemon() as (_, spec):
            executor = DistributedExecutor(workers=[spec])
            with pytest.raises(ExecutionError, match="remotely") as excinfo:
                list(executor.run(run_trial_batch, [[bad]]))
        assert "Traceback (most recent call last)" in str(excinfo.value)

    def test_executor_validation(self):
        workers = scripted_workers(1)
        with pytest.raises(ConfigurationError):
            DistributedExecutor(workers, ping_interval=0)
        with pytest.raises(ConfigurationError):
            DistributedExecutor(workers, ping_timeout=-1)
        with pytest.raises(ConfigurationError):
            DistributedExecutor(workers, straggler_factor=1.0)
        with pytest.raises(ConfigurationError):
            DistributedExecutor(workers, max_attempts=0)

    def test_no_workers_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1 worker"):
            DistributedExecutor(workers=[])

    def test_a_worker_listed_twice_is_rejected(self):
        # A daemon serves one connection at a time: a second channel to
        # it would sit unanswered until the straggler floor expired.
        spec = WorkerSpec("127.0.0.1", 7501)
        with pytest.raises(ConfigurationError, match="listed twice"):
            DistributedExecutor(workers=[spec, spec])

    def test_long_unit_survives_on_pings(self):
        # The unit takes ~2 s but the silence deadline is 0.8 s: only
        # the worker's concurrent pong replies keep it alive.  A TCP
        # daemon (already booted) keeps interpreter start-up out of the
        # deadline window; the work function lives in an import-light
        # module so per-connection resolution is instant too.
        with worker_daemon() as (_, spec):
            executor = DistributedExecutor(
                workers=[spec], ping_interval=0.1, ping_timeout=0.8
            )
            results = dict(executor.run(dispatch_sleeper.sleepy_square, [7]))
        assert results == {0: 49}


class TestTcpTransport:
    def test_round_trip_with_pings(self):
        with worker_daemon(max_connections=1) as (_, spec):
            transport = TcpWorkerTransport(spec)
            transport.start("builtins:abs")
            transport.submit(0, -5)
            assert transport.next_result() == ("ok", 0, 5)
            transport.ping(3)
            assert transport.next_result() == ("pong", 3, None)
            transport.submit(1, 4)
            assert transport.next_result() == ("ok", 1, 4)
            transport.close()
            transport.close()  # idempotent

    def test_sequential_connections_resolve_functions_independently(self):
        with worker_daemon(max_connections=2) as (process, spec):
            first = TcpWorkerTransport(spec)
            first.start("builtins:abs")
            first.submit(0, -9)
            assert first.next_result() == ("ok", 0, 9)
            first.close()
            second = TcpWorkerTransport(spec)
            second.start("test_dispatch:square")
            second.submit(0, 9)
            assert second.next_result() == ("ok", 0, 81)
            second.close()
            assert process.wait(timeout=10) == 0

    def test_unreachable_worker_fails_clearly(self):
        transport = TcpWorkerTransport(
            WorkerSpec(host="127.0.0.1", port=1), connect_timeout=0.5
        )
        with pytest.raises(ExecutionError, match="cannot reach"):
            transport.start("builtins:abs")

    def test_executor_over_two_daemons_matches_serial(self):
        items = trial_batches(6)
        expected = {index: run_trial_batch(item) for index, item in enumerate(items)}
        with worker_daemon() as (_, spec_a), worker_daemon() as (_, spec_b):
            executor = DistributedExecutor(workers=[spec_a, spec_b])
            assert dict(executor.run(run_trial_batch, items)) == expected

    def test_kill_one_daemon_mid_run_redispatches(self):
        # 20 units of 50 ms over two daemons: the kill after the third
        # result lands with the victim's share still in flight or
        # queued, and the survivor must absorb all of it.
        items = list(range(20))
        with worker_daemon() as (victim, spec_a), worker_daemon() as (_, spec_b):
            executor = DistributedExecutor(workers=[spec_a, spec_b])
            results = {}
            run = executor.run(dispatch_sleeper.nap_square, items)
            for count, (index, value) in enumerate(run):
                results[index] = value
                if count == 2:
                    victim.kill()
            assert victim.wait(timeout=10) != 0
        assert results == {index: index * index for index in items}

    def test_idle_peer_is_dropped_at_the_handshake_deadline(self, monkeypatch):
        # A peer that connects and sends nothing must not hold the
        # daemon: its handshake read times out, and the coordinator
        # queued behind it is served well within its ping deadline.
        monkeypatch.setattr("repro.campaign.worker.HANDSHAKE_TIMEOUT", 0.5)
        messages: list[str] = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()[:2]
            daemon = threading.Thread(
                target=serve_connections,
                args=(listener,),
                kwargs={"max_connections": 2, "log": messages.append},
                daemon=True,
            )
            daemon.start()
            with socket.create_connection((host, port), timeout=10):
                executor = DistributedExecutor(
                    workers=[WorkerSpec(host=host, port=port)], ping_timeout=5
                )
                assert dict(executor.run(abs, [-1, -2])) == {0: 1, 1: 2}
            daemon.join(timeout=10)
            assert not daemon.is_alive()
        assert "failed: timed out" in messages[0]
        assert messages[1].startswith("served 2 units")

    def test_accepted_connections_send_without_nagle(self, monkeypatch):
        # Results and pongs leave as written, not after the peer's ack.
        accepted, options = [], []

        class RecordingListener:
            def __init__(self, listener):
                self.listener = listener

            def accept(self):
                conn, peer = self.listener.accept()
                accepted.append(conn)
                return conn, peer

        def read_option(rfile, wfile, on_handshake):
            options.append(
                accepted[-1].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            return 0

        monkeypatch.setattr("repro.campaign.worker.serve", read_option)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with socket.create_connection(listener.getsockname()[:2], timeout=10):
                serve_connections(RecordingListener(listener), max_connections=1)
        assert len(options) == 1 and options[0]

    @malformed_peers
    def test_malformed_peer_is_dropped_and_the_daemon_serves_on(self, data):
        with worker_daemon() as (process, spec):
            with socket.create_connection((spec.host, spec.port), 10) as peer:
                peer.sendall(data)
            transport = TcpWorkerTransport(spec)
            try:
                transport.start("builtins:abs")
                transport.submit(0, -5)
                assert transport.next_result() == ("ok", 0, 5)
            finally:
                transport.close()
            assert process.poll() is None
            assert "failed" in process.stderr.readline()

    def test_campaign_with_journal_shards_into_one_resumable_journal(
        self, tmp_path
    ):
        spec = CampaignSpec(
            name="dispatch-journal",
            algorithms=("qrm",),
            sizes=(8,),
            fills=(0.5,),
            n_seeds=6,
        )
        serial = ExperimentCampaign(spec).run()
        journal_path = tmp_path / "distributed.jsonl"
        with worker_daemon() as (_, spec_a), worker_daemon() as (_, spec_b):
            journal = RunJournal.fresh(journal_path)
            distributed = ExperimentCampaign(
                spec,
                executor=DistributedExecutor(workers=[spec_a, spec_b]),
                journal=journal,
            ).run()
            journal.close()
        assert serial.to_csv() == distributed.to_csv()
        assert journal_events(journal_path)[-1] == "campaign_completed"
        assert len(read_journal(journal_path).results) == 6
        # The single coordinator journal is resumable: a re-run replays
        # every sharded trial without touching an executor.
        resumed = ExperimentCampaign(
            spec, journal=RunJournal.resume(journal_path)
        ).run()
        assert resumed.journal_replays == 6
        assert resumed.to_csv() == serial.to_csv()


class _ScriptedTransport:
    """In-memory transport running ``fn`` inline, with scripted failures.

    ``trip(index)`` returning True simulates a worker crash mid-unit:
    the submit is swallowed and the receiver sees EOF.  ``deaf`` makes
    the worker accept work but never answer (result or pong) — the
    ping-deadline path.  ``black_hole`` swallows those unit indices
    while still answering pings — the straggler path.
    """

    _DEAD = object()

    def __init__(self, fn, trip=None, deaf=False, black_hole=()):
        self.fn = fn
        self.trip = trip or (lambda index: False)
        self.deaf = deaf
        self.black_hole = set(black_hole)
        self.frames: queue.SimpleQueue = queue.SimpleQueue()
        self.alive = True
        self.submitted: list[int] = []

    def start(self, fn_path: str) -> None:
        pass

    def submit(self, index: int, item) -> None:
        if not self.alive:
            raise ExecutionError("worker gone")
        self.submitted.append(index)
        if self.trip(index):
            self.alive = False
            self.frames.put(self._DEAD)
            return
        if self.deaf or index in self.black_hole:
            return
        self.frames.put(("ok", index, self.fn(item)))

    def ping(self, token: int) -> None:
        if not self.alive:
            raise ExecutionError("worker gone")
        if not self.deaf:
            self.frames.put(("pong", token, None))

    def next_result(self):
        frame = self.frames.get()
        if frame is self._DEAD:
            raise ExecutionError("worker crashed")
        return frame

    def close(self) -> None:
        self.alive = False
        self.frames.put(self._DEAD)


class TestFaultInjection:
    def test_deaf_worker_hits_ping_deadline_and_unit_redispatches(self):
        transports = []

        def factory(spec):
            transport = _ScriptedTransport(square, deaf=not transports)
            transports.append(transport)
            return transport

        executor = DistributedExecutor(
            workers=scripted_workers(2),
            transport_factory=factory,
            ping_interval=0.02,
            ping_timeout=0.1,
        )
        items = list(range(6))
        results = dict(executor.run(square, items))
        assert results == {index: index * index for index in items}
        assert all(not transport.alive for transport in transports)

    def test_single_deaf_worker_fails_with_ping_reason(self):
        executor = DistributedExecutor(
            workers=scripted_workers(1),
            transport_factory=lambda spec: _ScriptedTransport(square, deaf=True),
            ping_interval=0.02,
            ping_timeout=0.1,
        )
        with pytest.raises(ExecutionError, match="no result or pong"):
            dict(executor.run(square, [1, 2]))

    def test_repeatedly_fatal_unit_exhausts_attempts(self):
        # Every worker the poisoned unit lands on dies; after
        # max_attempts the run must fail rather than spin forever.
        def factory(spec):
            return _ScriptedTransport(square, trip=lambda index: index == 1)

        executor = DistributedExecutor(
            workers=scripted_workers(4),
            transport_factory=factory,
            max_attempts=2,
        )
        with pytest.raises(ExecutionError, match="giving up|workers died"):
            dict(executor.run(square, list(range(4))))

    def test_straggler_respawns_to_an_idle_worker(self):
        transports = []

        def factory(spec):
            transport = _ScriptedTransport(
                square, black_hole=() if transports else (0,)
            )
            transports.append(transport)
            return transport

        executor = DistributedExecutor(
            workers=scripted_workers(2),
            transport_factory=factory,
            ping_interval=0.02,
            straggler_factor=2.0,
            min_straggler_s=0.05,
        )
        items = list(range(8))
        results = dict(executor.run(square, items))
        assert results == {index: index * index for index in items}
        # The swallowed unit 0 was speculatively re-dispatched to the
        # healthy worker after the median-based threshold expired.
        assert 0 in transports[1].submitted

    @settings(max_examples=20, deadline=None)
    @given(n_workers=st.integers(1, 6), n_items=st.integers(1, 12), data=st.data())
    def test_kill_one_worker_property(self, n_workers, n_items, data):
        """At-most-once completion over worker count × failure index.

        One worker crashes mid-unit at a Hypothesis-chosen index.  With
        surviving workers the run must complete every unit exactly once
        with correct values; with none it must fail loudly.
        """
        fail_at = data.draw(
            st.integers(0, n_items - 1), label="failure index"
        )
        state = {"tripped": False}

        def trip(index):
            if index == fail_at and not state["tripped"]:
                state["tripped"] = True
                return True
            return False

        executor = DistributedExecutor(
            workers=scripted_workers(n_workers),
            transport_factory=lambda spec: _ScriptedTransport(square, trip=trip),
            ping_interval=0.02,
            ping_timeout=0.5,
        )
        items = list(range(n_items))
        if min(n_workers, n_items) == 1:
            with pytest.raises(ExecutionError, match="workers died"):
                dict(executor.run(square, items))
            return
        yielded = list(executor.run(square, items))
        indices = [index for index, _ in yielded]
        assert sorted(indices) == items, "lost or duplicated units"
        assert len(set(indices)) == len(indices)
        assert dict(yielded) == {index: index * index for index in items}
        assert state["tripped"], "the scripted crash never fired"
