"""Tests for the local process-pool campaign executor."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import (
    CampaignSpec,
    DistributedExecutor,
    ExperimentCampaign,
    MultiprocessingExecutor,
    SerialExecutor,
    WorkerSpec,
    make_executor,
)
from repro.errors import ConfigurationError

TESTS_DIR = str(Path(__file__).resolve().parent)


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


def _slow_square(x: int) -> int:
    time.sleep(0.2)
    return x * x


def small_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="pool-unit",
        algorithms=("qrm", "tetris"),
        sizes=(8,),
        fills=(0.5,),
        n_seeds=3,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


# Runs in a bare child interpreter: a pool that hangs on a dead worker
# then fails the test by the subprocess timeout instead of hanging the
# suite.  Prints the seconds until the error, then the error message.
DEAD_WORKER_SCRIPT = """
import time
from dispatch_sleeper import square_or_die
from repro.campaign import MultiprocessingExecutor
from repro.errors import ExecutionError

started = time.perf_counter()
try:
    dict(MultiprocessingExecutor(workers=2).run(square_or_die, [1, 2, -3, 4, 5, 6]))
except ExecutionError as exc:
    print(time.perf_counter() - started)
    print(exc)
else:
    raise SystemExit("the dead worker went unnoticed")
"""


class TestMultiprocessingExecutor:
    def test_yields_every_index_exactly_once(self):
        executor = MultiprocessingExecutor(workers=2)
        pairs = list(executor.run(_square, list(range(10))))
        assert sorted(index for index, _ in pairs) == list(range(10))
        assert dict(pairs) == {i: i * i for i in range(10)}

    def test_empty_items(self):
        assert list(MultiprocessingExecutor(workers=2).run(_square, [])) == []

    def test_single_worker_degrades_to_serial(self):
        pairs = list(MultiprocessingExecutor(workers=1).run(_square, [3, 4]))
        assert pairs == [(0, 9), (1, 16)]

    def test_campaign_aggregates_match_serial(self):
        spec = small_spec()
        serial = ExperimentCampaign(spec, executor=SerialExecutor()).run()
        fanned = ExperimentCampaign(
            spec, executor=MultiprocessingExecutor(workers=2)
        ).run()
        assert serial.to_csv() == fanned.to_csv()
        for a, b in zip(serial.aggregates, fanned.aggregates):
            assert a.cell == b.cell
            assert a.metrics == b.metrics

    def test_error_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            dict(MultiprocessingExecutor(workers=2).run(_boom, [1, 2, 3]))

    def test_early_close_cancels_cleanly(self):
        executor = MultiprocessingExecutor(workers=2)
        stream = executor.run(_slow_square, list(range(40)))
        first = next(stream)
        assert first[1] == first[0] ** 2
        started = time.perf_counter()
        stream.close()
        # Closing cancels the futures not yet started rather than
        # draining all 40 sleeps through 2 workers (~4 s).
        assert time.perf_counter() - started < 2.0

    def test_dead_worker_fails_fast(self):
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([package_root, TESTS_DIR])
        completed = subprocess.run(
            [sys.executable, "-c", DEAD_WORKER_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        elapsed, message = completed.stdout.split("\n", 1)
        assert float(elapsed) < 10.0
        assert "pool worker died" in message
        assert "--resume" in message

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MultiprocessingExecutor(workers=0)


class TestMakeExecutor:
    def test_kinds(self):
        # The form of --workers alone picks the executor.
        for workers in (None, 0, 1):
            assert isinstance(make_executor(workers), SerialExecutor)
        for workers in (4, "4"):
            pool = make_executor(workers)
            assert isinstance(pool, MultiprocessingExecutor)
            assert pool.workers == 4
        fabric = make_executor("h:1,h:2")
        assert isinstance(fabric, DistributedExecutor)
        assert fabric.workers == (WorkerSpec("h", 1), WorkerSpec("h", 2))

    @pytest.mark.parametrize("workers", [-1, "-2"])
    def test_negative_count_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="--workers"):
            make_executor(workers)

    @pytest.mark.parametrize(
        "workers",
        ["localhost", ":7421", "no-port:", "host:bad", "h:99999", "h:0"],
    )
    def test_malformed_endpoint_rejected(self, workers):
        # Anything that is not a count is read as daemon endpoints, and
        # a malformed one is refused before any connection is tried.
        with pytest.raises(ConfigurationError):
            make_executor(workers)
