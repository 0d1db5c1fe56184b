"""Self-test of the benchmark: every workload at a tiny size, in seconds.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import host
import run
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--seed", "3", "--seconds", "0", "--smoke"]


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _flip(array) -> None:
    array.grid[0, 0] = not array.grid[0, 0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [item["name"] for item in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload]
        + SMOKE
        + ["--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {item["name"] for item in expected}
    for item in expected:
        metric = result["metrics"][item["name"]]
        assert metric["unit"] == item["unit"]
        assert math.isfinite(metric["value"])
    if trace:
        assert (HERE / "out" / f"trace-{workload}-seed3.json").exists()


def test_loop_check_fails_on_a_flipped_detection_bit(monkeypatch, capsys):
    real = workloads.detect_occupancy
    calls = []

    def corrupted(*args, **kwargs):
        detection = real(*args, **kwargs)
        calls.append(detection)
        if len(calls) == 2:  # the first frame after the warm-up
            _flip(detection.array)
        return detection

    monkeypatch.setattr(workloads, "detect_occupancy", corrupted)
    assert run.main(["--workload", "loop-64"] + SMOKE) == 1
    result = _last_json(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] >= 1


def test_paper_check_fails_on_a_flipped_schedule_bit(monkeypatch, capsys):
    setup = workloads.PaperGeometry.setup

    def corrupted_setup(self):
        setup(self)
        schedule = self.scheduler.schedule

        def corrupted(array):
            result = schedule(array)
            _flip(result.final)
            return result

        self.scheduler.schedule = corrupted

    monkeypatch.setattr(workloads.PaperGeometry, "setup", corrupted_setup)
    assert run.main(["--workload", "paper-50x50"] + SMOKE) == 1
    result = _last_json(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_service_check_fails_on_a_flipped_oracle_bit(monkeypatch, capsys):
    prepare = workloads.Pooled.prepare

    def corrupted(self):
        prepare(self)
        _flip(self.expected[0].final)

    monkeypatch.setattr(workloads.Pooled, "prepare", corrupted)
    assert run.main(["--workload", "service-64"] + SMOKE) == 1
    result = _last_json(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] >= 1


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.spans = [
        ["parent", 0.0, 10.0, -1, None, 1],
        ["child", 1.0, 4.0, 0, None, 1],
        ["child", 3.0, 6.0, 0, None, 2],
        ["child", 4.5, 5.0, 0, None, 3],
    ]
    assert tracer.self_times() == pytest.approx([5.0, 3.0, 3.0, 0.5])


def test_scale_follows_the_host_speed_around_each_moment():
    clock = host.HostClock()
    # The kernel took 2x the reference time for the first 200 timings,
    # then the reference time.
    clock.samples_ms = [2 * host.REFERENCE_MS] * 200 + [host.REFERENCE_MS] * 200
    clock.ends = [float(index) for index in range(400)]
    assert clock.scale_at(10.0) == pytest.approx(0.5)
    assert clock.scale_at(390.0) == pytest.approx(1.0)
    phase = workloads.Phase(
        frame_ms=[10.0, 10.0], first=[True, False], frame_end=[10.0, 390.0]
    )
    assert phase.scaled(clock.scale_at).frame_ms == pytest.approx([5.0, 10.0])
