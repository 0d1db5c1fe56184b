"""Perf benchmark: the gated speedup ratios of ``repro bench``.

Runs the ``repro bench`` engine at 32x32 and writes
``benchmarks/results/BENCH_qrm_smoke.json``.  The 64x64 record that
``repro bench`` produces is committed at the repository root as
``BENCH_qrm.json``; this test keeps the harness itself exercised and
the smoke artefact fresh without minutes of CI time.

Also asserts the provenance claim behind the speedup numbers: the live
reference oracles and the vectorised schedulers emit bit-identical
schedules.
"""

from __future__ import annotations

import json

import numpy as np

from repro.analysis.perf import (
    RATIO_NAMES,
    measure_qrm_speedup,
    run_perf_suite,
    validate_bench_report,
)
from repro.analysis.perf_gate import evaluate_gate
from repro.core.qrm import QrmScheduler, QrmSchedulerReference
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform

RECORD_KEYS = {"name", "size", "fill", "trials", "fast_ms", "slow_ms", "ratio"}


def assert_record(record: dict, name: str, size: int, trials: int) -> None:
    assert set(record) == RECORD_KEYS
    assert (record["name"], record["size"], record["fill"]) == (name, size, 0.5)
    assert record["trials"] == trials
    assert record["fast_ms"] > 0 and record["slow_ms"] > 0
    assert record["ratio"] == record["slow_ms"] / record["fast_ms"]


def test_bench_perf_smoke(seed_base, results_dir, emit):
    report = run_perf_suite(size=32, trials=2, master_seed=seed_base)
    emit("BENCH_perf_smoke", report.format_table())
    path = report.write_json(results_dir / "BENCH_qrm_smoke.json")
    payload = json.loads(path.read_text())
    validate_bench_report(payload)
    assert len(payload["ratios"]) == 15
    for record, name in zip(payload["ratios"], RATIO_NAMES):
        trials = 3 if name.startswith("service_latency") else 2
        assert_record(record, name, 32, trials)
    for row in payload["service_latency"]:
        assert 0 < row["p50_ms"] <= row["p99_ms"]


def test_batched_qrm_ratio_records(seed_base):
    from repro.analysis.perf import measure_batched_qrm_speedup

    records = measure_batched_qrm_speedup(
        size=16, batch_sizes=(1, 4), trials=1, master_seed=seed_base
    )
    for record, name in zip(records, ["batched_qrm B=1", "batched_qrm B=4"]):
        assert_record(record, name, 16, 1)
    # Both batch sizes are held to the single side they share.
    assert records[0]["slow_ms"] == records[1]["slow_ms"]


def test_service_latency_record_and_rows(seed_base):
    from repro.analysis.perf import measure_service_latency

    record, rows = measure_service_latency(
        size=8, concurrencies=(1, 2), requests_per_client=2, master_seed=seed_base
    )
    assert_record(record, "service_latency c=2", 8, 2)
    assert [(row["clients"], row["mode"]) for row in rows] == [
        (1, "unbatched"), (1, "batched"), (2, "unbatched"), (2, "batched")
    ]
    for row in rows:
        assert row["requests"] == 2 * 2 * row["clients"]
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]


def test_perf_gate_on_own_report(seed_base):
    # A report always gates cleanly against itself, and the gate flags a
    # fabricated collapse of any ratio it tracks — all of them in one
    # evaluation, not just the first.
    report = run_perf_suite(size=16, trials=1, master_seed=seed_base).to_dict()
    outcome = evaluate_gate(report, report)
    assert outcome.ok and outcome.notices == []

    slipped = json.loads(json.dumps(report))
    halved = (
        "qrm",
        "batched_qrm B=8",
        "service_latency c=16",
        "awg_compile",
        "lossy_replay",
    )
    for record in slipped["ratios"]:
        if record["name"] in halved:
            record["ratio"] *= 0.5
    outcome = evaluate_gate(slipped, report)
    assert not outcome.ok
    assert [failure.split(":")[0] for failure in outcome.failures] == [
        f"{name}@16 fill=0.5" for name in halved
    ]
    # Every slipping ratio lands in the one combined message.
    for failure in outcome.failures:
        assert failure in outcome.message()


def test_perf_gate_compares_nothing_across_sizes(seed_base):
    # A report measured at another size shares no ratio with the
    # baseline: nothing can slip, and every ratio is named in a notice.
    report = run_perf_suite(size=16, trials=1, master_seed=seed_base).to_dict()
    baseline = json.loads(json.dumps(report))
    for record in baseline["ratios"]:
        record["size"] = 32
    outcome = evaluate_gate(report, baseline)
    assert outcome.ok
    notices = set(outcome.notices)
    assert len(notices) == 2 * len(RATIO_NAMES)
    assert "mta1@32 fill=0.5: in the baseline but not measured here" in notices
    assert "mta1@16 fill=0.5: measured here but not in the baseline" in notices


def test_qrm_ratio_record_shape(seed_base):
    record = measure_qrm_speedup(size=16, trials=1, master_seed=seed_base)
    assert_record(record, "qrm", 16, 1)


def test_loop_consumer_ratio_record_shapes(seed_base):
    from repro.analysis.perf import (
        measure_awg_compile_speedup,
        measure_lossy_replay_speedup,
    )

    for name, measure in (
        ("awg_compile", measure_awg_compile_speedup),
        ("lossy_replay", measure_lossy_replay_speedup),
    ):
        record = measure(size=16, trials=1, master_seed=seed_base)
        assert_record(record, name, 16, 1)


def test_guarded_drain_ratio_record_shape(seed_base):
    from repro.analysis.perf import measure_guarded_drain_speedup

    record = measure_guarded_drain_speedup(size=16, trials=1, master_seed=seed_base)
    assert_record(record, "guarded_drain", 16, 1)


def test_component_oracles_match_vectorized_paths(seed_base):
    # The "before" implementations the component blocks time must emit
    # the identical schedules, or their speedup numbers are meaningless.
    from repro.baselines.mta1 import Mta1Scheduler, Mta1SchedulerReference
    from repro.baselines.psca import PscaScheduler, PscaSchedulerReference
    from repro.baselines.tetris import TetrisScheduler, TetrisSchedulerReference
    from repro.core.repair import repair_defects, repair_defects_reference

    geometry = ArrayGeometry.square(16)
    array = load_uniform(geometry, 0.5, rng=seed_base)
    for fast, slow in (
        (TetrisScheduler, TetrisSchedulerReference),
        (PscaScheduler, PscaSchedulerReference),
        (Mta1Scheduler, Mta1SchedulerReference),
    ):
        ours = fast(geometry).schedule(array)
        theirs = slow(geometry).schedule(array)
        assert len(ours.schedule) == len(theirs.schedule)
        for mine, other in zip(ours.schedule, theirs.schedule):
            assert mine == other and mine.tag == other.tag
        assert np.array_equal(ours.final.grid, theirs.final.grid)

    compacted = QrmScheduler(geometry).schedule(array).final
    fast_array, slow_array = compacted.copy(), compacted.copy()
    fast_outcome = repair_defects(fast_array)
    slow_outcome = repair_defects_reference(slow_array)
    assert len(fast_outcome.moves) == len(slow_outcome.moves)
    for mine, other in zip(fast_outcome.moves, slow_outcome.moves):
        assert mine == other and mine.tag == other.tag
    assert np.array_equal(fast_array.grid, slow_array.grid)


def test_reference_schedules_match_live_path(seed_base):
    # The "before" implementation the bench times must be semantically
    # the same scheduler, or the speedup numbers are meaningless.
    geometry = ArrayGeometry.square(16)
    array = load_uniform(geometry, 0.5, rng=seed_base)
    vectorized = QrmScheduler(geometry).schedule(array)
    other = QrmSchedulerReference(geometry).schedule(array)
    assert len(other.schedule) == len(vectorized.schedule)
    for ours, theirs in zip(vectorized.schedule, other.schedule):
        assert ours == theirs
        assert ours.tag == theirs.tag
    assert np.array_equal(other.final.grid, vectorized.final.grid)
