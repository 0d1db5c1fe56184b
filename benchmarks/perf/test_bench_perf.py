"""Perf benchmark: schedule-construction wall time + QRM speedup record.

Runs the ``repro bench`` engine in smoke mode (CI-sized grid) and writes
``benchmarks/results/BENCH_qrm_smoke.json``.  The full grid — W in
{32, 64, 128} with the 64x64 before/after speedup block — is what
``repro bench`` produces and is committed at the repository root as
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
    COMPONENT_NAMES,
    measure_qrm_speedup,
    run_perf_suite,
    validate_bench_report,
)
from repro.core.passes import run_pass_reference
from repro.core.qrm import QrmScheduler
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform


def test_bench_perf_smoke(seed_base, results_dir, emit):
    report = run_perf_suite(
        sizes=(16, 32),
        fills=(0.5,),
        algorithms=("qrm", "tetris", "mta1"),
        trials=2,
        master_seed=seed_base,
        speedup_size=32,
    )
    emit("BENCH_perf_smoke", report.format_table())
    path = report.write_json(results_dir / "BENCH_qrm_smoke.json")
    payload = json.loads(path.read_text())
    validate_bench_report(payload)
    assert len(payload["entries"]) == 6
    assert payload["skipped"] == []  # mta1 is back on the default grid
    for entry in payload["entries"]:
        assert entry["wall_ms"]["min"] <= entry["wall_ms"]["mean"]
        assert entry["wall_ms"]["mean"] <= entry["wall_ms"]["max"]
        assert entry["moves"]["mean"] > 0
    speedup = payload["speedup"]
    assert speedup["speedup_vs_reference"] > 0
    components = payload["component_speedups"]
    assert set(components) == set(COMPONENT_NAMES)
    for name, block in components.items():
        if name == "batched_qrm":
            assert block["single_ms"]["mean"] > 0
            for entry in block["batches"]:
                assert entry["amortized_ms"]["mean"] > 0
                assert entry["speedup_vs_single"] > 0
            continue
        if name == "service_latency":
            for entry in block["concurrency"]:
                assert entry["unbatched"]["amortized_ms"] > 0
                assert entry["batched"]["amortized_ms"] > 0
                assert entry["speedup_batched"] > 0
            continue
        assert block["vectorized_ms"]["mean"] > 0
        assert block["speedup_vs_reference"] > 0


def test_batched_qrm_speedup_block_shape(seed_base):
    from repro.analysis.perf import measure_batched_qrm_speedup

    block = measure_batched_qrm_speedup(
        size=16, batch_sizes=(1, 4), trials=1, master_seed=seed_base
    )
    assert set(block) >= {"size", "fill", "trials", "single_ms", "batches"}
    assert [entry["batch_size"] for entry in block["batches"]] == [1, 4]
    for entry in block["batches"]:
        assert entry["amortized_ms"]["mean"] > 0


def test_service_latency_block_shape(seed_base):
    from repro.analysis.perf import measure_service_latency

    block = measure_service_latency(
        size=8, concurrencies=(1, 2), requests_per_client=2,
        master_seed=seed_base,
    )
    assert set(block) >= {"size", "fill", "batch_window_ms", "concurrency"}
    assert [entry["clients"] for entry in block["concurrency"]] == [1, 2]
    for entry in block["concurrency"]:
        for mode in ("unbatched", "batched"):
            assert entry[mode]["p50_ms"] <= entry[mode]["p99_ms"]
            assert entry[mode]["amortized_ms"] > 0
        assert entry["speedup_batched"] > 0


def test_perf_gate_on_own_report(seed_base):
    # A report always gates cleanly against itself, and the gate flags a
    # fabricated collapse of any ratio it tracks — all of them in one
    # evaluation, not just the first.
    from repro.analysis.perf_gate import check_perf_regression, evaluate_gate

    report = run_perf_suite(
        sizes=(16,),
        fills=(0.5,),
        algorithms=("qrm",),
        trials=1,
        master_seed=seed_base,
        speedup_size=16,
    ).to_dict()
    assert check_perf_regression(report, report) == []
    assert evaluate_gate(report, report).ok

    slipped = json.loads(json.dumps(report))
    slipped["speedup"]["speedup_vs_reference"] = (
        report["speedup"]["speedup_vs_reference"] * 0.5
    )
    slipped["component_speedups"]["batched_qrm"]["batches"][0][
        "speedup_vs_single"
    ] *= 0.5
    slipped["component_speedups"]["service_latency"]["concurrency"][-1][
        "speedup_batched"
    ] *= 0.5
    for name in ("awg_compile", "lossy_replay"):
        slipped["component_speedups"][name]["speedup_vs_reference"] *= 0.5
    failures = check_perf_regression(slipped, report)
    assert any("qrm@16 speedup_vs_reference" in failure for failure in failures)
    assert any("batched_qrm@16" in failure for failure in failures)
    assert any("service_latency@16" in failure for failure in failures)
    assert any("awg_compile@16" in failure for failure in failures)
    assert any("lossy_replay@16" in failure for failure in failures)

    outcome = evaluate_gate(slipped, report)
    assert not outcome.ok
    assert outcome.failures == failures
    # Every slipping ratio lands in the one combined message.
    for failure in failures:
        assert failure in outcome.message()


def test_perf_gate_notices_name_skipped_components(seed_base):
    # A smoke report that measured fewer blocks than the committed
    # artefact must say which comparisons it skipped, not stay silent.
    from repro.analysis.perf_gate import evaluate_gate

    report = run_perf_suite(
        sizes=(16,),
        fills=(0.5,),
        algorithms=("qrm",),
        trials=1,
        master_seed=seed_base,
        speedup_size=None,
    ).to_dict()
    baseline = json.loads(json.dumps(report))
    baseline["speedup"] = {"size": 16, "fill": 0.5, "speedup_vs_reference": 2.0}
    baseline["component_speedups"] = {
        "tetris": {"size": 16, "fill": 0.5, "speedup_vs_reference": 2.0}
    }
    outcome = evaluate_gate(report, baseline)
    assert outcome.ok  # nothing comparable, so nothing can slip
    assert any("qrm speedup" in notice for notice in outcome.notices)
    assert any("'tetris'" in notice for notice in outcome.notices)


def test_speedup_block_shape(seed_base):
    block = measure_qrm_speedup(size=16, trials=1, master_seed=seed_base)
    assert set(block) >= {"vectorized_ms", "reference_ms", "speedup_vs_reference"}


def test_loop_consumer_speedup_block_shapes(seed_base):
    from repro.analysis.perf import (
        measure_awg_compile_speedup,
        measure_lossy_replay_speedup,
    )

    for measure in (measure_awg_compile_speedup, measure_lossy_replay_speedup):
        block = measure(size=16, trials=1, master_seed=seed_base)
        assert (block["size"], block["fill"], block["trials"]) == (16, 0.5, 1)
        assert block["vectorized_ms"]["mean"] > 0
        assert block["reference_ms"]["mean"] > 0
        assert block["speedup_vs_reference"] > 0


def test_guarded_drain_speedup_block_shape(seed_base):
    from repro.analysis.perf import measure_guarded_drain_speedup

    block = measure_guarded_drain_speedup(size=16, trials=1, master_seed=seed_base)
    assert set(block) >= {"vectorized_ms", "reference_ms", "speedup_vs_reference"}
    assert block["vectorized_ms"]["mean"] > 0
    assert block["reference_ms"]["mean"] > 0


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
    other = QrmScheduler(geometry, pass_runner=run_pass_reference).schedule(array)
    assert len(other.schedule) == len(vectorized.schedule)
    for ours, theirs in zip(vectorized.schedule, other.schedule):
        assert ours == theirs
        assert ours.tag == theirs.tag
    assert np.array_equal(other.final.grid, vectorized.final.grid)
