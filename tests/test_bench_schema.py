"""Schema contract for the ``BENCH_qrm.json`` perf artefact.

``repro bench`` output is a committed, machine-readable artefact; this
suite pins its layout with :func:`repro.analysis.perf.validate_bench_report`
so a refactor cannot silently change the schema (or drop the speedup
provenance blocks) without failing the tier-1 run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.perf import (
    BENCH_SCHEMA_VERSION,
    COMPONENT_NAMES,
    run_perf_suite,
    validate_bench_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_BENCH = REPO_ROOT / "BENCH_qrm.json"


@pytest.fixture(scope="module")
def committed_payload() -> dict:
    return json.loads(COMMITTED_BENCH.read_text())


def test_committed_bench_artifact_validates(committed_payload):
    validate_bench_report(committed_payload)


def test_committed_bench_has_all_component_speedups(committed_payload):
    components = committed_payload["component_speedups"]
    assert set(components) == set(COMPONENT_NAMES)
    assert {"mta1", "guarded_drain", "batched_qrm"} <= set(components)
    for name, block in components.items():
        if name in ("batched_qrm", "service_latency"):
            continue  # pinned separately below — different block shapes
        assert block["speedup_vs_reference"] > 1.0


def test_committed_bench_service_latency_wins_at_high_concurrency(
    committed_payload,
):
    # The service's acceptance bar: micro-batching beats batching-off on
    # amortised per-request latency at concurrency 16 on the 64x64
    # headline case (pooled best-of minima on both sides).
    block = committed_payload["component_speedups"]["service_latency"]
    assert block["size"] == 64
    by_clients = {entry["clients"]: entry for entry in block["concurrency"]}
    assert 16 in by_clients
    assert by_clients[16]["speedup_batched"] > 1.0
    for entry in block["concurrency"]:
        for mode in ("unbatched", "batched"):
            assert entry[mode]["p50_ms"] <= entry[mode]["p99_ms"]
            assert entry[mode]["amortized_ms"] > 0


def test_committed_bench_batched_qrm_hits_the_speedup_bar(committed_payload):
    # The cross-trial batched engine's acceptance bar: >= 2x amortised
    # per-trial speedup at batch size 32 on the 64x64 headline case.
    block = committed_payload["component_speedups"]["batched_qrm"]
    assert block["size"] == 64
    by_batch = {entry["batch_size"]: entry for entry in block["batches"]}
    assert 32 in by_batch
    assert by_batch[32]["speedup_vs_single"] >= 2.0
    for entry in block["batches"]:
        assert entry["speedup_vs_single"] > 0
        assert entry["amortized_ms"]["mean"] > 0


def test_gate_compares_only_the_qrm_ratios_both_reports_carry(committed_payload):
    # A v8 artefact's QRM block still carries the retired seed ratio; a
    # v9 report gated against it (or the other way round) compares the
    # shared ratio and names the one-sided one instead of raising.
    from repro.analysis.perf_gate import evaluate_gate

    v8 = json.loads(json.dumps(committed_payload))
    v8["schema_version"] = 8
    v8["speedup"]["seed_ms"] = dict(v8["speedup"]["reference_ms"])
    v8["speedup"]["speedup_vs_seed"] = 15.0
    for fresh, baseline in ((committed_payload, v8), (v8, committed_payload)):
        outcome = evaluate_gate(fresh, baseline)
        assert outcome.ok
        assert any("'speedup_vs_seed'" in notice for notice in outcome.notices)
    slipped = json.loads(json.dumps(committed_payload))
    slipped["speedup"]["speedup_vs_reference"] *= 0.5
    (failure,) = evaluate_gate(slipped, v8).failures
    assert "speedup_vs_reference" in failure


def test_gate_skips_the_retired_pipeline_latency_component(committed_payload):
    # A v9 artefact still carries the sequential-vs-pipelined block of
    # the deleted threaded driver; a v10 report gated against it (or the
    # other way round) names the one-sided component instead of raising.
    from repro.analysis.perf_gate import evaluate_gate

    v9 = json.loads(json.dumps(committed_payload))
    v9["schema_version"] = 9
    v9["component_speedups"]["pipeline_latency"] = {
        "size": 64,
        "fill": 0.5,
        "trials": 3,
        "shots": 4,
        "cycles": 2,
        "sequential_ms": {"mean": 232.0, "std": 31.9, "min": 193.5, "max": 271.3},
        "pipelined_ms": {"mean": 200.2, "std": 22.4, "min": 172.7, "max": 232.2},
        "overlap_speedup": 1.12,
        "trace_digest": "0" * 64,
        "stages": [],
    }
    for fresh, baseline in ((committed_payload, v9), (v9, committed_payload)):
        outcome = evaluate_gate(fresh, baseline)
        assert outcome.ok
        assert any(
            "component 'pipeline_latency'" in notice for notice in outcome.notices
        )


def test_gate_skips_the_fpga_cycle_model_component_a_v10_artefact_lacks(
    committed_payload,
):
    # A v10 artefact predates the closed-form cycle model's block; a v11
    # report gated against it (or the other way round) names the
    # one-sided component instead of raising.
    from repro.analysis.perf_gate import evaluate_gate

    v10 = json.loads(json.dumps(committed_payload))
    v10["schema_version"] = 10
    del v10["component_speedups"]["fpga_cycle_model"]
    for fresh, baseline in ((committed_payload, v10), (v10, committed_payload)):
        outcome = evaluate_gate(fresh, baseline)
        assert outcome.ok
        assert any(
            "component 'fpga_cycle_model'" in notice for notice in outcome.notices
        )


def test_committed_bench_times_the_loop_schedule_consumers(committed_payload):
    # AWG compilation and lossy replay are timed from the schedule table
    # against their object walkers on 64x64 QRM first-frame schedules.
    components = committed_payload["component_speedups"]
    for name in ("awg_compile", "lossy_replay"):
        block = components[name]
        assert (block["size"], block["fill"]) == (64, 0.5)
        assert block["speedup_vs_reference"] > 2.0


@pytest.mark.parametrize("name", ["awg_compile", "lossy_replay"])
def test_validator_rejects_incomplete_consumer_blocks(committed_payload, name):
    broken = json.loads(json.dumps(committed_payload))
    del broken["component_speedups"][name]["reference_ms"]
    with pytest.raises(ValueError, match=name):
        validate_bench_report(broken)
    missing = json.loads(json.dumps(committed_payload))
    del missing["component_speedups"][name]
    with pytest.raises(ValueError, match="incomplete"):
        validate_bench_report(missing)


def test_committed_bench_covers_mta1_on_the_full_grid(committed_payload):
    # The headline QRM-vs-MTA1 comparison must be regenerable at scale:
    # mta1 rides the whole default grid and is never in the skip list.
    from repro.analysis.perf import DEFAULT_SIZES

    mta1_sizes = {
        entry["size"]
        for entry in committed_payload["entries"]
        if entry["algorithm"] == "mta1"
    }
    assert mta1_sizes == set(DEFAULT_SIZES)
    assert all(skip["algorithm"] != "mta1" for skip in committed_payload["skipped"])


def test_fresh_report_validates_end_to_end():
    report = run_perf_suite(
        sizes=(8,),
        fills=(0.5,),
        algorithms=("qrm",),
        trials=1,
        master_seed=0,
        speedup_size=8,
    )
    payload = report.to_dict()
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    validate_bench_report(payload)
    assert set(payload["component_speedups"]) == set(COMPONENT_NAMES)


def test_validator_rejects_schema_drift():
    report = run_perf_suite(
        sizes=(8,),
        fills=(0.5,),
        algorithms=("qrm",),
        trials=1,
        master_seed=0,
        speedup_size=None,
    )
    good = report.to_dict()
    validate_bench_report(good)

    stale = dict(good, schema_version=BENCH_SCHEMA_VERSION - 1)
    with pytest.raises(ValueError, match="schema_version"):
        validate_bench_report(stale)

    drifted = json.loads(json.dumps(good))
    drifted["entries"][0]["trials"] += 1
    with pytest.raises(ValueError, match="drifted"):
        validate_bench_report(drifted)

    broken = json.loads(json.dumps(good))
    del broken["entries"][0]["wall_ms"]["std"]
    with pytest.raises(ValueError, match="wall_ms"):
        validate_bench_report(broken)
