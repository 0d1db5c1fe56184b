"""Schema contract for the ``BENCH_qrm.json`` perf artefact and its gate.

``repro bench`` output is a committed, machine-readable artefact; this
suite pins its layout with :func:`repro.analysis.perf.validate_bench_report`
so a refactor cannot silently change the schema (or drop a gated ratio)
without failing the tier-1 run, and holds the regression gate to its
one comparison loop.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.perf import (
    BENCH_SCHEMA_VERSION,
    RATIO_NAMES,
    run_perf_suite,
    validate_bench_report,
)
from repro.analysis.perf_gate import evaluate_gate
from repro.cli import main
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_BENCH = REPO_ROOT / "BENCH_qrm.json"


@pytest.fixture(scope="module")
def committed_payload() -> dict:
    return json.loads(COMMITTED_BENCH.read_text())


def copy_of(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def ratio(payload: dict, name: str) -> dict:
    (record,) = [r for r in payload["ratios"] if r["name"] == name]
    return record


def test_committed_bench_artifact_validates(committed_payload):
    validate_bench_report(committed_payload)


def test_committed_bench_has_a_record_per_ratio(committed_payload):
    names = [record["name"] for record in committed_payload["ratios"]]
    assert sorted(names) == sorted(RATIO_NAMES)
    for record in committed_payload["ratios"]:
        if record["name"].startswith(("batched_qrm", "service_latency")):
            continue  # pinned separately below — not vectorised-vs-reference
        assert record["ratio"] > 1.0, record["name"]


def test_committed_bench_service_latency_wins_at_high_concurrency(
    committed_payload,
):
    # The service's acceptance bar: micro-batching beats batching-off on
    # amortised per-request latency at concurrency 16 on the 64x64
    # headline case (pooled best-of minima on both sides).
    record = ratio(committed_payload, "service_latency c=16")
    assert record["size"] == 64
    assert record["ratio"] > 1.0
    rows = committed_payload["service_latency"]
    assert {(row["clients"], row["mode"]) for row in rows} == {
        (clients, mode) for clients in (1, 4, 16) for mode in ("unbatched", "batched")
    }
    for row in rows:
        assert row["p50_ms"] <= row["p99_ms"]


def test_committed_bench_batched_qrm_hits_the_speedup_bar(committed_payload):
    # The cross-trial batched engine's acceptance bar on the 64x64
    # headline case: stacking pays at every gated batch size.  How much
    # it pays depends on the per-call overhead a single schedule() has
    # left to amortise, so the gate's 15% guards the measured values.
    for name in RATIO_NAMES:
        if name.startswith("batched_qrm"):
            record = ratio(committed_payload, name)
            assert record["size"] == 64
            assert record["ratio"] > 1.0, name


def test_committed_bench_times_the_loop_schedule_consumers(committed_payload):
    # AWG compilation and lossy replay are timed from the schedule table
    # against their object walkers on 64x64 QRM first-frame schedules.
    for name in ("awg_compile", "lossy_replay"):
        record = ratio(committed_payload, name)
        assert (record["size"], record["fill"]) == (64, 0.5)
        assert record["ratio"] > 2.0


def test_committed_bench_times_the_camera(committed_payload):
    # The site-stride expected image against its FFT oracle on 64x64
    # loads: the fast path must beat the convolution it replaced.
    record = ratio(committed_payload, "expected_image")
    assert (record["size"], record["fill"]) == (64, 0.5)
    assert record["ratio"] > 1.0


@pytest.mark.parametrize("name", ["awg_compile", "lossy_replay"])
def test_validator_rejects_broken_records(committed_payload, name):
    broken = copy_of(committed_payload)
    del ratio(broken, name)["slow_ms"]
    with pytest.raises(ValueError, match=f"{name}.*missing key 'slow_ms'"):
        validate_bench_report(broken)
    skewed = copy_of(committed_payload)
    ratio(skewed, name)["ratio"] *= 1.01
    with pytest.raises(ValueError, match="is not slow_ms / fast_ms"):
        validate_bench_report(skewed)
    missing = copy_of(committed_payload)
    missing["ratios"].remove(ratio(missing, name))
    with pytest.raises(ValueError, match="do not match the gated set"):
        validate_bench_report(missing)


def test_validator_rejects_schema_drift_and_disordered_latencies(
    committed_payload,
):
    stale = dict(committed_payload, schema_version=BENCH_SCHEMA_VERSION - 1)
    with pytest.raises(ValueError, match="schema_version"):
        validate_bench_report(stale)
    disordered = copy_of(committed_payload)
    row = disordered["service_latency"][0]
    row["p50_ms"] = row["p99_ms"] + 1.0
    with pytest.raises(ValueError, match="p50 <= p95 <= p99"):
        validate_bench_report(disordered)


def test_fresh_report_validates_end_to_end():
    report = run_perf_suite(size=8, trials=1)
    payload = report.to_dict()
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    validate_bench_report(payload)
    assert [record["name"] for record in payload["ratios"]] == list(RATIO_NAMES)
    table = report.format_table()
    for name in RATIO_NAMES:
        assert name in table


def test_gate_names_a_ratio_only_one_side_carries(committed_payload):
    # At one schema, a ratio that only one report carries is named in a
    # notice and compared with nothing, in either direction; every
    # shared ratio is still compared.
    partial = copy_of(committed_payload)
    partial["ratios"].remove(ratio(partial, "mta1"))
    for fresh, baseline, where in (
        (committed_payload, partial, "measured here but not in the baseline"),
        (partial, committed_payload, "in the baseline but not measured here"),
    ):
        outcome = evaluate_gate(fresh, baseline)
        assert outcome.ok
        assert outcome.notices == [f"mta1@64 fill=0.5: {where}"]
    slipped = copy_of(partial)
    ratio(slipped, "psca")["ratio"] *= 0.5
    outcome = evaluate_gate(slipped, committed_payload)
    (failure,) = outcome.failures
    assert failure.startswith("psca@64 fill=0.5: ")
    assert failure in outcome.message()


def test_gate_refuses_a_baseline_of_another_schema(committed_payload):
    v11 = dict(committed_payload, schema_version=11)
    with pytest.raises(ConfigurationError, match=r"schema_version 11.*\b12\b"):
        evaluate_gate(committed_payload, v11)


def measured(*args, **kwargs):
    raise AssertionError("a refused baseline must not be measured against")


def test_bench_gate_refuses_a_v11_baseline_before_measuring(
    committed_payload, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr("repro.analysis.perf.run_perf_suite", measured)
    baseline = tmp_path / "BENCH_v11.json"
    baseline.write_text(json.dumps(dict(committed_payload, schema_version=11)))
    out = tmp_path / "BENCH_gate.json"
    argv = ["bench", "--gate", str(baseline), "--out", str(out), "--quiet"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "schema_version 11" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "content", ["[not json", "[]", None], ids=["not-json", "not-a-report", "missing"]
)
def test_bench_gate_refuses_an_unreadable_baseline(
    tmp_path, monkeypatch, capsys, content
):
    monkeypatch.setattr("repro.analysis.perf.run_perf_suite", measured)
    baseline = tmp_path / "BENCH_bad.json"
    if content is not None:
        baseline.write_text(content)
    out = tmp_path / "BENCH_gate.json"
    argv = ["bench", "--gate", str(baseline), "--out", str(out), "--quiet"]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(baseline) in line
    assert not out.exists()


@pytest.mark.parametrize(
    "flag", [["--smoke"], ["--gate-tolerance", "0.15"]], ids=lambda f: f[0]
)
def test_bench_removed_flags_are_rejected(capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", *flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
