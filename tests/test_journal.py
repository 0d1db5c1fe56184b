"""Tests for resumable run journals, including crash consistency.

The crash-consistency property is differential: a journal truncated at
*any* byte offset must still resume to aggregates byte-identical to an
uninterrupted run of the same spec.  The clean run is the oracle, the
truncation offset is the adversary, and the tiny campaign grids come
from the shared :mod:`tests.oracles` strategies.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import campaign_specs, journal_events
from repro.campaign import (
    CampaignSpec,
    ExperimentCampaign,
    InterruptingObserver,
    RunJournal,
    ScenarioCell,
    TrialCache,
    TrialSpec,
    read_journal,
)
from repro.errors import ConfigurationError, ExecutionError


def small_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="journal-unit",
        algorithms=("qrm",),
        sizes=(8,),
        fills=(0.5,),
        n_seeds=3,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


def run_with_journal(spec, path, **campaign_kwargs):
    journal = (
        RunJournal.resume(path) if Path(path).exists() else RunJournal.fresh(path)
    )
    try:
        result = ExperimentCampaign(spec, journal=journal, **campaign_kwargs).run()
    finally:
        journal.close()
    return result


class TestWriterReader:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        result = run_with_journal(spec, path)

        replay = read_journal(path)
        assert replay.spec == spec
        assert replay.spec_hash == spec.spec_hash()
        assert replay.valid_bytes == path.stat().st_size
        assert len(replay.results) == spec.n_trials
        assert replay.started_keys == set(replay.results)
        events = journal_events(path)
        assert events.count("campaign_started") == 1
        assert events[-1] == "campaign_completed"
        assert result.journal_replays == 0

    def test_events_in_order(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_with_journal(small_spec(n_seeds=2), path)
        events = [
            json.loads(line)["event"] for line in path.read_text().splitlines() if line
        ]
        assert events[0] == "campaign_started"
        assert events[-1] == "campaign_completed"
        assert events.count("trial_started") == 2
        assert events.count("trial_finished") == 2
        assert events.count("cell_checkpoint") == 1
        # Every started trial finished before the checkpoint.
        assert events.index("cell_checkpoint") > max(
            i for i, e in enumerate(events) if e == "trial_finished"
        )

    def test_checkpoint_carries_summaries(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = run_with_journal(small_spec(n_seeds=3), path)
        checkpoints = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line and json.loads(line)["event"] == "cell_checkpoint"
        ]
        (checkpoint,) = checkpoints
        (aggregate,) = result.aggregates
        moves = checkpoint["metrics"]["moves"]
        assert moves["mean"] == aggregate.metrics["moves"].mean
        assert moves["min"] == aggregate.metrics["moves"].minimum
        assert moves["n"] == 3

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_journal(tmp_path / "nope.jsonl")

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_with_journal(small_spec(n_seeds=1), path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        replay = read_journal(path)
        assert replay.valid_bytes == path.stat().st_size
        assert len(replay.results) == 1

    def test_mixed_campaigns_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_with_journal(small_spec(), path)
        other = small_spec(master_seed=99)
        journal = RunJournal.resume(path)
        with pytest.raises(ConfigurationError):
            ExperimentCampaign(other, journal=journal).run()
        journal.close()

    def test_fresh_truncates_existing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_with_journal(small_spec(), path)
        journal = RunJournal.fresh(path)
        journal.close()
        assert path.read_text() == ""


class TestResume:
    def test_interrupted_run_resumes_to_identical_aggregates(self, tmp_path):
        spec = small_spec(algorithms=("qrm", "tetris"), n_seeds=4)
        clean = ExperimentCampaign(spec).run()

        path = tmp_path / "run.jsonl"
        journal = RunJournal.fresh(path)
        campaign = ExperimentCampaign(
            spec, journal=journal, observer=InterruptingObserver(after=3)
        )
        with pytest.raises(KeyboardInterrupt):
            campaign.run()
        journal.close()

        replay = read_journal(path)
        assert len(replay.results) == 3
        assert journal_events(path)[-1] != "campaign_completed"

        resumed = run_with_journal(spec, path)
        assert resumed.journal_replays == 3
        assert resumed.cache_misses == spec.n_trials - 3
        assert resumed.to_csv() == clean.to_csv()
        assert journal_events(path)[-1] == "campaign_completed"

    def test_resume_executes_only_remainder(self, tmp_path):
        spec = small_spec(n_seeds=3)
        path = tmp_path / "run.jsonl"
        journal = RunJournal.fresh(path)
        with pytest.raises(KeyboardInterrupt):
            ExperimentCampaign(
                spec, journal=journal, observer=InterruptingObserver(after=1)
            ).run()
        journal.close()

        run_with_journal(spec, path)
        segments = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line and json.loads(line)["event"] == "campaign_started"
        ]
        assert len(segments) == 2
        assert segments[0]["n_replayed"] == 0
        assert segments[1]["n_replayed"] == 1

    def test_started_events_not_reannounced_on_resume(self, tmp_path):
        # Each trial is announced once across all run segments, so
        # repeated interrupt/resume cycles can't bloat the journal.
        spec = small_spec(n_seeds=4)
        path = tmp_path / "run.jsonl"
        journal = RunJournal.fresh(path)
        with pytest.raises(KeyboardInterrupt):
            ExperimentCampaign(
                spec, journal=journal, observer=InterruptingObserver(after=1)
            ).run()
        journal.close()
        run_with_journal(spec, path)
        events = [
            json.loads(line)["event"] for line in path.read_text().splitlines() if line
        ]
        assert events.count("trial_started") == spec.n_trials

    def test_journal_records_cache_hits(self, tmp_path):
        spec = small_spec(n_seeds=2)
        cache = TrialCache(tmp_path / "cache")
        ExperimentCampaign(spec, cache=cache).run()

        path = tmp_path / "run.jsonl"
        result = run_with_journal(spec, path, cache=TrialCache(tmp_path / "cache"))
        assert result.cache_hits == spec.n_trials
        replay = read_journal(path)
        assert len(replay.results) == spec.n_trials

    def test_timing_cells_never_replay(self, tmp_path):
        spec = small_spec(n_seeds=2, timing=True)
        path = tmp_path / "run.jsonl"
        run_with_journal(spec, path)
        resumed = run_with_journal(spec, path)
        assert resumed.journal_replays == 0
        assert resumed.cache_misses == spec.n_trials


class TestErrorEvents:
    def test_trial_error_recorded_before_abort(self, tmp_path):
        spec = CampaignSpec(
            name="boom",
            algorithms=("no-such-algorithm",),
            sizes=(8,),
            n_seeds=1,
        )
        path = tmp_path / "run.jsonl"
        journal = RunJournal.fresh(path)
        with pytest.raises(ExecutionError, match="no-such-algorithm"):
            ExperimentCampaign(spec, journal=journal).run()
        journal.close()

        errors = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line)["event"] == "trial_error"
        ]
        assert len(errors) == 1
        key, message = errors[0]["key"], errors[0]["error"]
        trial = TrialSpec(
            cell=ScenarioCell(algorithm="no-such-algorithm", size=8),
            seed_index=0,
            master_seed=0,
        )
        assert key == trial.key()
        assert "no-such-algorithm" in message


# ---------------------------------------------------------------------------
# Crash consistency: truncation at any byte offset.
# ---------------------------------------------------------------------------

#: Clean-run oracle cache: spec hash -> (csv, journal bytes).  Module
#: scoped so Hypothesis examples that redraw the same spec reuse it.
_CLEAN_RUNS: dict[str, tuple[str, bytes]] = {}


def _clean_run(spec: CampaignSpec) -> tuple[str, bytes]:
    key = spec.spec_hash()
    if key not in _CLEAN_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clean.jsonl"
            result = run_with_journal(spec, path)
            _CLEAN_RUNS[key] = (result.to_csv(), path.read_bytes())
    return _CLEAN_RUNS[key]


class TestCrashConsistency:
    @given(
        spec=campaign_specs(),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_truncating_anywhere_still_resumes_identically(self, spec, fraction):
        clean_csv, journal_bytes = _clean_run(spec)
        offset = int(len(journal_bytes) * fraction)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "torn.jsonl"
            path.write_bytes(journal_bytes[:offset])
            journal = RunJournal.resume(path)
            replays = len(journal.replay.results)
            result = ExperimentCampaign(spec, journal=journal).run()
            journal.close()
            assert journal_events(path)[-1] == "campaign_completed"
        assert result.to_csv() == clean_csv
        assert result.journal_replays == replays
        assert result.journal_replays + result.cache_misses == spec.n_trials

    @given(spec=campaign_specs(), cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_torn_tail_never_loses_finished_prefix(self, spec, cut):
        _, journal_bytes = _clean_run(spec)
        offset = max(0, len(journal_bytes) - cut)
        kept = journal_bytes[:offset]
        finished_whole_lines = sum(
            1 for line in kept.split(b"\n")[:-1] if b'"trial_finished"' in line
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "torn.jsonl"
            path.write_bytes(kept)
            replay = read_journal(path)
        assert len(replay.results) == finished_whole_lines
