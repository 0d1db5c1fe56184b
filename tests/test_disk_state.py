"""On-disk campaign state under corruption: typed errors, never crashes.

A trial-cache entry or a run-journal line can be damaged on disk (a
partial write, a hand edit, another tool's file).  Each decoder must end
in one of two typed outcomes:

* the trial cache counts a malformed entry as a miss, so the trial
  re-executes and the next ``put`` overwrites the entry;
* the journal reader raises :class:`~repro.errors.ConfigurationError`
  naming the file and the line, so ``repro campaign --resume`` exits 2
  with one ``error:`` line.

The Hypothesis suites below mutate a real cache entry and a real journal
line (dropping keys, swapping values for arbitrary JSON) and hold the
decoders to that contract.
"""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    ExperimentCampaign,
    RunJournal,
    ScenarioCell,
    TrialCache,
    TrialResult,
    TrialSpec,
    read_journal,
)
from repro.cli import main
from repro.errors import ConfigurationError

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

TRIAL = TrialSpec(cell=ScenarioCell(size=8), seed_index=0, master_seed=0)
ENTRY = TrialResult(key=TRIAL.key(), metrics={"moves": 3.0, "target_fill": 1.0})

SPEC = CampaignSpec(name="disk", algorithms=("qrm",), sizes=(8,), n_seeds=2)


@functools.cache
def clean_journal() -> tuple[str, ...]:
    """The lines of one clean single-run journal, shared by every test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        journal = RunJournal.fresh(path)
        ExperimentCampaign(SPEC, journal=journal).run()
        journal.close()
        return tuple(path.read_text().splitlines())


@st.composite
def mutated_documents(draw, document: dict) -> dict:
    """``document`` with one key dropped, or one value replaced."""
    mutated = json.loads(json.dumps(document))
    target = mutated
    if isinstance(mutated.get("spec"), dict) and draw(st.booleans()):
        target = mutated["spec"]  # a campaign_started line's spec
    keys = sorted(key for key in target if key != "event")
    key = draw(st.sampled_from(keys))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(json_values)
    return mutated


class TestTrialCacheEntries:
    @given(
        st.one_of(
            json_values,
            mutated_documents(ENTRY.to_dict()),
            st.builds(
                lambda metrics: {"key": TRIAL.key(), "metrics": metrics}, json_values
            ),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_a_malformed_entry_is_a_miss(self, document):
        with tempfile.TemporaryDirectory() as tmp:
            cache = TrialCache(tmp)
            path = cache.put(TRIAL, ENTRY)
            path.write_text(json.dumps(document))
            result = cache.get(TRIAL)
        if result is None:
            assert (cache.hits, cache.misses) == (0, 1)
        else:
            assert result.key == TRIAL.key()
            assert all(
                isinstance(value, (int, float)) for value in result.metrics.values()
            )

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"key": "%s"}' % TRIAL.key(),
            '{"key": ',
            "",
            "null",
            '{"key": "%s", "metrics": [1, 2]}' % TRIAL.key(),
            '{"key": "%s", "metrics": {"moves": "three"}}' % TRIAL.key(),
            json.dumps({"key": "0" * len(TRIAL.key()), "metrics": ENTRY.metrics}),
        ],
        ids=[
            "a-list",
            "key-without-metrics",
            "truncated",
            "empty",
            "null",
            "metrics-a-list",
            "text-metric",
            "another-trials-entry",
        ],
    )
    def test_named_corruptions_are_misses(self, tmp_path, text):
        cache = TrialCache(tmp_path)
        cache.put(TRIAL, ENTRY).write_text(text)
        assert cache.get(TRIAL) is None
        assert cache.misses == 1
        cache.put(TRIAL, ENTRY)
        assert cache.get(TRIAL) == ENTRY


class TestJournalLines:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_malformed_event_is_a_configuration_error(self, data):
        lines = list(clean_journal())
        number = data.draw(st.integers(1, len(lines)))
        event = json.loads(lines[number - 1])
        lines[number - 1] = json.dumps(data.draw(mutated_documents(event)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.jsonl"
            path.write_text("\n".join(lines) + "\n")
            try:
                replay = read_journal(path)
            except ConfigurationError as exc:
                assert f"{path}, line {number}:" in str(exc)
                return
        assert all(
            isinstance(result.key, str) and isinstance(value, (int, float))
            for result in replay.results.values()
            for value in result.metrics.values()
        )

    @pytest.mark.parametrize(
        "event, edit",
        [
            ("trial_finished", lambda event: event.pop("metrics")),
            ("campaign_started", lambda event: event["spec"].pop("name")),
            ("trial_finished", lambda event: event.pop("key")),
            ("trial_finished", lambda event: event.update(metrics=[1, 2])),
            ("trial_finished", lambda event: event["metrics"].update(moves="x")),
            ("trial_started", lambda event: event.pop("key")),
            ("campaign_started", lambda event: event.update(spec=[1, 2])),
            ("campaign_started", lambda event: event["spec"].update(sizes="ab")),
            (
                "campaign_started",
                lambda event: event["spec"].update(
                    masks=[{"kind": "ring", "params": {"outer": "x"}}]
                ),
            ),
            ("campaign_started", lambda event: event["spec"].update(targets=[12])),
        ],
        ids=[
            "finished-without-metrics",
            "spec-without-name",
            "finished-without-key",
            "metrics-a-list",
            "text-metric",
            "started-without-key",
            "spec-a-list",
            "spec-sizes-a-string",
            "spec-ring-radius-a-string",
            "spec-target-over-size",
        ],
    )
    def test_resume_exits_2_with_one_error_line(self, tmp_path, capsys, event, edit):
        lines = list(clean_journal())
        number = next(
            index
            for index, line in enumerate(lines, start=1)
            if json.loads(line)["event"] == event
        )
        damaged = json.loads(lines[number - 1])
        edit(damaged)
        lines[number - 1] = json.dumps(damaged)
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code = main(["campaign", "--resume", str(path), "--no-cache", "--quiet"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"line {number}:" in err[0]
