"""Append-only JSONL run journals for resumable campaigns.

A run journal records everything a campaign run produces, one JSON
object per line, in the order it happened:

* ``campaign_started`` — spec hash, the full spec, trial counts (one
  per run segment; a resumed journal holds several);
* ``trial_started`` — a trial was submitted for execution;
* ``trial_finished`` — a trial's metrics landed (executed or served
  from the trial cache);
* ``trial_error`` — a trial raised; the message is recorded before the
  campaign aborts;
* ``cell_checkpoint`` — one cell's aggregate summary (mean/std/min/max
  per metric), written as each cell closes;
* ``campaign_completed`` — final counts and duration.

Every line is flushed as it is written, so a crash — SIGKILL included —
loses at most the line being appended.  The reader is correspondingly
crash-consistent: it accepts a journal truncated at *any* byte offset
by parsing complete lines until the first undecodable one and ignoring
the torn tail (``JournalReplay.valid_bytes`` marks where it starts).  A
complete line that decodes but is not a well-formed event is corruption,
not a torn tail, and raises :class:`~repro.errors.ConfigurationError`
naming the file and the line.  Resuming from a truncated
journal therefore replays exactly the trials whose ``trial_finished``
lines survived, and the engine re-executes the remainder — aggregates
come out identical to an uninterrupted run because per-trial results
are deterministic and aggregation order is fixed by the spec.

``repro campaign --journal out.jsonl`` writes one; ``repro campaign
--resume out.jsonl`` reconstructs the spec from it, replays the
finished trials, and appends the rest of the run to the same file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.campaign.spec import CampaignSpec
from repro.campaign.trial import TrialResult, TrialSpec
from repro.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.campaign.engine import CampaignResult, CellAggregate
    from repro.campaign.spec import ScenarioCell

#: Bump when the journal event schema changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1


@dataclass
class JournalReplay:
    """Everything a resume recovers from an existing journal file."""

    path: Path
    spec: CampaignSpec | None = None
    spec_hash: str | None = None
    results: dict[str, TrialResult] = field(default_factory=dict)
    started_keys: set[str] = field(default_factory=set)
    valid_bytes: int = 0


def read_journal(path: str | Path) -> JournalReplay:
    """Parse a journal, tolerating a torn tail.

    Lines parse in order until the first one that is not a complete,
    newline-terminated JSON object; that line and everything after it
    are ignored, which makes recovery insensitive to *where* a crash cut
    the file.  ``valid_bytes`` marks the end of the committed prefix —
    the writer truncates back to it before appending, so a resumed
    journal stays parseable end to end.  An event that parses but cannot
    be applied raises :class:`~repro.errors.ConfigurationError` naming
    the file and the line.
    """
    path = Path(path)
    replay = JournalReplay(path=path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read journal {path}: {exc}") from exc
    for number, line in enumerate(raw.splitlines(keepends=True), start=1):
        if not line.endswith(b"\n"):
            break  # a line the crash cut before its newline committed
        if not line.strip():
            replay.valid_bytes += len(line)
            continue
        try:
            event = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        if not isinstance(event, dict) or "event" not in event:
            break
        try:
            _apply_event(replay, event)
        except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
            detail = exc if isinstance(exc, ReproError) else repr(exc)
            raise ConfigurationError(
                f"journal {path}, line {number}: bad {event['event']!r} "
                f"event: {detail}"
            ) from exc
        replay.valid_bytes += len(line)
    return replay


def _apply_event(replay: JournalReplay, event: dict[str, Any]) -> None:
    name = event["event"]
    if name == "campaign_started":
        spec_hash = event.get("spec_hash")
        if replay.spec_hash is not None and spec_hash != replay.spec_hash:
            raise ConfigurationError(
                f"the journal mixes campaigns: spec hash {spec_hash} "
                f"after {replay.spec_hash}"
            )
        replay.spec_hash = spec_hash
        if replay.spec is None and event.get("spec") is not None:
            replay.spec = CampaignSpec.from_dict(event["spec"])
    elif name == "trial_started":
        replay.started_keys.add(event["key"])
    elif name == "trial_finished":
        result = TrialResult.from_dict(event)
        replay.results[result.key] = result
    # Other events (trial errors, checkpoints, completion, future
    # additions) carry nothing a resume needs and replay as no-ops.


class RunJournal:
    """Writer half: appends events, carrying any replayed prior state.

    Use :meth:`fresh` to start a new journal (truncates an existing
    file) and :meth:`resume` to load an existing one and append to it.
    Every event is flushed on write; checkpoints and completion are
    additionally fsynced.
    """

    def __init__(self, path: str | Path, replay: JournalReplay | None = None) -> None:
        self.path = Path(path)
        self.replay = replay if replay is not None else JournalReplay(path=self.path)
        self._fh = None

    @classmethod
    def fresh(cls, path: str | Path) -> "RunJournal":
        journal = cls(path)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal.path.write_text("")
        return journal

    @classmethod
    def resume(cls, path: str | Path) -> "RunJournal":
        path = Path(path)
        replay = read_journal(path)
        if replay.valid_bytes < path.stat().st_size:
            # Drop the torn tail so appended events stay line-aligned.
            with open(path, "r+b") as fh:
                fh.truncate(replay.valid_bytes)
        return cls(path, replay=replay)

    # -- writing ----------------------------------------------------------

    def _write(self, payload: dict[str, Any], sync: bool = False) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()
        if sync:
            os.fsync(self._fh.fileno())

    def record_started(
        self, spec: CampaignSpec, n_trials: int, n_cached: int, n_replayed: int
    ) -> None:
        spec_hash = spec.spec_hash()
        if self.replay.spec_hash is not None and spec_hash != self.replay.spec_hash:
            raise ConfigurationError(
                f"journal {self.path} belongs to spec {self.replay.spec_hash}, "
                f"refusing to append run of spec {spec_hash}"
            )
        self._write(
            {
                "event": "campaign_started",
                "schema": JOURNAL_SCHEMA_VERSION,
                "spec_hash": spec_hash,
                "spec": spec.to_dict(),
                "n_trials": n_trials,
                "n_cached": n_cached,
                "n_replayed": n_replayed,
            },
            sync=True,
        )

    def record_trial_started(self, trial: TrialSpec) -> None:
        self._write({"event": "trial_started", "key": trial.key()})

    def record_trial_finished(
        self, trial: TrialSpec, result: TrialResult, from_cache: bool
    ) -> None:
        self._write(
            {
                "event": "trial_finished",
                "key": result.key,
                "from_cache": from_cache,
                "metrics": dict(result.metrics),
            }
        )

    def record_trial_error(self, trial: TrialSpec, error: str) -> None:
        self._write({"event": "trial_error", "key": trial.key(), "error": error})

    def record_checkpoint(
        self, cell: "ScenarioCell", aggregate: "CellAggregate"
    ) -> None:
        self._write(
            {
                "event": "cell_checkpoint",
                "cell": cell.to_dict(),
                "trials": aggregate.trials,
                "metrics": {
                    name: {
                        "mean": summary.mean,
                        "std": summary.std,
                        "min": summary.minimum,
                        "max": summary.maximum,
                        "n": summary.n,
                    }
                    for name, summary in sorted(aggregate.metrics.items())
                },
            },
            sync=True,
        )

    def record_completed(self, result: "CampaignResult") -> None:
        self._write(
            {
                "event": "campaign_completed",
                "n_trials": result.n_trials,
                "cache_hits": result.cache_hits,
                "journal_replays": result.journal_replays,
                "duration_s": result.duration_s,
            },
            sync=True,
        )

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
