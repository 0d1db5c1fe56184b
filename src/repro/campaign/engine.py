"""The campaign orchestrator.

:class:`ExperimentCampaign` expands a spec into trials, serves what it
can from a resumed run journal and the trial cache, dispatches the rest
to an executor, and aggregates per-cell statistics in a fixed
(cell, seed) order — so the same spec yields bit-identical aggregates
whether trials ran serially, across a process pool, out of the cache,
or replayed from an interrupted run's journal.

The unit of dispatch is a batch: the engine groups up to
``batch_size`` consecutive same-cell pending trials and hands each
group to the executor as one call of
:func:`~repro.campaign.trial.run_trial_batch_guarded`, so
batch-capable algorithms (QRM's cross-trial engine) get a whole stack
per call; ``batch_size=1`` dispatches every trial on its own.  Cache
keys, journal records and observer events stay strictly per-trial, and
grouping never reorders the seed stream — so runs at any batch size
share cache entries and produce byte-identical aggregates.

The orchestration is deliberately free of infrastructure: executors,
cache, observer, and journal are injected behind small protocols and
default to in-process, no-cache, silent, unjournalled implementations,
so tests can substitute fakes without touching the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.stats import FillStats, Summary
from repro.analysis.tables import format_table, to_csv
from repro.campaign.cache import TrialCache
from repro.campaign.executors import CampaignExecutor, SerialExecutor
from repro.campaign.journal import RunJournal
from repro.campaign.observer import CampaignObserver, NullObserver
from repro.campaign.spec import CampaignSpec, ScenarioCell
from repro.campaign.trial import (
    TrialFailure,
    TrialResult,
    TrialSpec,
    run_trial_batch_guarded,
)
from repro.errors import ConfigurationError, ExecutionError

#: Metric column order for tables/CSV (only present metrics are shown).
METRIC_ORDER = (
    "target_fill",
    "moves",
    "iterations",
    "fpga_us",
    "fpga_cycles",
    "cpu_us",
    "survival",
    "fill_after_loss",
    "motion_ms",
    "analysis_ops",
    "skipped_stale",
    "cycles_used",
)


@dataclass(frozen=True)
class CellAggregate:
    """Per-cell summaries over all of the cell's seeded trials."""

    cell: ScenarioCell
    trials: int
    metrics: dict[str, Summary]

    def mean(self, name: str) -> float:
        try:
            return self.metrics[name].mean
        except KeyError:
            raise ConfigurationError(
                f"cell {self.cell.label()!r} has no metric '{name}'; "
                f"have {sorted(self.metrics)}"
            ) from None

    @property
    def success_probability(self) -> float:
        if "defect_free" not in self.metrics:  # zero-trial cell
            return float("nan")
        return self.mean("defect_free")


@dataclass
class CampaignResult:
    """Everything a campaign run produced."""

    spec: CampaignSpec
    aggregates: list[CellAggregate] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    journal_replays: int = 0
    duration_s: float = 0.0

    @property
    def n_trials(self) -> int:
        return sum(aggregate.trials for aggregate in self.aggregates)

    def aggregate_for(self, **cell_fields) -> CellAggregate:
        """The unique aggregate whose cell matches all given fields."""
        matches = [
            aggregate
            for aggregate in self.aggregates
            if all(
                getattr(aggregate.cell, name) == value
                for name, value in cell_fields.items()
            )
        ]
        if len(matches) != 1:
            raise ConfigurationError(
                f"{len(matches)} cells match {cell_fields!r} in campaign "
                f"'{self.spec.name}'"
            )
        return matches[0]

    def _metric_columns(self) -> list[str]:
        present: set[str] = set()
        for aggregate in self.aggregates:
            present.update(aggregate.metrics)
        ordered = [name for name in METRIC_ORDER if name in present]
        ordered.extend(sorted(present - set(ordered) - {"defect_free"}))
        return ordered

    def _headers_and_rows(self, stats: bool = False) -> tuple[list[str], list[list]]:
        """Aggregate table content.

        With ``stats=True`` every metric expands into mean/std/min/max
        columns (the full :class:`~repro.analysis.stats.Summary`);
        otherwise each metric is its mean, as the seed tables showed.
        """
        metric_names = self._metric_columns()
        headers = ["algorithm", "size", "fill", "trials", "p_success"]
        for name in metric_names:
            headers.append(name)
            if stats:
                headers += [f"{name}_std", f"{name}_min", f"{name}_max"]
        rows = []
        for aggregate in self.aggregates:
            cell = aggregate.cell
            row: list = [
                cell.algorithm,
                cell.size,
                cell.fill,
                aggregate.trials,
                aggregate.success_probability,
            ]
            for name in metric_names:
                summary = aggregate.metrics.get(name)
                if summary is None:
                    row += [""] * (4 if stats else 1)
                    continue
                row.append(summary.mean)
                if stats:
                    row += [summary.std, summary.minimum, summary.maximum]
            rows.append(row)
        return headers, rows

    def format_table(self, stats: bool = False) -> str:
        headers, rows = self._headers_and_rows(stats=stats)
        title = (
            f"Campaign '{self.spec.name}' "
            f"[{self.spec.spec_hash()}]: {self.n_trials} trials, "
            f"{self.cache_hits} cached"
        )
        return format_table(headers, rows, title=title)

    def to_csv(self, stats: bool = False) -> str:
        headers, rows = self._headers_and_rows(stats=stats)
        return to_csv(headers, rows)

    def write_csv(self, path: str | Path, stats: bool = False) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv(stats=stats) + "\n")
        return path

    def fill_stats(self) -> list[FillStats]:
        """Bridge to the legacy per-cell quality container."""
        return [
            FillStats(
                algorithm=aggregate.cell.algorithm,
                size=aggregate.cell.size,
                fill=aggregate.cell.fill,
                mean_target_fill=aggregate.mean("target_fill"),
                success_probability=aggregate.success_probability,
                mean_moves=aggregate.mean("moves"),
                trials=aggregate.trials,
            )
            for aggregate in self.aggregates
        ]


def batch_trials(
    pending: Sequence[TrialSpec], batch_size: int
) -> list[list[TrialSpec]]:
    """Group consecutive same-cell trials into batches of ``batch_size``.

    Grouping never reorders: trials stay in grid (cell, seed) order, so
    per-trial results — and therefore aggregates — are unchanged by the
    batch boundary.  A cell change always starts a new batch, because
    :func:`~repro.campaign.trial.run_trial_batch` schedules one cell's
    geometry/algorithm per call.
    """
    batches: list[list[TrialSpec]] = []
    for trial in pending:
        if (
            batches
            and len(batches[-1]) < batch_size
            and batches[-1][-1].cell == trial.cell
        ):
            batches[-1].append(trial)
        else:
            batches.append([trial])
    return batches


def aggregate_cell(cell: ScenarioCell, results: Sequence[TrialResult]) -> CellAggregate:
    """Summarise one cell's trial results (in seed order)."""
    names = sorted(results[0].metrics) if results else []
    metrics = {
        name: Summary.of([result.metrics[name] for result in results]) for name in names
    }
    return CellAggregate(cell=cell, trials=len(results), metrics=metrics)


class ExperimentCampaign:
    """Spec → grid → seeded trials → batched execution → aggregation."""

    def __init__(
        self,
        spec: CampaignSpec,
        executor: CampaignExecutor | None = None,
        cache: TrialCache | None = None,
        observer: CampaignObserver | None = None,
        journal: RunJournal | None = None,
        batch_size: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.spec = spec
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.observer = observer if observer is not None else NullObserver()
        self.journal = journal
        self.batch_size = batch_size

    def trials(self) -> list[TrialSpec]:
        """Every (cell, seed) trial, in deterministic grid order."""
        return [
            TrialSpec(
                cell=cell,
                seed_index=seed_index,
                master_seed=self.spec.master_seed,
            )
            for cell in self.spec.expand()
            for seed_index in range(self.spec.n_seeds)
        ]

    def run(self) -> CampaignResult:
        started = time.perf_counter()
        cells = self.spec.expand()
        trials = self.trials()
        keys = [trial.key() for trial in trials]

        # Timing cells bypass both the cache and the journal replay:
        # their wall-clock metrics are measurements of *this* run and
        # must never be served stale.
        results: dict[str, TrialResult] = {}
        n_replayed = 0
        if self.journal is not None:
            replay = self.journal.replay
            if (
                replay.spec_hash is not None
                and replay.spec_hash != self.spec.spec_hash()
            ):
                raise ConfigurationError(
                    f"journal {self.journal.path} records spec "
                    f"{replay.spec_hash}, not {self.spec.spec_hash()} — "
                    f"refusing to resume a different campaign"
                )
            for trial, key in zip(trials, keys):
                if trial.cell.timing:
                    continue
                replayed = replay.results.get(key)
                if replayed is not None:
                    results[key] = replayed
                    n_replayed += 1
        if self.cache is not None:
            for trial, key in zip(trials, keys):
                if trial.cell.timing or key in results:
                    continue
                cached = self.cache.get(trial)
                if cached is not None:
                    results[key] = cached
        n_cached = len(results) - n_replayed

        if self.journal is not None:
            self.journal.record_started(
                self.spec,
                n_trials=len(trials),
                n_cached=n_cached,
                n_replayed=n_replayed,
            )
        self.observer.campaign_started(
            self.spec, n_trials=len(trials), n_cached=n_cached + n_replayed
        )
        for trial, key in zip(trials, keys):
            if key in results:
                if self.journal is not None and key not in self.journal.replay.results:
                    self.journal.record_trial_finished(
                        trial, results[key], from_cache=True
                    )
                self.observer.trial_completed(trial, results[key], from_cache=True)

        pending = [trial for trial, key in zip(trials, keys) if key not in results]
        if self.journal is not None:
            # One started event per trial across all run segments: a
            # resumed journal doesn't re-announce what it already holds.
            already = self.journal.replay.started_keys
            for trial in pending:
                if trial.key() not in already:
                    self.journal.record_trial_started(trial)

        batches = batch_trials(pending, self.batch_size)
        for index, outcomes in self.executor.run(run_trial_batch_guarded, batches):
            for trial, outcome in zip(batches[index], outcomes):
                if isinstance(outcome, TrialFailure):
                    if self.journal is not None:
                        self.journal.record_trial_error(trial, outcome.error)
                    raise ExecutionError(
                        f"trial {trial.cell.label()!r} "
                        f"(seed {trial.seed_index}) failed: {outcome.error}"
                    )
                results[trial.key()] = outcome
                if self.cache is not None and not trial.cell.timing:
                    self.cache.put(trial, outcome)
                if self.journal is not None:
                    self.journal.record_trial_finished(trial, outcome, from_cache=False)
                self.observer.trial_completed(trial, outcome, from_cache=False)

        aggregates: list[CellAggregate] = []
        n_seeds = self.spec.n_seeds
        for cell_index, cell in enumerate(cells):
            cell_keys = keys[cell_index * n_seeds : (cell_index + 1) * n_seeds]
            cell_results = [results[key] for key in cell_keys]
            aggregate = aggregate_cell(cell, cell_results)
            if self.journal is not None:
                self.journal.record_checkpoint(cell, aggregate)
            self.observer.cell_completed(cell, aggregate)
            aggregates.append(aggregate)

        result = CampaignResult(
            spec=self.spec,
            aggregates=aggregates,
            cache_hits=n_cached,
            cache_misses=len(pending),
            journal_replays=n_replayed,
            duration_s=time.perf_counter() - started,
        )
        if self.journal is not None:
            self.journal.record_completed(result)
        self.observer.campaign_completed(result)
        return result


def run_campaign(
    spec: CampaignSpec,
    executor: CampaignExecutor | None = None,
    cache: TrialCache | None = None,
    observer: CampaignObserver | None = None,
    journal: RunJournal | None = None,
    batch_size: int = 1,
) -> CampaignResult:
    """One-shot convenience wrapper around :class:`ExperimentCampaign`."""
    return ExperimentCampaign(
        spec,
        executor=executor,
        cache=cache,
        observer=observer,
        journal=journal,
        batch_size=batch_size,
    ).run()
