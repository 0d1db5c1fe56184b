"""Observer protocol for campaign progress and metrics.

The engine emits structured events in domain language; implementations
may print progress, record for tests, or export metrics.  The engine
only ever calls the four methods below, always in the order
``campaign_started`` → ``trial_completed``* → ``cell_completed``* →
``campaign_completed``.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.campaign.engine import CampaignResult, CellAggregate
    from repro.campaign.spec import CampaignSpec, ScenarioCell
    from repro.campaign.trial import TrialResult, TrialSpec


class CampaignObserver(Protocol):
    """Structured events emitted while a campaign runs."""

    def campaign_started(
        self, spec: "CampaignSpec", n_trials: int, n_cached: int
    ) -> None: ...

    def trial_completed(
        self, trial: "TrialSpec", result: "TrialResult", from_cache: bool
    ) -> None: ...

    def cell_completed(
        self, cell: "ScenarioCell", aggregate: "CellAggregate"
    ) -> None: ...

    def campaign_completed(self, result: "CampaignResult") -> None: ...


class NullObserver:
    """Ignores every event (the engine default)."""

    def campaign_started(self, spec, n_trials, n_cached) -> None:
        pass

    def trial_completed(self, trial, result, from_cache) -> None:
        pass

    def cell_completed(self, cell, aggregate) -> None:
        pass

    def campaign_completed(self, result) -> None:
        pass


class ConsoleObserver:
    """Human-readable progress lines on stderr."""

    def __init__(self, stream=None, every: int = 10) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._every = max(1, every)
        self._done = 0
        self._total = 0
        self._started = 0.0

    def _emit(self, message: str) -> None:
        print(message, file=self._stream, flush=True)

    def campaign_started(self, spec, n_trials, n_cached) -> None:
        self._total = n_trials
        self._done = 0
        self._started = time.perf_counter()
        self._emit(
            f"[campaign {spec.name}] {spec.n_cells} cells x "
            f"{spec.n_seeds} seeds = {n_trials} trials "
            f"({n_cached} cached)"
        )

    def trial_completed(self, trial, result, from_cache) -> None:
        self._done += 1
        if self._done % self._every == 0 or self._done == self._total:
            elapsed = time.perf_counter() - self._started
            self._emit(
                f"[campaign] {self._done}/{self._total} trials "
                f"({elapsed:.1f}s)"
            )

    def cell_completed(self, cell, aggregate) -> None:
        self._emit(
            f"[campaign] cell done: {cell.label()} "
            f"(p_success={aggregate.success_probability:.2f})"
        )

    def campaign_completed(self, result) -> None:
        self._emit(
            f"[campaign {result.spec.name}] finished in "
            f"{result.duration_s:.1f}s — {result.cache_hits} cached, "
            f"{result.cache_misses} executed"
        )


class InterruptingObserver:
    """Raises ``KeyboardInterrupt`` after N *executed* trials complete.

    The deterministic stand-in for a SIGINT arriving mid-run: the
    engine journals each trial before notifying observers, so the
    interrupt fires at exactly the same recovery point a real signal
    between trials N and N+1 would leave behind.  Cached and replayed
    completions don't count — only freshly executed ones.  Used by the
    ``repro campaign --interrupt-after`` test hook and the CI
    interrupt/resume smoke job.
    """

    def __init__(self, after: int) -> None:
        from repro.errors import ConfigurationError

        if after < 1:
            raise ConfigurationError(f"interrupt-after must be >= 1, got {after}")
        self.after = after
        self.executed = 0

    def campaign_started(self, spec, n_trials, n_cached) -> None:
        pass

    def trial_completed(self, trial, result, from_cache) -> None:
        if from_cache:
            return
        self.executed += 1
        if self.executed >= self.after:
            raise KeyboardInterrupt(f"interrupted after {self.executed} trials")

    def cell_completed(self, cell, aggregate) -> None:
        pass

    def campaign_completed(self, result) -> None:
        pass


class CompositeObserver:
    """Fans every event out to several observers, in order."""

    def __init__(self, observers: Sequence[CampaignObserver]) -> None:
        self._observers = list(observers)

    def campaign_started(self, spec, n_trials, n_cached) -> None:
        for observer in self._observers:
            observer.campaign_started(spec, n_trials, n_cached)

    def trial_completed(self, trial, result, from_cache) -> None:
        for observer in self._observers:
            observer.trial_completed(trial, result, from_cache)

    def cell_completed(self, cell, aggregate) -> None:
        for observer in self._observers:
            observer.cell_completed(cell, aggregate)

    def campaign_completed(self, result) -> None:
        for observer in self._observers:
            observer.campaign_completed(result)
