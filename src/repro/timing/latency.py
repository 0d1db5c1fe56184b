"""Latency bookkeeping helpers shared by experiments and benchmarks.

Besides the wall-clock helper :func:`measure_wall`, this module owns the
**canonical stage vocabulary** of the closed-loop data path (camera ->
detect -> schedule -> AWG -> replay).  Both sides of every latency
comparison speak it:

* the *measured* side — :class:`StageReport`, filled per frame by the
  closed-loop pipeline (:mod:`repro.pipeline`) with wall-clock
  microseconds per stage;
* the *modelled* side — the analytic hardware budgets in
  :mod:`repro.workflow.system`, whose :class:`BudgetItem` rows carry the
  same stage keys.

Keeping one vocabulary (and one unit: microseconds) is what makes
``StageReport.compare_to_budget`` a like-for-like table instead of a
string-matching exercise; ``tests/test_timing_workflow.py`` cross-checks
that every budget key is canonical.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.errors import ConfigurationError

#: Canonical closed-loop stage keys, in data-path order.  ``replay``
#: (software schedule replay / physical motion) has no counterpart in
#: the hardware *control* budgets — motion happens after the control
#: loop closes — so budget comparisons cover the first four stages.
STAGE_CAMERA = "camera"
STAGE_DETECT = "detect"
STAGE_SCHEDULE = "schedule"
STAGE_AWG = "awg"
STAGE_REPLAY = "replay"
PIPELINE_STAGES = (
    STAGE_CAMERA,
    STAGE_DETECT,
    STAGE_SCHEDULE,
    STAGE_AWG,
    STAGE_REPLAY,
)

#: Stages with an analytic counterpart in the hardware budgets.
BUDGETED_STAGES = PIPELINE_STAGES[:-1]


def measure_wall(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` once; returns (result, elapsed seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@dataclass
class StageTiming:
    """Accumulated wall time of one pipeline stage, in microseconds."""

    stage: str
    n_calls: int = 0
    total_us: float = 0.0
    best_us: float = float("inf")

    def record(self, elapsed_us: float) -> None:
        if elapsed_us < 0:
            raise ConfigurationError("elapsed_us must be >= 0")
        self.n_calls += 1
        self.total_us += elapsed_us
        self.best_us = min(self.best_us, elapsed_us)

    @property
    def mean_us(self) -> float:
        return self.total_us / self.n_calls if self.n_calls else 0.0

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "n_calls": self.n_calls,
            "total_us": self.total_us,
            "mean_us": self.mean_us,
            "best_us": self.best_us if self.n_calls else None,
        }


@dataclass
class StageReport:
    """Structured per-stage latency record of one pipeline run.

    ``wall_us`` is the end-to-end wall time of the whole run;
    :attr:`coverage` says how much of it the stage timers account for,
    and :attr:`pipeline_bound` what overlapping the stages across frames
    (the paper's streaming data path) would buy at best.  Stage keys
    come from :data:`PIPELINE_STAGES`; unknown keys raise, so the
    measured report and the analytic budgets cannot drift apart.
    """

    stages: dict[str, StageTiming] = field(default_factory=dict)
    wall_us: float = 0.0

    def record(self, stage: str, elapsed_us: float) -> None:
        if stage not in PIPELINE_STAGES:
            raise ConfigurationError(
                f"unknown pipeline stage {stage!r}; expected one of "
                f"{PIPELINE_STAGES}"
            )
        if stage not in self.stages:
            self.stages[stage] = StageTiming(stage)
        self.stages[stage].record(elapsed_us)

    @contextlib.contextmanager
    def timed(self, stage: str) -> Iterator[None]:
        """Record the wall time of the enclosed block against ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(stage, (time.perf_counter() - start) * 1e6)

    @property
    def busy_us(self) -> float:
        """Summed per-stage busy time."""
        return sum(timing.total_us for timing in self.stages.values())

    @property
    def coverage(self) -> float:
        """Busy/wall ratio: the share of wall time the stage timers saw."""
        return self.busy_us / self.wall_us if self.wall_us > 0 else 0.0

    @property
    def pipeline_bound(self) -> float:
        """Busy time over the slowest stage's: the best stage-overlap speedup.

        With every stage streaming in parallel across frames, the
        slowest stage sets the throughput, so a pipelined loop can run
        at most this many times faster than the run-to-completion one.
        """
        slowest = max((t.total_us for t in self.stages.values()), default=0.0)
        return self.busy_us / slowest if slowest > 0 else 0.0

    def ordered(self) -> list[StageTiming]:
        return [
            self.stages[key] for key in PIPELINE_STAGES if key in self.stages
        ]

    def to_dict(self) -> dict:
        return {
            "wall_us": self.wall_us,
            "busy_us": self.busy_us,
            "coverage": self.coverage,
            "pipeline_bound": self.pipeline_bound,
            "stages": [timing.to_dict() for timing in self.ordered()],
        }

    def format(self) -> str:
        lines = [
            f"stage latency (wall {self.wall_us / 1e3:.2f} ms, "
            f"coverage {self.coverage:.0%}, "
            f"pipeline bound {self.pipeline_bound:.2f}x):"
        ]
        for timing in self.ordered():
            lines.append(
                f"  {timing.stage:<10}{timing.mean_us:>12.1f} us/frame"
                f"  x{timing.n_calls:<5d}{timing.total_us / 1e3:>10.2f} ms total"
            )
        return "\n".join(lines)

    def compare_to_budget(
        self, stage_totals: Mapping[str, float], title: str
    ) -> str:
        """Measured-vs-modelled table over the shared stage vocabulary.

        ``stage_totals`` maps canonical stage keys to modelled
        microseconds (see ``LatencyBudget.stage_totals`` in
        :mod:`repro.workflow.system`); only :data:`BUDGETED_STAGES` are
        compared — ``replay`` is physical motion, not control latency.
        """
        lines = [f"measured software vs {title} (us/frame):"]
        for key in BUDGETED_STAGES:
            measured = self.stages.get(key)
            modelled = stage_totals.get(key)
            if measured is None and modelled is None:
                continue
            meas = f"{measured.mean_us:>12.1f}" if measured else " " * 12
            model = f"{modelled:>12.2f}" if modelled is not None else " " * 12
            ratio = (
                f"{measured.mean_us / modelled:>10.0f}x"
                if measured and modelled
                else ""
            )
            lines.append(f"  {key:<10}{meas}{model}{ratio}")
        return "\n".join(lines)
