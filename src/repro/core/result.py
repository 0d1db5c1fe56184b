"""Result containers shared by every rearrangement algorithm."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.aod.schedule import MoveSchedule
from repro.lattice.array import AtomArray
from repro.lattice.metrics import defect_count, target_fill_fraction


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration accounting of a QRM run."""

    index: int
    n_row_commands: int
    n_col_commands: int
    n_row_batches: int
    n_col_batches: int
    n_skipped_stale: int
    n_skipped_empty: int

    @property
    def n_commands(self) -> int:
        return self.n_row_commands + self.n_col_commands

    @property
    def n_batches(self) -> int:
        return self.n_row_batches + self.n_col_batches


@dataclass
class RearrangementResult:
    """Everything an algorithm run produced.

    ``analysis_ops`` is an abstract operation count (scanned bits plus
    emitted commands) used by the calibrated CPU cost model;
    ``wall_time_s`` is the measured Python wall-clock of the analysis.
    """

    algorithm: str
    initial: AtomArray
    final: AtomArray
    schedule: MoveSchedule
    iterations: list[IterationStats] = field(default_factory=list)
    converged: bool = True
    analysis_ops: int = 0
    wall_time_s: float = 0.0
    repair_moves: int = 0
    unresolved_defects: int = 0
    pass_outcomes: list = field(default_factory=list, repr=False)

    @property
    def iterations_used(self) -> int:
        return len(self.iterations)

    @property
    def n_moves(self) -> int:
        return len(self.schedule)

    @property
    def target_fill_fraction(self) -> float:
        return target_fill_fraction(self.final)

    @property
    def defects(self) -> int:
        return defect_count(self.final)

    @property
    def defect_free(self) -> bool:
        return self.defects == 0

    def summary(self) -> str:
        return (
            f"{self.algorithm}: {self.n_moves} moves in "
            f"{self.iterations_used or 1} iteration(s), target fill "
            f"{self.target_fill_fraction:.1%} ({self.defects} defects), "
            f"analysis {self.wall_time_s * 1e6:.1f} us"
        )


def timed_schedule(
    analyse: Callable[[], RearrangementResult],
) -> RearrangementResult:
    """Run one scheduler analysis and stamp its wall-clock on the result.

    Every single-array scheduler measures ``wall_time_s`` through this
    one helper, so the field always covers the same span: the full
    analysis, from the first scan to the completely built result.  QRM,
    which schedules every array as part of a stack, stamps the same span
    of its whole ``schedule_batch`` call (repair included) divided by
    the batch size.
    """
    start = time.perf_counter()
    result = analyse()
    result.wall_time_s = time.perf_counter() - start
    return result
