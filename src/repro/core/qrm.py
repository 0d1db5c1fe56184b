"""The Quadrant-based Rearrangement Method — the paper's contribution.

:class:`QrmScheduler` implements Sec. III-B / IV of the paper in pure
Python:

1. split the array into four quadrants and flip each so the target corner
   sits at the quadrant-local origin (handled by the
   :class:`~repro.lattice.geometry.QuadrantFrame` transforms);
2. per iteration, run a row-wise scan pass then a column-wise scan pass
   of the shift kernel over every quadrant, batch the resulting commands
   (merging mirror quadrants), and execute them;
3. in the paper-faithful ``PIPELINED`` scan mode the column pass analyses
   the iteration-start snapshot (the transpose stream of Fig. 6), so a
   few iterations are needed — the paper uses four;
4. restore everything to full-array coordinates (the frames do this per
   command) and emit one validated :class:`~repro.aod.MoveSchedule`.

The optional repair stage (not part of the paper's QRM) fixes residual
target defects with individual atom moves; see :mod:`repro.core.repair`.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

import numpy as np

from repro.config import (
    DEFAULT_QRM_PARAMETERS,
    MASK_SCAN_LIMIT,
    QrmParameters,
    ScanMode,
)
from repro.core.passes import Phase, PassOutcome, run_pass, schedule_from_outcomes
from repro.core.result import IterationStats, RearrangementResult
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Quadrant

#: Signature of a pass implementation (run_pass / run_pass_reference).
PassRunner = Callable[..., list[PassOutcome]]


def resolve_scan_limits(
    geometry: ArrayGeometry, scan_limit
) -> dict[Phase, object]:
    """Resolve ``QrmParameters.scan_limit`` into per-phase pass arguments.

    Ints and ``None`` pass through unchanged; the ``"mask"`` sentinel
    becomes one ``{Quadrant: per-line bounds}`` mapping per phase,
    derived once from the geometry's target mask (row passes scan local
    rows, column passes scan local columns, so the two phases carry
    different line sets).
    """
    if scan_limit == MASK_SCAN_LIMIT:
        return {
            Phase.ROW: geometry.quadrant_mask_limits(axis=0),
            Phase.COLUMN: geometry.quadrant_mask_limits(axis=1),
        }
    return {Phase.ROW: scan_limit, Phase.COLUMN: scan_limit}


class QrmScheduler:
    """Compute rearrangement schedules with the quadrant method.

    One engine serves one array and a stack alike: :meth:`schedule_batch`
    stacks same-geometry arrays into one ``(trial, row, col)`` analysis
    and :meth:`schedule` is a batch of one.  ``pass_runner`` selects the
    pass implementation: the vectorised
    :func:`~repro.core.passes.run_pass` by default, or
    :func:`~repro.core.passes.run_pass_reference` for the per-command
    oracle — the perf benchmark and the bit-identity property tests run
    both and compare.  An instance holds no per-call state, so repeated
    calls on one scheduler are independent.
    """

    name = "qrm"

    def __init__(
        self,
        geometry: ArrayGeometry,
        params: QrmParameters = DEFAULT_QRM_PARAMETERS,
        pass_runner: PassRunner = run_pass,
    ):
        self.geometry = geometry
        self.params = params
        self.pass_runner = pass_runner
        self.frames = {q: geometry.quadrant_frame(q) for q in Quadrant}
        self._scan_limits = resolve_scan_limits(geometry, params.scan_limit)

    def schedule(self, array: AtomArray) -> RearrangementResult:
        """Analyse ``array`` and produce the full movement schedule."""
        return self.schedule_batch([array])[0]

    def schedule_batch(self, arrays: Iterable[AtomArray]) -> list[RearrangementResult]:
        """Analyse a stack of same-geometry arrays in one call.

        Results come back in input order, each bit-identical to
        scheduling that array alone; the stack amortises NumPy dispatch
        across trials (the software analogue of the paper's pipelined
        data path, which keeps the shift kernel busy by streaming many
        lines through one set of functional units).  ``wall_time_s`` of
        each result is the *amortised* per-trial time — the whole call's
        wall clock divided by the batch size — so batched and single
        timings stay directly comparable.
        """
        batch = list(arrays)
        if not batch:
            return []
        for array in batch:
            if array.geometry != self.geometry:
                raise ValueError(
                    "array geometry does not match the scheduler's geometry"
                )
        start = time.perf_counter()
        results = self._analyse_batch(batch)
        amortised = (time.perf_counter() - start) / len(batch)
        for result in results:
            result.wall_time_s = amortised
        return results

    def _analyse_batch(self, batch: list[AtomArray]) -> list[RearrangementResult]:
        n_trials = len(batch)
        live = np.stack([array.grid for array in batch])
        iteration_stats: list[list[IterationStats]] = [[] for _ in range(n_trials)]
        pass_records: list[list[PassOutcome]] = [[] for _ in range(n_trials)]
        converged = [False] * n_trials
        analysis_ops = [0] * n_trials
        pipelined = self.params.scan_mode is ScanMode.PIPELINED

        # Trials still iterating; a trial leaves once both passes of an
        # iteration emit zero commands.  Because every trial starts at
        # iteration 0 together and only ever *leaves*, the shared loop
        # index below equals each trial's own iteration index.
        active = np.arange(n_trials)
        for index in range(self.params.n_iterations):
            sub = live if active.size == n_trials else live[active]
            snapshot = sub.copy() if pipelined else sub

            row_outcomes = self.pass_runner(
                sub,
                self.frames,
                Phase.ROW,
                scan_source=sub,
                merge_mirror=self.params.merge_mirror_quadrants,
                guard=False,
                scan_limit=self._scan_limits[Phase.ROW],
            )
            col_outcomes = self.pass_runner(
                sub,
                self.frames,
                Phase.COLUMN,
                scan_source=snapshot,
                merge_mirror=self.params.merge_mirror_quadrants,
                guard=pipelined,
                scan_limit=self._scan_limits[Phase.COLUMN],
            )
            if sub is not live:
                live[active] = sub

            still_active: list[int] = []
            for trial, row_outcome, col_outcome in zip(
                active.tolist(), row_outcomes, col_outcomes
            ):
                pass_records[trial].extend((row_outcome, col_outcome))
                analysis_ops[trial] += (
                    row_outcome.n_scanned_bits
                    + col_outcome.n_scanned_bits
                    + row_outcome.n_commands
                    + col_outcome.n_commands
                )
                iteration_stats[trial].append(
                    IterationStats(
                        index=index,
                        n_row_commands=row_outcome.n_commands,
                        n_col_commands=col_outcome.n_commands,
                        n_row_batches=row_outcome.n_batches,
                        n_col_batches=col_outcome.n_batches,
                        n_skipped_stale=col_outcome.n_skipped_stale,
                        n_skipped_empty=(
                            row_outcome.n_skipped_empty
                            + col_outcome.n_skipped_empty
                        ),
                    )
                )
                if row_outcome.n_commands == 0 and col_outcome.n_commands == 0:
                    converged[trial] = True
                else:
                    still_active.append(trial)
            active = np.asarray(still_active, dtype=np.intp)
            if not active.size:
                break

        results: list[RearrangementResult] = []
        for trial, array in enumerate(batch):
            final = AtomArray(self.geometry, live[trial])
            repair_moves: list = []
            unresolved = 0
            if self.params.enable_repair:
                from repro.core.repair import repair_defects

                repair_outcome = repair_defects(
                    final, max_moves=self.params.max_repair_moves
                )
                repair_moves = repair_outcome.moves
                unresolved = repair_outcome.unresolved
            results.append(
                RearrangementResult(
                    algorithm=self.name,
                    initial=array.copy(),
                    final=final,
                    schedule=schedule_from_outcomes(
                        self.geometry, self.name, pass_records[trial], repair_moves
                    ),
                    iterations=iteration_stats[trial],
                    converged=converged[trial],
                    analysis_ops=analysis_ops[trial],
                    repair_moves=len(repair_moves),
                    unresolved_defects=unresolved,
                    pass_outcomes=pass_records[trial],
                )
            )
        return results
