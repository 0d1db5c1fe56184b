"""Cross-trial batched QRM scheduling engine.

PRs 2-5 vectorised every per-grid hot path, leaving NumPy *dispatch* as
the dominant cost of a single small-to-medium schedule: a 64x64 QRM
analysis issues on the order of 500 NumPy calls whose per-call fixed
overhead dwarfs the array arithmetic.  :class:`BatchQrmScheduler`
amortises that dispatch across trials — the software analogue of the
paper's pipelined FPGA data path, which keeps the shift kernel busy by
streaming many rows through one set of functional units.

The engine stacks N same-geometry occupancy grids into one 3-D
``(trial, row, col)`` array and runs the whole QRM iteration loop on the
stack: every scan cumsum, drain ``lexsort`` and gather/scatter
compaction of :func:`~repro.core.passes.run_pass` simply gains the
leading trial axis (see :func:`~repro.core.passes.run_pass_batch`), so N
trials cost one NumPy dispatch sequence instead of N.  Trials converge
independently: a trial whose row and column passes both emit zero
commands leaves the active stack while the rest keep iterating.

Per trial the emitted :class:`~repro.core.result.RearrangementResult` is
bit-identical to a single-trial :class:`~repro.core.qrm.QrmScheduler`
call — schedules, tags, move order, iteration statistics, convergence
and repair all match, which makes the single-trial path the differential
oracle for this engine (property-tested in
``tests/test_batch_equivalence.py`` per the PR 3 convention).  The one
deliberate difference is the wall-time convention: ``wall_time_s`` is
the *amortised* per-trial time, total batch wall-clock divided by N, so
batched and serial timings stay directly comparable.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from repro.config import DEFAULT_QRM_PARAMETERS, QrmParameters, ScanMode
from repro.core.passes import Phase, run_pass_batch, schedule_from_outcomes
from repro.core.result import IterationStats, RearrangementResult
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Quadrant


class BatchQrmScheduler:
    """Schedule a stack of same-geometry arrays in one batched analysis.

    The batch-first counterpart of :class:`~repro.core.qrm.QrmScheduler`
    (always the vectorised pass — the reference oracle stays
    single-trial).  An instance holds no per-call state, so repeated
    ``schedule_batch`` calls on one engine are independent.
    """

    name = "qrm"

    def __init__(
        self,
        geometry: ArrayGeometry,
        params: QrmParameters = DEFAULT_QRM_PARAMETERS,
    ):
        from repro.core.qrm import resolve_scan_limits

        self.geometry = geometry
        self.params = params
        self.frames = {q: geometry.quadrant_frame(q) for q in Quadrant}
        self._scan_limits = resolve_scan_limits(geometry, params.scan_limit)

    # -- public API --------------------------------------------------------

    def schedule(self, array: AtomArray) -> RearrangementResult:
        """Single-array convenience: a batch of one."""
        return self.schedule_batch([array])[0]

    def schedule_batch(
        self, arrays: Iterable[AtomArray]
    ) -> list[RearrangementResult]:
        """Analyse every array of the batch and emit per-trial results.

        Results are returned in input order; each carries the amortised
        per-trial wall time (total batch time / N).
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

    # -- internals ---------------------------------------------------------

    def _analyse_batch(
        self, batch: Sequence[AtomArray]
    ) -> list[RearrangementResult]:
        n_trials = len(batch)
        live = np.stack([array.grid for array in batch])
        iteration_stats: list[list[IterationStats]] = [[] for _ in range(n_trials)]
        pass_records: list[list] = [[] for _ in range(n_trials)]
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
            snapshot = sub.copy() if pipelined else None

            row_outcomes = run_pass_batch(
                sub,
                self.frames,
                Phase.ROW,
                scan_source=sub,
                merge_mirror=self.params.merge_mirror_quadrants,
                guard=False,
                scan_limit=self._scan_limits[Phase.ROW],
            )
            col_outcomes = run_pass_batch(
                sub,
                self.frames,
                Phase.COLUMN,
                scan_source=snapshot if pipelined else sub,
                merge_mirror=self.params.merge_mirror_quadrants,
                guard=pipelined,
                scan_limit=self._scan_limits[Phase.COLUMN],
            )
            if sub is not live:
                live[active] = sub

            still_active: list[int] = []
            for k, trial in enumerate(active.tolist()):
                row_outcome = row_outcomes[k]
                col_outcome = col_outcomes[k]
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
        for trial in range(n_trials):
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
                    initial=batch[trial].copy(),
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
