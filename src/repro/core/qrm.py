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
4. restore everything to full-array coordinates and emit one validated
   :class:`~repro.aod.MoveSchedule`: the passes' executed commands are
   sorted into moves once per schedule.

The optional repair stage (not part of the paper's QRM) fixes residual
target defects with individual atom moves; see :mod:`repro.core.repair`.
:class:`QrmSchedulerReference` is the per-command oracle.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.aod.schedule import MoveSchedule
from repro.aod.table import ScheduleTable
from repro.config import (
    DEFAULT_QRM_PARAMETERS,
    MASK_SCAN_LIMIT,
    QrmParameters,
    ScanMode,
)
from repro.core.passes import (
    PassOutcome,
    Phase,
    _drain,
    _emit,
    _fold,
    _lines,
    _unfold,
    _unlines,
    fold_limit,
    pass_plan,
    run_pass_reference,
    schedule_from_outcomes,
)
from repro.core.result import IterationStats, RearrangementResult, timed_schedule
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Quadrant


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
    and :meth:`schedule` is a batch of one.  The stack is folded into
    quadrant-local space once per call, and each pass drains the lines
    of its phase over that phase's :class:`~repro.core.passes.PassPlan`,
    fetched once here, and hands back its executed commands; one emitter
    call per :meth:`schedule_batch` sorts every pass of every trial into
    moves and gives each trial one table.  :class:`QrmSchedulerReference`
    is the per-command oracle the bit-identity property tests compare it
    with.  An instance holds no per-call state, so repeated calls on one
    scheduler are independent.
    """

    name = "qrm"

    def __init__(
        self,
        geometry: ArrayGeometry,
        params: QrmParameters = DEFAULT_QRM_PARAMETERS,
    ):
        self.geometry = geometry
        self.params = params
        self.frames = {q: geometry.quadrant_frame(q) for q in Quadrant}
        self._scan_limits = resolve_scan_limits(geometry, params.scan_limit)
        self._plans = {phase: pass_plan(self.frames, phase) for phase in Phase}
        # The emitter reads both plans' line constants side by side: the
        # column plan's folded lines follow the row plan's.
        self._lines = np.concatenate([plan.lines for plan in self._plans.values()], 1)
        self._line_offsets = {
            Phase.ROW: 0,
            Phase.COLUMN: self._plans[Phase.ROW].n_folded,
        }
        self._folded_limits: dict[tuple[Phase, int], object] = {}

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

    def _folded_limit(self, phase: Phase, n_trials: int):
        """The ``s_en`` bound of a folded ``phase`` scan, tiled once per size."""
        key = (phase, n_trials)
        if key not in self._folded_limits:
            limit = fold_limit(self._scan_limits[phase], n_trials)
            if isinstance(limit, np.ndarray):
                limit.flags.writeable = False  # shared by every later call
            self._folded_limits[key] = limit
        return self._folded_limits[key]

    def _analyse_batch(self, batch: list[AtomArray]) -> list[RearrangementResult]:
        n_trials = len(batch)
        live = np.stack([array.grid for array in batch])
        local = _fold(live, self.frames)  # written back once, after the loop
        outcomes: list[list[PassOutcome]] = [[] for _ in range(n_trials)]
        converged = [False] * n_trials
        pipelined = self.params.scan_mode is ScanMode.PIPELINED
        commands: list[tuple] = []  # each pass's executed commands

        # Trials still iterating; a trial leaves once both passes of an
        # iteration emit zero commands.  Because every trial starts at
        # iteration 0 together and only ever *leaves*, the shared pass
        # index (the position in ``commands``) equals each trial's own.
        active = np.arange(n_trials)
        for _ in range(self.params.n_iterations):
            subset = active.size < n_trials
            sub = local[active] if subset else local
            # The pipelined column pass scans the iteration-start columns.
            snapshot = _lines(sub, Phase.COLUMN) if pipelined else None
            passes = []
            for phase, source in ((Phase.ROW, None), (Phase.COLUMN, snapshot)):
                pass_outcomes = [PassOutcome(phase=phase) for _ in range(active.size)]
                lines, trials, line, *rest = _drain(
                    _lines(sub, phase),
                    self._plans[phase],
                    source,
                    self._folded_limit(phase, active.size),
                    pass_outcomes,
                )
                sub = _unlines(lines, phase, active.size)
                if subset:
                    trials = active[trials]
                commands.append((trials, line + self._line_offsets[phase], *rest))
                passes.append(pass_outcomes)
            if subset:
                local[active] = sub
            else:
                local = sub

            still_active: list[int] = []
            for trial, row, col in zip(active.tolist(), *passes):
                outcomes[trial] += (row, col)
                if row.n_commands or col.n_commands:
                    still_active.append(trial)
                else:
                    converged[trial] = True
            active = np.asarray(still_active, dtype=np.intp)
            if not active.size:
                break
        _unfold(local, self.frames, live)

        n_passes = len(commands)
        table, tags, bounds = _emit(
            self._lines,
            tuple(map(np.concatenate, zip(*commands))),
            np.repeat(np.arange(n_passes), [len(pass_[0]) for pass_ in commands]),
            n_trials,
            n_passes,
            self.params.merge_mirror_quadrants,
            extent=max(self.geometry.shape),
        )
        results: list[RearrangementResult] = []
        for trial, array in enumerate(batch):
            # Trial t's pass p is moves bounds[t * n_passes + p] onwards.
            first = trial * n_passes
            start, stop = bounds[first], bounds[first + n_passes]
            trial_table = table.slice(start, stop)
            trial_tags = tuple(tags[start:stop])
            for outcome, m0, m1 in zip(
                outcomes[trial], bounds[first:], bounds[first + 1 :]
            ):
                outcome.schedule_table = trial_table
                outcome.schedule_tags = trial_tags
                outcome.move_start, outcome.move_stop = m0 - start, m1 - start
            final = AtomArray(self.geometry, live[trial])
            repair_moves, unresolved = self._repair(final)
            if repair_moves:
                trial_table = ScheduleTable.concat(
                    [trial_table, ScheduleTable.from_moves(repair_moves)]
                )
                trial_tags += tuple(move.tag for move in repair_moves)
            schedule = MoveSchedule.from_table(
                self.geometry, trial_table, trial_tags, algorithm=self.name
            )
            results.append(
                self._result(
                    array,
                    final,
                    schedule,
                    outcomes[trial],
                    converged[trial],
                    repair_moves,
                    unresolved,
                )
            )
        return results

    def _repair(self, final: AtomArray) -> tuple[list, int]:
        """Run the repair stage on ``final`` in place, if it is enabled.

        Returns the repair moves and the count of unresolved defects.
        """
        if not self.params.enable_repair:
            return [], 0
        from repro.core.repair import repair_defects

        outcome = repair_defects(final)
        return outcome.moves, outcome.unresolved

    def _result(
        self,
        array: AtomArray,
        final: AtomArray,
        schedule: MoveSchedule,
        outcomes: list[PassOutcome],
        converged: bool,
        repair_moves: list,
        unresolved: int,
    ) -> RearrangementResult:
        """One trial's result from its row/column pass outcome pairs."""
        iterations = [
            IterationStats(
                index=index,
                n_row_commands=row.n_commands,
                n_col_commands=col.n_commands,
                n_row_batches=row.n_batches,
                n_col_batches=col.n_batches,
                n_skipped_stale=col.n_skipped_stale,
                n_skipped_empty=row.n_skipped_empty + col.n_skipped_empty,
            )
            for index, (row, col) in enumerate(zip(outcomes[::2], outcomes[1::2]))
        ]
        return RearrangementResult(
            algorithm=self.name,
            initial=array.copy(),
            final=final,
            schedule=schedule,
            iterations=iterations,
            converged=converged,
            analysis_ops=sum(
                outcome.n_scanned_bits + outcome.n_commands for outcome in outcomes
            ),
            repair_moves=len(repair_moves),
            unresolved_defects=unresolved,
            pass_outcomes=outcomes,
        )


class QrmSchedulerReference(QrmScheduler):
    """Per-command QRM kept as the oracle (``qrm-reference``).

    For each array and iteration it runs
    :func:`~repro.core.passes.run_pass_reference` on a stack of one —
    the row pass, then the column pass — and
    :func:`~repro.core.passes.schedule_from_outcomes` concatenates the
    pass tables, then the repair stage's moves.  :class:`QrmScheduler`
    must emit bit-identical schedules, pass outcomes and statistics for
    every array of every stack; the differential property tests enforce
    it.  :meth:`schedule_batch` loops :meth:`schedule`.
    """

    def schedule(self, array: AtomArray) -> RearrangementResult:
        return timed_schedule(lambda: self._analyse(array))

    def schedule_batch(self, arrays: Iterable[AtomArray]) -> list[RearrangementResult]:
        return [self.schedule(array) for array in arrays]

    def _analyse(self, array: AtomArray) -> RearrangementResult:
        if array.geometry != self.geometry:
            raise ValueError("array geometry does not match the scheduler's geometry")
        live = array.grid[None].copy()
        pipelined = self.params.scan_mode is ScanMode.PIPELINED
        merge = self.params.merge_mirror_quadrants
        outcomes: list[PassOutcome] = []
        converged = False
        for _ in range(self.params.n_iterations):
            snapshot = live.copy() if pipelined else None
            (row,) = run_pass_reference(
                live,
                self.frames,
                Phase.ROW,
                merge_mirror=merge,
                scan_limit=self._scan_limits[Phase.ROW],
            )
            (col,) = run_pass_reference(
                live,
                self.frames,
                Phase.COLUMN,
                scan_source=snapshot,
                merge_mirror=merge,
                scan_limit=self._scan_limits[Phase.COLUMN],
            )
            outcomes += (row, col)
            if not (row.n_commands or col.n_commands):
                converged = True
                break
        final = AtomArray(self.geometry, live[0])
        repair_moves, unresolved = self._repair(final)
        schedule = schedule_from_outcomes(
            self.geometry, self.name, outcomes, repair_moves
        )
        return self._result(
            array, final, schedule, outcomes, converged, repair_moves, unresolved
        )
