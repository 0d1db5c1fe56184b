"""Building and executing the per-pass move batches of QRM.

A *pass* turns the scan results of all four quadrants into an ordered
list of parallel-move batches and executes them on the live grid as it
goes (the scheduler must track the true occupancy to emit a schedule
that replays cleanly).

Batching implements the paper's Row Combination Unit (Sec. IV-C):

* commands are drained round by round — round ``k`` holds every line's
  k-th pending command, mirroring the statically-known drain order of the
  four shift-command FIFOs;
* inside a round, commands sharing the *current* hole position are merged
  into one parallel move per direction, which merges the mirror quadrants
  exactly as the paper describes (NW+SW for the west-side shift, NE+SE
  for the east-side shift, and the N/S pairs in the column phase);
* a command whose hole was filled in the meantime (stale column commands
  in the pipelined scan mode) is skipped, as is a command whose span no
  longer holds any atom ("empty shifts are removed").

Two implementations share these semantics and one signature — both
run a pass over a ``(trial, row, col)`` stack of grids and return one
outcome per trial: :func:`run_pass_reference` is the per-line,
per-command state machine kept as the behavioural oracle, and
:func:`run_pass` is the production path.  It folds the stack into
quadrant-local space (:func:`_fold`), runs :func:`_drain` (one
:func:`~repro.core.scan.scan_quadrant` over every quadrant of every
trial, the guard and one compaction, all NumPy, over the geometry's
:class:`PassPlan`), writes the stack back and calls :func:`_emit`,
which sorts the executed commands straight into
:class:`~repro.aod.table.ScheduleTable` columns — the reference emits
:class:`~repro.aod.move.ParallelMove` objects.  The QRM scheduler folds
once per schedule, drains every pass on that one stack and emits them
all in one :func:`_emit` call.  The two are property-tested to emit
bit-identical schedules.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from repro.aod.executor import apply_parallel_move
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.table import DIRECTION_CODE, ScheduleTable
from repro.core.scan import LineScanResult, scan_axis, scan_quadrant
from repro.lattice.geometry import ArrayGeometry, Direction, Quadrant, QuadrantFrame


class Phase(enum.Enum):
    """Which axis a pass compresses."""

    ROW = "row"
    COLUMN = "column"


#: Deterministic quadrant order used everywhere.
QUADRANT_ORDER = (Quadrant.NW, Quadrant.NE, Quadrant.SW, Quadrant.SE)

#: Tie-break rank of quadrants inside one drain round when mirror
#: merging is off: alphabetical by quadrant code, the order the seed
#: scheduler emitted and every schedule consumer now depends on.
QUADRANT_BATCH_RANK = {
    Quadrant.NE: 0,
    Quadrant.NW: 1,
    Quadrant.SE: 2,
    Quadrant.SW: 3,
}

_RANK_TO_QUADRANT = sorted(QUADRANT_BATCH_RANK, key=QUADRANT_BATCH_RANK.get)
_PHASES = tuple(Phase)
_PHASE_LABELS = tuple(phase.value for phase in _PHASES)
_QUADRANT_LABELS = tuple(quadrant.value for quadrant in _RANK_TO_QUADRANT)


def batch_order_key(hole: int, quadrant: Quadrant | None = None) -> tuple[int, int]:
    """Stable ordering of same-direction batches within one drain round.

    Batches flush in ascending current-hole order; with per-quadrant
    batching (mirror merging off) the tie between same-side quadrants
    sharing a hole is broken by :data:`QUADRANT_BATCH_RANK`.  This is
    the single definition of the schedule order — both pass
    implementations and the regression tests use it.
    """
    rank = -1 if quadrant is None else QUADRANT_BATCH_RANK[quadrant]
    return (hole, rank)


@dataclass
class PassOutcome:
    """Statistics and moves produced by one pass.

    The pass's moves are moves ``move_start:move_stop`` of
    ``schedule_table``, with one tag per move of that table in
    ``schedule_tags``: the vectorised scheduler stores each trial's
    schedule once and every pass outcome points into it.  :attr:`table`,
    :attr:`tags` and :attr:`moves` build the pass's own slice on
    request.  ``line_commands`` holds, per quadrant, the command count
    of every scanned line in scan order (zeros included) — the FPGA
    cycle model uses it to size the recorder/combiner token streams.
    """

    phase: Phase
    n_commands: int = 0
    n_executed: int = 0
    n_skipped_stale: int = 0
    n_skipped_empty: int = 0
    n_scanned_bits: int = 0
    line_commands: dict[Quadrant, list[int]] = field(default_factory=dict)
    schedule_table: ScheduleTable = field(
        default_factory=ScheduleTable.empty, repr=False
    )
    schedule_tags: tuple[str, ...] = field(default=(), repr=False)
    move_start: int = 0
    move_stop: int = 0

    @property
    def table(self) -> ScheduleTable:
        """The pass's moves as a table of views."""
        return self.schedule_table.slice(self.move_start, self.move_stop)

    @property
    def tags(self) -> tuple[str, ...]:
        return self.schedule_tags[self.move_start : self.move_stop]

    @property
    def moves(self) -> list[ParallelMove]:
        """The pass's moves as new objects (built on each access)."""
        return self.schedule_table.moves(
            self.schedule_tags, self.move_start, self.move_stop
        )

    @property
    def n_batches(self) -> int:
        return self.move_stop - self.move_start

    def record_moves(self, moves: list[ParallelMove]) -> None:
        """Store the moves of a pass runner that emits objects."""
        self.schedule_table = ScheduleTable.from_moves(moves)
        self.schedule_tags = tuple(move.tag for move in moves)
        self.move_start, self.move_stop = 0, len(moves)


def schedule_from_outcomes(
    geometry: ArrayGeometry,
    algorithm: str,
    outcomes: list[PassOutcome],
    repair_moves: list[ParallelMove] = (),
) -> MoveSchedule:
    """The schedule of ``outcomes`` in pass order, then ``repair_moves``.

    The pass tables are concatenated once; the repair stage's move
    objects are flattened once on the way in.
    """
    tables = [outcome.table for outcome in outcomes]
    tags = [tag for outcome in outcomes for tag in outcome.tags]
    if repair_moves:
        tables.append(ScheduleTable.from_moves(repair_moves))
        tags.extend(move.tag for move in repair_moves)
    return MoveSchedule.from_table(
        geometry, ScheduleTable.concat(tables), tags, algorithm=algorithm
    )


@dataclass
class _LineState:
    """Drain state of one line's pending command list."""

    frame: QuadrantFrame
    line: int
    holes: tuple[int, ...]
    n_positions: int
    next_index: int = 0
    executed: int = 0

    @property
    def exhausted(self) -> bool:
        return self.next_index >= len(self.holes)

    @property
    def current_hole(self) -> int:
        """Scanned hole adjusted for the shifts already executed here."""
        return self.holes[self.next_index] - self.executed


def _span_to_shift(
    frame: QuadrantFrame,
    phase: Phase,
    line: int,
    cur_hole: int,
    executed: int,
    n_positions: int,
) -> LineShift:
    """Full-array line shift for one command in local coordinates.

    The moved span covers every local position outboard of the current
    hole, excluding the top ``executed`` positions which earlier shifts
    of this line are guaranteed to have vacated.
    """
    local_lo = cur_hole + 1
    local_hi = n_positions - executed  # exclusive
    row_base, row_sign, col_base, col_sign = frame.affine
    if phase is Phase.ROW:
        full_line = row_base + row_sign * line
        a = col_base + col_sign * local_lo
        b = col_base + col_sign * (local_hi - 1)
        direction = frame.horizontal_inward
    else:
        full_line = col_base + col_sign * line
        a = row_base + row_sign * local_lo
        b = row_base + row_sign * (local_hi - 1)
        direction = frame.vertical_inward
    span_start, span_stop = (a, b + 1) if a <= b else (b, a + 1)
    return LineShift(
        direction=direction,
        line=full_line,
        span_start=span_start,
        span_stop=span_stop,
        steps=1,
    )


def _hole_site(
    frame: QuadrantFrame, phase: Phase, line: int, cur_hole: int
) -> tuple[int, int]:
    """Full-array site of a command's current hole."""
    row_base, row_sign, col_base, col_sign = frame.affine
    if phase is Phase.ROW:
        return row_base + row_sign * line, col_base + col_sign * cur_hole
    return row_base + row_sign * cur_hole, col_base + col_sign * line


def _span_has_atom(
    grid: np.ndarray,
    frame: QuadrantFrame,
    phase: Phase,
    line: int,
    cur_hole: int,
    executed: int,
    n_positions: int,
) -> bool:
    """Does the command's span currently hold at least one atom?"""
    local_lo = cur_hole + 1
    local_hi = n_positions - executed
    if local_lo >= local_hi:
        return False
    row_base, row_sign, col_base, col_sign = frame.affine
    if phase is Phase.ROW:
        r = row_base + row_sign * line
        c1 = col_base + col_sign * local_lo
        c2 = col_base + col_sign * (local_hi - 1)
        lo, hi = (c1, c2) if c1 <= c2 else (c2, c1)
        return bool(grid[r, lo : hi + 1].any())
    c = col_base + col_sign * line
    r1 = row_base + row_sign * local_lo
    r2 = row_base + row_sign * (local_hi - 1)
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return bool(grid[lo : hi + 1, c].any())


def _direction_order(phase: Phase) -> tuple[Direction, Direction]:
    if phase is Phase.ROW:
        return (Direction.EAST, Direction.WEST)
    return (Direction.SOUTH, Direction.NORTH)


def _quadrant_limit(scan_limit, quadrant):
    """Resolve the ``s_en`` bound for one quadrant's scan.

    ``scan_limit`` is a scalar (or None) applied to every quadrant, or a
    ``{Quadrant: per-line bounds}`` mapping — the mask-derived per-line
    limits of :meth:`ArrayGeometry.quadrant_mask_limits`.
    """
    if isinstance(scan_limit, dict):
        return scan_limit[quadrant]
    return scan_limit


def run_pass_reference(
    grids: np.ndarray,
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray | None = None,
    merge_mirror: bool = True,
    scan_limit=None,
) -> list[PassOutcome]:
    """Per-line, per-command reference implementation of one pass.

    Semantically the seed scheduler: one :class:`_LineState` per line,
    drained command by command.  Kept as the oracle the vectorised
    :func:`run_pass` is property-tested against (bit-identical moves,
    tags, order, and statistics), and as the readable statement of the
    drain semantics.  Takes the same ``(trial, row, col)`` stacks and
    arguments as :func:`run_pass` and drains them trial by trial.
    """
    guard = scan_source is not None
    sources = grids if scan_source is None else scan_source
    return [
        _run_trial_reference(
            grid, frames, phase, source, merge_mirror, guard, scan_limit
        )
        for grid, source in zip(grids, sources)
    ]


def _run_trial_reference(
    grid: np.ndarray,
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray,
    merge_mirror: bool,
    guard: bool,
    scan_limit,
) -> PassOutcome:
    """:func:`run_pass_reference` on one trial's live grid, in place."""
    outcome = PassOutcome(phase=phase)
    axis = 0 if phase is Phase.ROW else 1
    moves: list[ParallelMove] = []

    states: list[_LineState] = []
    for quadrant in QUADRANT_ORDER:
        frame = frames[quadrant]
        local = frame.extract(scan_source)
        limit = _quadrant_limit(scan_limit, quadrant)
        scans: list[LineScanResult] = scan_axis(local, axis, limit=limit)
        n_positions = local.shape[1] if phase is Phase.ROW else local.shape[0]
        outcome.line_commands[quadrant] = [scan.n_commands for scan in scans]
        for scan in scans:
            outcome.n_scanned_bits += n_positions
            outcome.n_commands += scan.n_commands
            if scan.n_commands:
                states.append(
                    _LineState(
                        frame=frame,
                        line=scan.line,
                        holes=scan.hole_positions,
                        n_positions=n_positions,
                    )
                )

    round_index = 0
    while True:
        # Candidates for this round: every line's next pending command.
        groups: dict[tuple, list[tuple[_LineState, int]]] = {}
        pending = False
        for state in states:
            if state.exhausted:
                continue
            pending = True
            cur = state.current_hole
            if guard:
                hole_site = _hole_site(state.frame, phase, state.line, cur)
                if grid[hole_site]:
                    # A row move already filled this hole: stale command.
                    state.next_index += 1
                    outcome.n_skipped_stale += 1
                    continue
                if not _span_has_atom(
                    grid,
                    state.frame,
                    phase,
                    state.line,
                    cur,
                    state.executed,
                    state.n_positions,
                ):
                    state.next_index += 1
                    outcome.n_skipped_empty += 1
                    continue
            direction = (
                state.frame.horizontal_inward
                if phase is Phase.ROW
                else state.frame.vertical_inward
            )
            quadrant = None if merge_mirror else state.frame.quadrant
            key = (cur, direction, quadrant)
            groups.setdefault(key, []).append((state, cur))

        if not pending:
            break
        if groups:
            for direction in _direction_order(phase):
                for key in sorted(
                    (k for k in groups if k[1] is direction),
                    key=lambda k: batch_order_key(k[0], k[2]),
                ):
                    members = groups[key]
                    shifts = []
                    for state, cur in members:
                        shifts.append(
                            _span_to_shift(
                                state.frame,
                                phase,
                                state.line,
                                cur,
                                state.executed,
                                state.n_positions,
                            )
                        )
                        state.next_index += 1
                        state.executed += 1
                    shifts.sort(key=lambda s: s.line)
                    tag = f"{phase.value}-k{round_index}-h{key[0]}"
                    if key[2] is not None:
                        tag += f"-{key[2].value}"
                    move = ParallelMove.of(shifts, tag=tag)
                    apply_parallel_move(grid, move)
                    moves.append(move)
                    outcome.n_executed += len(shifts)
        round_index += 1
        if round_index > sum(grid.shape):
            # Safety net: each line has at most n_positions commands.
            raise RuntimeError("pass failed to drain its command lists")

    outcome.record_moves(moves)
    return outcome


# ---------------------------------------------------------------------------
# Vectorised pass
# ---------------------------------------------------------------------------


def _fold(stack: np.ndarray, frames: dict[Quadrant, QuadrantFrame]) -> np.ndarray:
    """``stack`` as a ``(trial, quadrant, u, v)`` copy in quadrant-local space.

    Quadrant ``q`` is the :meth:`~repro.lattice.geometry.QuadrantFrame.local_view`
    of frame ``q`` of :data:`QUADRANT_ORDER`, flips included.
    """
    return np.stack([frames[q].local_view(stack) for q in QUADRANT_ORDER], axis=1)


def _unfold(
    local: np.ndarray, frames: dict[Quadrant, QuadrantFrame], stack: np.ndarray
) -> None:
    """Write ``local`` (see :func:`_fold`) back into ``stack`` in place."""
    for index, quadrant in enumerate(QUADRANT_ORDER):
        frames[quadrant].local_view(stack)[...] = local[:, index]


def _lines(local: np.ndarray, phase: Phase) -> np.ndarray:
    """A quadrant-local stack as the contiguous folded lines of ``phase``.

    Rows are the stack itself, reshaped; columns are its ``(u, v)``
    transpose, one copy (see :class:`PassPlan` for the line order).  A
    stack that :func:`_unlines` gave as a transposed view pays that copy
    in the row phase instead.
    """
    if phase is Phase.COLUMN:
        local = local.swapaxes(2, 3)
    return local.reshape(-1, local.shape[3])


def _unlines(lines: np.ndarray, phase: Phase, n_trials: int) -> np.ndarray:
    """The ``(trial, quadrant, u, v)`` stack of ``phase`` lines, as a view."""
    local = lines.reshape(n_trials, len(QUADRANT_ORDER), -1, lines.shape[1])
    return local.swapaxes(2, 3) if phase is Phase.COLUMN else local


#: Rows of :attr:`PassPlan.lines`.
(
    _LINE,
    _SPAN_BASE,
    _SPAN_SIGN,
    _SPAN_END,
    _DIR_RANK,
    _QUAD_RANK,
    _DIR_CODE,
    _PHASE,
) = range(8)


@dataclass(frozen=True, eq=False)
class PassPlan:
    """The constants of one pass phase over one geometry, built once.

    A pass reads every quadrant of every trial as one block of *folded
    lines* (:func:`_lines`): folded line ``q * n_lines + u`` of a trial
    is local line ``u`` of quadrant ``q`` (in :data:`QUADRANT_ORDER`),
    in quadrant-local orientation — local rows in the row phase, local
    columns in the column phase.  The four quadrants of an
    :class:`~repro.lattice.geometry.ArrayGeometry` share one shape.

    ``lines`` has one column per folded line and one row per field, in
    the order of the row constants above: the full-array line, the span
    axis's affine base and sign, the span's outboard end, the rank of
    the inward direction in :func:`_direction_order`, the
    :data:`QUADRANT_BATCH_RANK`, the inward direction's
    :data:`~repro.aod.table.DIRECTIONS` code, and the phase's index in
    :class:`Phase`.
    """

    n_lines: int
    n_positions: int
    lines: np.ndarray

    @classmethod
    def build(
        cls, frames: dict[Quadrant, QuadrantFrame], phase: Phase
    ) -> PassPlan:
        frame = frames[QUADRANT_ORDER[0]]
        if phase is Phase.ROW:
            n_lines, n_positions = frame.n_rows, frame.n_cols
        else:
            n_lines, n_positions = frame.n_cols, frame.n_rows
        first_direction = _direction_order(phase)[0]
        local = np.arange(n_lines)
        columns = []
        for quadrant in QUADRANT_ORDER:
            frame = frames[quadrant]
            affine = frame.affine
            if phase is Phase.ROW:
                inward = frame.horizontal_inward
            else:
                affine = affine[2:] + affine[:2]
                inward = frame.vertical_inward
            line_base, line_sign, span_base, span_sign = affine
            constants = (
                span_base,
                span_sign,
                span_base + span_sign * (n_positions - 1),
                int(inward is not first_direction),
                QUADRANT_BATCH_RANK[quadrant],
                DIRECTION_CODE[inward],
                _PHASES.index(phase),
            )
            column = np.empty((1 + len(constants), n_lines), dtype=np.intp)
            column[_LINE] = line_base + line_sign * local
            column[1:] = np.array(constants)[:, None]
            columns.append(column)
        lines = np.concatenate(columns, axis=1)
        lines.flags.writeable = False
        return cls(n_lines, n_positions, lines)

    @property
    def n_folded(self) -> int:
        """Folded lines per trial: four quadrants of ``n_lines``."""
        return len(QUADRANT_ORDER) * self.n_lines


@functools.lru_cache(maxsize=64)
def _cached_plan(frames: tuple[QuadrantFrame, ...], phase: Phase) -> PassPlan:
    return PassPlan.build(dict(zip(QUADRANT_ORDER, frames)), phase)


def pass_plan(frames: dict[Quadrant, QuadrantFrame], phase: Phase) -> PassPlan:
    """The :class:`PassPlan` of ``phase`` over ``frames``, built once and cached."""
    return _cached_plan(tuple(frames[quadrant] for quadrant in QUADRANT_ORDER), phase)


def fold_limit(scan_limit, n_trials: int):
    """The ``s_en`` bound of a folded scan of ``n_trials`` (see :class:`PassPlan`).

    Scalars apply to every line as they are; a ``{Quadrant: per-line
    bounds}`` mapping is laid out in folded line order, once per trial.
    """
    if isinstance(scan_limit, dict):
        per_trial = np.concatenate([scan_limit[q] for q in QUADRANT_ORDER])
        return np.tile(per_trial, n_trials)
    return scan_limit


#: The commands :func:`_drain` returns for a pass that executes nothing.
_NO_COMMANDS = (np.zeros(0, dtype=np.intp),) * 5


def _drain(
    lines: np.ndarray,
    plan: PassPlan,
    snapshot: np.ndarray | None,
    limit,
    outcomes: list[PassOutcome],
) -> tuple[np.ndarray, ...]:
    """Scan, guard and compact one pass over the folded lines of a stack.

    ``lines`` are the live lines of the pass's phase (see :func:`_lines`),
    left unmodified; ``snapshot`` is None for a fresh pass, which scans
    ``lines``, or the iteration-start lines, which the scan reads
    instead: a pass over a snapshot is the guarded pass.  ``limit`` is
    the folded ``s_en`` bound (see :func:`fold_limit`); ``outcomes`` one
    fresh outcome per trial, which receive the pass's statistics.
    Returns the compacted lines (``lines`` itself if nothing executes),
    then the executed commands in scan order as five parallel arrays:
    trial, folded line, round, current hole and the shifts executed
    before it on its line.  :func:`_emit` orders them into moves.

    Every quadrant of every trial is one block of lines of a single
    :func:`~repro.core.scan.scan_quadrant` call; the drain closed forms
    below only ever couple commands of one line, so they hold on the
    folded line axis unchanged.  Without the guard the entire drain
    order is statically known — every line consumes one command per
    round, so command ``k`` of a line executes in round ``k`` with
    ``k`` earlier shifts applied.  With the guard, each command's fate
    is *still* closed-form, because a command's stale/empty checks only
    ever read its own half-line, whose within-pass evolution is fully
    determined by the pass-start occupancy (see the derivation inline
    below).  Either way the pass's grid effect is one compaction.
    """
    n_trials = len(outcomes)
    n_quadrants = len(QUADRANT_ORDER)
    n_lines, n_positions = plan.n_lines, plan.n_positions
    scan = scan_quadrant(lines if snapshot is None else snapshot, 0, limit=limit)
    line_counts = scan.line_counts.reshape(n_trials, n_quadrants, n_lines)
    n_commands = line_counts.sum(axis=(1, 2)).tolist()
    n_scanned_bits = n_quadrants * n_lines * n_positions
    for outcome, counts, count in zip(outcomes, line_counts.tolist(), n_commands):
        outcome.line_commands = dict(zip(QUADRANT_ORDER, counts))
        outcome.n_scanned_bits = n_scanned_bits
        outcome.n_commands = outcome.n_executed = count
    if not scan.n_commands:
        return lines, *_NO_COMMANDS

    hole_lines = scan.hole_lines
    holes = scan.hole_positions
    # Command k of a line drains in round k; first[u] is the flat index
    # of folded line u's first command.
    first = scan.line_counts.cumsum() - scan.line_counts
    round_of = np.arange(holes.size) - first[hole_lines]

    if snapshot is None:
        executed_before = round_of
        executed = scan.holes_mask
    else:
        # Guarded drain, closed form.  The guard of command k of a line
        # depends only on that line at pass start: commands execute in
        # ascending scanned-hole order, so every shift executed before
        # command k deleted an empty cell *inboard* of its hole h_k and
        # appended an empty cell at the outboard end.  Hence the live
        # cell the round-k stale check reads (local h_k - executed) is
        # the pass-start cell at h_k, and the live span the empty check
        # scans is exactly the pass-start suffix beyond h_k — neither
        # depends on the round it runs in:
        #
        #   stale(k)  <=>  live-at-pass-start[h_k] occupied
        #   empty(k)  <=>  no pass-start atom outboard of h_k
        #
        # so every command's fate, its executed-before count (a per-line
        # cumulative sum of the fates), and the pass's net grid effect
        # all come from one sweep of array arithmetic.
        stale = lines[hole_lines, holes]
        # Any atom at or beyond each position: a non-stale command's own
        # cell is empty, so this reads "anything outboard" for it.
        atoms_from = np.logical_or.accumulate(lines[:, ::-1], axis=1)[:, ::-1]
        empty = ~atoms_from[hole_lines, holes]
        skips = np.bincount(
            3 * (hole_lines // plan.n_folded) + stale + 2 * empty,
            minlength=3 * n_trials,
        )
        for outcome, (_, n_stale, n_empty) in zip(
            outcomes, skips.reshape(n_trials, 3).tolist()
        ):
            outcome.n_skipped_stale = n_stale
            outcome.n_skipped_empty = n_empty
            outcome.n_executed -= n_stale + n_empty
        executes = ~(stale | empty)
        # Shifts executed before each command on its own line.
        done = executes.cumsum() - executes
        executed_before = done - done[first[hole_lines]]
        alive = executes.nonzero()[0]
        if not alive.size:
            return lines, *_NO_COMMANDS
        hole_lines = hole_lines[alive]
        holes = holes[alive]
        round_of = round_of[alive]
        executed_before = executed_before[alive]
        executed = np.zeros_like(lines)
        executed[hole_lines, holes] = True

    # The net effect of executing the holes, closed form: a pass executes
    # the commands of a line in ascending hole order, so each atom slides
    # inward by the number of executed holes inboard of it, and the
    # vacated outboard cells empty.  Executed holes sit on empty cells,
    # so the inclusive running count is exact at every atom (and an atom
    # never slides past its own line's start).  Equivalent to replaying
    # the emitted moves one by one — property-tested against exactly that.
    consumed = executed.cumsum(axis=1).ravel()
    atoms = lines.ravel().nonzero()[0]
    compacted = np.zeros(lines.size, dtype=bool)
    compacted[atoms - consumed[atoms]] = True
    trial, line = np.divmod(hole_lines, plan.n_folded)
    cur = holes - executed_before
    return compacted.reshape(lines.shape), trial, line, round_of, cur, executed_before


def _unique_keys(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(packed, return_index=True, return_inverse=True)[1:]``.

    One plain argsort plus linear passes — several times cheaper than
    ``np.unique``'s bookkeeping.  The returned index points at *an*
    occurrence of each key rather than the first, which is equivalent
    here: every field the caller unpacks is fully determined by the key.
    """
    order = np.argsort(packed)
    sorted_keys = packed[order]
    boundary = np.empty(sorted_keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    inverse = np.empty(sorted_keys.size, dtype=np.intp)
    inverse[order] = np.cumsum(boundary) - 1
    return order[boundary], inverse


#: The packed sort key of :func:`_emit` holds lines, holes and rounds in
#: 13-bit fields below a (trial, pass) field; wider keys use lexsort.
_PACKED_MAX_EXTENT = 1 << 13
_PACKED_MAX_TRIAL_PASSES = 1 << 21

#: The quadrant field of a tag key whose move merges mirror quadrants.
_MERGED = 4


@functools.lru_cache(maxsize=1 << 16)
def _tag_name(key: int) -> str:
    """The tag of a move from its packed key (see :func:`_emit`).

    Tags depend only on (phase, round, hole[, quadrant]), so every
    schedule of a geometry shares one set of strings.
    """
    quadrant, phase = key & 7, key >> 3 & 1
    name = f"{_PHASE_LABELS[phase]}-k{key >> 35}-h{key >> 4 & (1 << 31) - 1}"
    if quadrant == _MERGED:
        return name
    return f"{name}-{_QUADRANT_LABELS[quadrant]}"


def _emit(
    lines: np.ndarray,
    commands: tuple[np.ndarray, ...],
    pass_of: np.ndarray,
    n_trials: int,
    n_passes: int,
    merge_mirror: bool,
    extent: int,
) -> tuple[ScheduleTable, list[str], list[int]]:
    """Order and group executed commands into one table of moves.

    ``commands`` holds the executed commands of any number of passes of
    a stack, as the arrays :func:`_drain` returns, except that the trial
    indexes the whole stack and the line indexes the columns of
    ``lines`` (the :attr:`PassPlan.lines` of the passes' plans, side by
    side); ``pass_of`` is each command's pass index.  ``extent`` is the
    grid's longer side, which bounds every line, hole and round index.

    The batch order is (trial, pass, round, direction,
    :func:`batch_order_key`), with shifts inside one batch ascending by
    full-array line.  Mirror-merged mode drops the quadrant from the
    group identity, so mirror lines sharing a hole fuse into one move.
    The full-array line is unique within any (pass, round, direction,
    hole[, quadrant]) group, so the keys order the commands totally and
    each trial's moves are bit-identical to emitting that trial's
    passes one by one.  Each distinct tag is looked up once
    (:func:`_tag_name` builds each string once per process).

    Returns the table of every move, one tag per move, and the move
    bounds: pass ``p`` of trial ``t`` is moves
    ``bounds[t * n_passes + p]:bounds[t * n_passes + p + 1]``.
    """
    trial, line, round_of, cur, executed_before = commands
    n = cur.size
    if not n:
        return ScheduleTable.empty(), [], [0] * (n_trials * n_passes + 1)
    constants = lines[:, line]
    dir_rank = constants[_DIR_RANK]
    quad_rank = constants[_QUAD_RANK]
    line_full = constants[_LINE]
    trial_pass = trial * n_passes + pass_of

    # Sort by (trial, pass, round, dir, cur[, quad], line) — one argsort
    # over a single packed int64 key when the fields fit (any realistic
    # trap array), falling back to the equivalent lexsort otherwise.
    # The keys are unique (the line is unique within a group), so sort
    # kind is irrelevant.
    packed = n_trials * n_passes <= _PACKED_MAX_TRIAL_PASSES
    if packed and extent <= _PACKED_MAX_EXTENT:
        group = (((trial_pass << 13 | round_of) << 1 | dir_rank) << 13) | cur
        if not merge_mirror:
            group = group << 2 | quad_rank
        order = np.argsort(group << 13 | line_full)
        sorted_group = group[order]
        new_move = sorted_group[1:] != sorted_group[:-1]
    else:
        keys = (trial_pass, round_of, dir_rank, cur)
        if not merge_mirror:
            keys += (quad_rank,)
        order = np.lexsort((line_full,) + keys[::-1])
        new_move = np.zeros(n - 1, dtype=bool)
        for key in keys:
            sorted_key = key[order]
            new_move |= sorted_key[1:] != sorted_key[:-1]
    starts = np.flatnonzero(np.concatenate(([True], new_move)))
    first = order[starts]  # one command per move, carrying its keys

    # Tags: one (round, hole, phase, quadrant) key per move, the quadrant
    # field 4 when mirror merging drops it; each distinct tag string is
    # looked up once.
    tag_key = (
        (round_of[first] << 31 | cur[first]) << 1 | constants[_PHASE, first]
    ) << 3 | (quad_rank[first] if not merge_mirror else _MERGED)
    distinct, inverse = _unique_keys(tag_key)
    names = list(map(_tag_name, tag_key[distinct].tolist()))
    tags = list(map(names.__getitem__, inverse.tolist()))

    # Spans: every local position outboard of the current hole, less the
    # outboard cells that earlier shifts of the line vacated.
    span_sign = constants[_SPAN_SIGN]
    a = constants[_SPAN_BASE] + span_sign * (cur + 1)
    b = constants[_SPAN_END] - span_sign * executed_before
    table = ScheduleTable(
        direction=constants[_DIR_CODE, first].astype(np.int8),
        steps=np.ones(starts.size, dtype=np.intp),  # every QRM shift moves one step
        offsets=np.append(starts, n),
        line=line_full[order],
        span_start=np.minimum(a, b)[order],
        span_stop=np.maximum(a, b)[order] + 1,
    )
    # Trial and pass are the outermost keys, so each (trial, pass)'s
    # moves are one contiguous run.
    bounds = np.searchsorted(trial_pass[first], np.arange(n_trials * n_passes + 1))
    return table, tags, bounds.tolist()


def run_pass(
    grids: np.ndarray,
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray | None = None,
    merge_mirror: bool = True,
    scan_limit=None,
) -> list[PassOutcome]:
    """Scan, batch the commands, execute them on ``grids``.

    ``grids`` stacks same-geometry live occupancy grids as ``(trial,
    row, col)`` and is mutated in place; one trial is a stack of one.
    ``scan_source`` is None for a fresh pass, which scans ``grids``, or
    the stack the scan reads instead: the iteration-start snapshot of
    the paper's pipelined column pass.  A pass over a snapshot is
    guarded — it skips the commands whose hole the live grids have
    since filled (stale) or whose span they have since emptied.
    ``scan_limit`` forwards the ``s_en`` bound to the scan.  Returns one
    :class:`PassOutcome` per trial.

    Emits exactly the schedule of :func:`run_pass_reference` for every
    trial (bit-identical moves, tags, order, and statistics), but drains
    the whole stack as NumPy arrays: one :func:`_fold`, one
    :func:`_drain` over the geometry's cached :class:`PassPlan`, the
    write-back and one :func:`_emit` — one pass of what the QRM
    scheduler does once per schedule.
    """
    n_trials = int(grids.shape[0])
    plan = pass_plan(frames, phase)
    outcomes = [PassOutcome(phase=phase) for _ in range(n_trials)]
    live, snapshot = (
        None if stack is None else _lines(_fold(stack, frames), phase)
        for stack in (grids, scan_source)
    )
    lines, *commands = _drain(
        live, plan, snapshot, fold_limit(scan_limit, n_trials), outcomes
    )
    _unfold(_unlines(lines, phase, n_trials), frames, grids)
    table, tags, bounds = _emit(
        plan.lines,
        tuple(commands),
        np.zeros(commands[0].size, dtype=np.intp),
        n_trials,
        1,
        merge_mirror,
        extent=max(grids.shape[1:]),
    )
    tags = tuple(tags)
    for outcome, start, stop in zip(outcomes, bounds, bounds[1:]):
        outcome.schedule_table = table
        outcome.schedule_tags = tags
        outcome.move_start, outcome.move_stop = start, stop
    return outcomes
