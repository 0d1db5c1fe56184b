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
:func:`run_pass` is the production path, which drains the whole stack
as NumPy arrays (one :func:`~repro.core.scan.scan_quadrant` over every
quadrant of every trial, affine span arithmetic, group-by via one sort)
and writes its moves straight into :class:`~repro.aod.table.ScheduleTable`
columns — the reference emits :class:`~repro.aod.move.ParallelMove`
objects.  The two are property-tested to emit bit-identical schedules.
"""

from __future__ import annotations

import enum
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

    The moves are stored as a :class:`~repro.aod.table.ScheduleTable`
    plus one tag per move; :attr:`moves` builds them as objects on
    request.  ``line_commands`` holds, per quadrant, the command count
    of every scanned line in scan order (zeros included) — the FPGA
    cycle model uses it to size the recorder/combiner token streams.
    """

    phase: Phase
    table: ScheduleTable = field(default_factory=ScheduleTable.empty)
    tags: tuple[str, ...] = ()
    n_commands: int = 0
    n_executed: int = 0
    n_skipped_stale: int = 0
    n_skipped_empty: int = 0
    n_scanned_bits: int = 0
    line_commands: dict[Quadrant, list[int]] = field(default_factory=dict)

    @property
    def moves(self) -> list[ParallelMove]:
        """The pass's moves as new objects (built on each access)."""
        return self.table.moves(self.tags)

    @property
    def n_batches(self) -> int:
        return len(self.table)

    def record_moves(self, moves: list[ParallelMove]) -> None:
        """Store the moves of a pass runner that emits objects."""
        self.table = ScheduleTable.from_moves(moves)
        self.tags = tuple(move.tag for move in moves)

    def lines_with_commands(self, quadrant: Quadrant) -> int:
        return sum(1 for n in self.line_commands.get(quadrant, []) if n)


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


#: :data:`~repro.aod.table.DIRECTIONS` codes of each phase's direction ranks.
_DIRECTION_CODES = {
    phase: np.array([DIRECTION_CODE[d] for d in _direction_order(phase)], dtype=np.int8)
    for phase in Phase
}


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
    scan_source: np.ndarray,
    merge_mirror: bool = True,
    guard: bool = False,
    scan_limit=None,
) -> list[PassOutcome]:
    """Per-line, per-command reference implementation of one pass.

    Semantically the seed scheduler: one :class:`_LineState` per line,
    drained command by command.  Kept as the oracle the vectorised
    :func:`run_pass` is property-tested against (bit-identical moves,
    tags, order, and statistics), and as the readable statement of the
    drain semantics.  Takes the same ``(trial, row, col)`` stacks as
    :func:`run_pass` and drains them trial by trial.
    """
    return [
        _run_trial_reference(
            grid, frames, phase, source, merge_mirror, guard, scan_limit
        )
        for grid, source in zip(grids, scan_source)
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


def _line_views(grids: np.ndarray, frames, phase: Phase) -> list[np.ndarray]:
    """Every quadrant of a ``(trial, row, col)`` stack as line-major views.

    One ``(trial, line, position)`` view per quadrant, in
    :data:`QUADRANT_ORDER` and quadrant-local orientation: lines are
    local rows in the row phase and local columns in the column phase.
    The views alias ``grids``, so writing through them writes the stack.
    """
    views = [frames[quadrant].local_view(grids) for quadrant in QUADRANT_ORDER]
    if phase is Phase.COLUMN:
        views = [view.swapaxes(1, 2) for view in views]
    return views


def _fold(views: list[np.ndarray]) -> np.ndarray:
    """The quadrant views as one ``(trial·quadrant·line, position)`` copy.

    Folded line ``(t * 4 + q) * n_lines + u`` is local line ``u`` of
    quadrant ``q`` of trial ``t``.  The four quadrants of an
    :class:`~repro.lattice.geometry.ArrayGeometry` share one shape, so
    their views stack.
    """
    return np.stack(views, axis=1).reshape(-1, views[0].shape[2])


def _quadrant_constants(frames, phase: Phase) -> np.ndarray:
    """Per-quadrant constants of a pass, one column per quadrant.

    Rows: the affine base and sign of the full-array line, those of the
    span axis, the rank of the inward direction in
    :func:`_direction_order`, and the :data:`QUADRANT_BATCH_RANK`.
    """
    first_direction = _direction_order(phase)[0]
    columns = []
    for quadrant in QUADRANT_ORDER:
        frame = frames[quadrant]
        row_base, row_sign, col_base, col_sign = frame.affine
        if phase is Phase.ROW:
            affine = (row_base, row_sign, col_base, col_sign)
            inward = frame.horizontal_inward
        else:
            affine = (col_base, col_sign, row_base, row_sign)
            inward = frame.vertical_inward
        rank = int(inward is not first_direction)
        columns.append((*affine, rank, QUADRANT_BATCH_RANK[quadrant]))
    return np.array(columns, dtype=np.intp).T


def _folded_limit(scan_limit, n_trials: int):
    """The ``s_en`` bound of a folded scan (see :func:`_fold`).

    Scalars apply to every line as they are; a ``{Quadrant: per-line
    bounds}`` mapping is laid out in folded line order, once per trial.
    """
    if isinstance(scan_limit, dict):
        per_trial = np.concatenate([scan_limit[q] for q in QUADRANT_ORDER])
        return np.tile(per_trial, n_trials)
    return scan_limit


def _compact(
    views: list[np.ndarray], occupancy: np.ndarray, holes: np.ndarray
) -> None:
    """Write the net effect of executing the ``holes`` through ``views``.

    ``occupancy`` and ``holes`` are folded stacks (see :func:`_fold`);
    ``holes`` marks every hole whose command executes.  A pass executes
    the commands of a line in ascending hole order, so its net effect is
    closed-form: each atom slides inward by the number of executed holes
    inboard of it, and the vacated outboard cells empty.  Executed holes
    sit on empty cells, so the inclusive running count is exact at every
    atom.  Equivalent to replaying the emitted moves one by one —
    property-tested against exactly that.
    """
    consumed = np.cumsum(holes, axis=1).ravel()
    # Flat indices: an atom never slides past its own line's start.
    atoms = np.flatnonzero(occupancy)
    compacted = np.zeros(occupancy.size, dtype=bool)
    compacted[atoms - consumed[atoms]] = True
    compacted = compacted.reshape(-1, len(views), *views[0].shape[1:])
    for index, view in enumerate(views):
        view[...] = compacted[:, index]


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


def _emit_columns(
    outcomes: list[PassOutcome],
    phase: Phase,
    merge_mirror: bool,
    extent: int,
    trial_of: np.ndarray,
    round_of: np.ndarray,
    dir_rank: np.ndarray,
    cur: np.ndarray,
    quad_rank: np.ndarray,
    line_full: np.ndarray,
    span_start: np.ndarray,
    span_stop: np.ndarray,
) -> None:
    """Order and group the given commands into each trial's move columns.

    The arrays are parallel, one entry per executed command, and
    ``trial_of`` indexes ``outcomes``; ``extent`` is the grid's longer
    side, which bounds every line, hole and round index.  The batch
    order is (trial, round, direction, :func:`batch_order_key`), with
    shifts inside one batch ascending by full-array line.  Mirror-merged
    mode drops the quadrant from the group identity, so mirror lines
    sharing a hole fuse into one move.
    The full-array line is unique within any (round, direction,
    hole[, quadrant]) group, so the keys order the commands totally and
    each trial's moves are bit-identical to emitting that trial alone.

    Each outcome receives its trial's moves as a
    :class:`~repro.aod.table.ScheduleTable` whose columns are slices of
    the pass's, plus one tag per move; each distinct tag string is built
    once and shared.  No move object is built.  Grid application is the
    caller's job (:func:`_compact`).
    """
    n = cur.size
    if not n:
        return
    keys = (trial_of, round_of, dir_rank, cur)
    if not merge_mirror:
        keys += (quad_rank,)

    # Sort by (trial, round, dir, cur[, quad], line) — one argsort over a
    # single packed int64 key when the coordinates fit the 13-bit fields
    # (any realistic trap array), falling back to the equivalent lexsort
    # otherwise.  The keys are unique (the line is unique within a
    # group), so sort kind is irrelevant.
    if extent <= 8192 and len(outcomes) <= 1 << 22:
        trial = trial_of.astype(np.int64)
        group = (((trial << 13 | round_of) << 1 | dir_rank) << 13) | cur
        if not merge_mirror:
            group = group << 2 | quad_rank
        order = np.argsort(group << 13 | line_full)
        sorted_group = group[order]
        new_move = sorted_group[1:] != sorted_group[:-1]
    else:
        order = np.lexsort((line_full,) + keys[::-1])
        new_move = np.zeros(n - 1, dtype=bool)
        for key in keys:
            sorted_key = key[order]
            new_move |= sorted_key[1:] != sorted_key[:-1]
    starts = np.flatnonzero(np.concatenate(([True], new_move)))
    first = order[starts]  # one command per move, carrying its keys

    # Tags: one (round, hole[, quadrant]) key per move; each distinct
    # tag string is built once.
    move_round = round_of[first].astype(np.int64)
    move_cur = cur[first]
    tag_key = (move_round << 31 | move_cur) << 2
    if not merge_mirror:
        tag_key |= quad_rank[first]
    distinct, inverse = _unique_keys(tag_key)
    label = phase.value
    names = [
        f"{label}-k{r}-h{h}"
        for r, h in zip(move_round[distinct].tolist(), move_cur[distinct].tolist())
    ]
    if not merge_mirror:
        names = [
            f"{name}-{_RANK_TO_QUADRANT[q].value}"
            for name, q in zip(names, quad_rank[first[distinct]].tolist())
        ]
    tags = list(map(names.__getitem__, inverse.tolist()))

    shift_direction = _DIRECTION_CODES[phase][dir_rank[order]]
    move_direction = shift_direction[starts]
    ones = np.ones(n, dtype=np.intp)  # every QRM shift moves one step
    line = line_full[order]
    start = span_start[order]
    stop = span_stop[order]

    # Trial is the outermost key, so each trial's moves and shifts are
    # contiguous runs.
    offsets = np.append(starts, n)
    bounds = np.searchsorted(trial_of[first], np.arange(len(outcomes) + 1)).tolist()
    for outcome, m0, m1 in zip(outcomes, bounds, bounds[1:]):
        if m0 == m1:
            continue
        s0, s1 = int(offsets[m0]), int(offsets[m1])
        outcome.table = ScheduleTable(
            direction=move_direction[m0:m1],
            steps=ones[: m1 - m0],
            offsets=offsets[m0 : m1 + 1] - s0,
            shift_direction=shift_direction[s0:s1],
            shift_steps=ones[s0:s1],
            line=line[s0:s1],
            span_start=start[s0:s1],
            span_stop=stop[s0:s1],
        )
        outcome.tags = tuple(tags[m0:m1])
        outcome.n_executed += s1 - s0


def run_pass(
    grids: np.ndarray,
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray,
    merge_mirror: bool = True,
    guard: bool = False,
    scan_limit=None,
) -> list[PassOutcome]:
    """Scan ``scan_source``, batch the commands, execute them on ``grids``.

    ``grids`` stacks same-geometry live occupancy grids as ``(trial,
    row, col)`` and is mutated in place; one trial is a stack of one.
    ``scan_source`` is the stack the scan reads — the live stack for a
    fresh pass, or the iteration-start snapshot for the paper's
    pipelined column pass.  ``guard=True`` enables the stale-command
    checks (hole still empty, span still populated) against the live
    grids.  ``scan_limit`` forwards the ``s_en`` bound to the scan.
    Returns one :class:`PassOutcome` per trial.

    Emits exactly the schedule of :func:`run_pass_reference` for every
    trial (bit-identical moves, tags, order, and statistics), but drains
    the whole stack as NumPy arrays.  Every quadrant of every trial is
    one block of lines of a single :func:`~repro.core.scan.scan_quadrant`
    call (see :func:`_fold`); the drain closed forms below only ever
    couple commands of one line, so they hold on the folded line axis
    unchanged.  Without the guard the entire drain order is statically
    known — every line consumes one command per round, so command ``k``
    of a line executes in round ``k`` with ``k`` earlier shifts applied.
    With the guard, each command's fate is *still* closed-form, because
    a command's stale/empty checks only ever read its own half-line,
    whose within-pass evolution is fully determined by the pass-start
    occupancy (see the derivation inline below).  Either way the pass
    reduces to one sort (:func:`_emit_columns`) and one compaction
    (:func:`_compact`).
    """
    n_trials = int(grids.shape[0])
    outcomes = [PassOutcome(phase=phase) for _ in range(n_trials)]
    live_views = _line_views(grids, frames, phase)
    source_views = (
        live_views if scan_source is grids else _line_views(scan_source, frames, phase)
    )
    n_quadrants = len(QUADRANT_ORDER)
    n_lines, n_positions = live_views[0].shape[1:]
    scan = scan_quadrant(
        _fold(source_views), 0, limit=_folded_limit(scan_limit, n_trials)
    )
    line_counts = scan.line_counts.reshape(n_trials, n_quadrants, n_lines)
    n_commands = line_counts.sum(axis=(1, 2)).tolist()
    for outcome, counts, count in zip(outcomes, line_counts.tolist(), n_commands):
        outcome.line_commands = dict(zip(QUADRANT_ORDER, counts))
        outcome.n_scanned_bits = n_quadrants * n_lines * n_positions
        outcome.n_commands = count
    if not scan.n_commands:
        return outcomes

    hole_lines = scan.hole_lines
    holes = scan.hole_positions
    # Command k of a line drains in round k; first[u] is the flat index
    # of folded line u's first command.
    first = np.cumsum(scan.line_counts) - scan.line_counts
    round_of = np.arange(holes.size) - first[hole_lines]

    if not guard:
        executed_before = round_of
        occupancy, executed = scan.lines_view, scan.holes_mask
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
        occupancy = _fold(live_views)
        # Any atom at or beyond each position: a non-stale command's own
        # cell is empty, so this reads "anything outboard" for it.
        atoms_from = np.logical_or.accumulate(occupancy[:, ::-1], axis=1)[:, ::-1]
        stale = occupancy[hole_lines, holes]
        empty = ~atoms_from[hole_lines, holes]
        skips = np.bincount(
            3 * (hole_lines // (n_quadrants * n_lines)) + stale + 2 * empty,
            minlength=3 * n_trials,
        )
        for outcome, (_, n_stale, n_empty) in zip(
            outcomes, skips.reshape(n_trials, 3).tolist()
        ):
            outcome.n_skipped_stale = n_stale
            outcome.n_skipped_empty = n_empty
        executes = ~(stale | empty)
        # Shifts executed before each command on its own line.
        done = np.cumsum(executes) - executes
        executed_before = done - done[first[hole_lines]]
        alive = np.flatnonzero(executes)
        if not alive.size:
            return outcomes
        hole_lines = hole_lines[alive]
        holes = holes[alive]
        round_of = round_of[alive]
        executed_before = executed_before[alive]
        executed = np.zeros_like(occupancy)
        executed[hole_lines, holes] = True

    folded_quadrant, line = np.divmod(hole_lines, n_lines)
    trial_of, quadrant = np.divmod(folded_quadrant, n_quadrants)
    constants = _quadrant_constants(frames, phase)[:, quadrant]
    line_base, line_sign, span_base, span_sign, dir_rank, quad_rank = constants
    cur = holes - executed_before
    a = span_base + span_sign * (cur + 1)
    b = span_base + span_sign * (n_positions - executed_before - 1)
    _emit_columns(
        outcomes,
        phase,
        merge_mirror,
        extent=max(grids.shape[1:]),
        trial_of=trial_of,
        round_of=round_of,
        dir_rank=dir_rank,
        cur=cur,
        quad_rank=quad_rank,
        line_full=line_base + line_sign * line,
        span_start=np.minimum(a, b),
        span_stop=np.maximum(a, b) + 1,
    )
    _compact(live_views, occupancy, executed)
    return outcomes
