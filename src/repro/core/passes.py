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

Two implementations share these semantics: :func:`run_pass_reference`
is the per-line, per-command state machine kept as the behavioural
oracle, and :func:`run_pass` is the production path, which drains whole
rounds as NumPy arrays (one batched :func:`~repro.core.scan.scan_quadrant`
per quadrant, affine span arithmetic, group-by via one sort) and writes
its moves straight into :class:`~repro.aod.table.ScheduleTable` columns
— the reference emits :class:`~repro.aod.move.ParallelMove` objects.
The two are property-tested to emit bit-identical schedules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.aod.executor import apply_parallel_move
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.table import DIRECTION_CODE, ScheduleTable
from repro.core.scan import (
    LineScanResult,
    scan_axis,
    scan_quadrant,
    scan_quadrant_batch,
)
from repro.lattice.array import AtomArray
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
    array: AtomArray,
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray,
    merge_mirror: bool = True,
    guard: bool = False,
    scan_limit=None,
) -> PassOutcome:
    """Per-line, per-command reference implementation of one pass.

    Semantically the seed scheduler: one :class:`_LineState` per line,
    drained command by command.  Kept as the oracle the vectorised
    :func:`run_pass` is property-tested against (bit-identical moves,
    tags, order, and statistics), and as the readable statement of the
    drain semantics.
    """
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

    grid = array.grid
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
        if round_index > array.geometry.width + array.geometry.height:
            # Safety net: each line has at most n_positions commands.
            raise RuntimeError("pass failed to drain its command lists")

    outcome.record_moves(moves)
    return outcome


# ---------------------------------------------------------------------------
# Vectorised pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _CommandTable:
    """All pending commands of one pass as flat per-state NumPy arrays.

    One *state* is one line with at least one command.  Command ``k`` of
    every state drains in round ``k``; ``holes_flat`` holds each state's
    scanned hole positions contiguously in state order, so the flat index
    of command ``k`` of state ``s`` is ``first_of[s] + k`` — with states
    in scan order, simply ``np.repeat``/``arange`` arithmetic.  (State
    order never reaches the schedule: batches are explicitly sorted by
    round/direction/hole/line at emission.)
    """

    n_holes: np.ndarray  # commands per state
    holes_flat: np.ndarray  # concatenated scanned hole positions
    line_full: np.ndarray  # full-array line index per state
    span_base: np.ndarray  # affine base on the span axis, per state
    span_sign: np.ndarray  # affine sign on the span axis, per state
    n_positions: np.ndarray  # quadrant extent along the span axis
    dir_rank: np.ndarray  # 0/1 index into _direction_order(phase)
    quad_rank: np.ndarray  # QUADRANT_BATCH_RANK of the state's quadrant

    @property
    def n_states(self) -> int:
        return int(self.n_holes.size)


def _build_command_table(
    outcome: PassOutcome,
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray,
    scan_limit,
) -> tuple[_CommandTable | None, list]:
    """Scan all quadrants and flatten the per-line commands into arrays.

    Also returns the per-quadrant ``(frame, QuadrantScan)`` pairs so the
    unguarded drain can apply each quadrant's net compaction directly.
    """
    axis = 0 if phase is Phase.ROW else 1
    first_direction = _direction_order(phase)[0]
    chunks: list[tuple] = []
    scans: list = []
    for quadrant in QUADRANT_ORDER:
        frame = frames[quadrant]
        limit = _quadrant_limit(scan_limit, quadrant)
        scan = scan_quadrant(frame.extract(scan_source), axis, limit=limit)
        scans.append((frame, scan))
        outcome.line_commands[quadrant] = scan.line_counts.tolist()
        outcome.n_scanned_bits += scan.n_scanned_bits
        outcome.n_commands += scan.n_commands
        if not scan.n_commands:
            continue
        lines = np.nonzero(scan.line_counts)[0]
        row_base, row_sign, col_base, col_sign = frame.affine
        if phase is Phase.ROW:
            line_full = row_base + row_sign * lines
            span_base, span_sign = col_base, col_sign
            inward = frame.horizontal_inward
        else:
            line_full = col_base + col_sign * lines
            span_base, span_sign = row_base, row_sign
            inward = frame.vertical_inward
        n_states = lines.size
        chunks.append(
            (
                scan.line_counts[lines],
                scan.hole_positions,
                line_full,
                np.full(n_states, span_base),
                np.full(n_states, span_sign),
                np.full(n_states, scan.n_positions),
                np.full(n_states, 0 if inward is first_direction else 1),
                np.full(n_states, QUADRANT_BATCH_RANK[quadrant]),
            )
        )
    if not chunks:
        return None, scans
    table = _CommandTable(
        n_holes=np.concatenate([c[0] for c in chunks]),
        holes_flat=np.concatenate([c[1] for c in chunks]),
        line_full=np.concatenate([c[2] for c in chunks]),
        span_base=np.concatenate([c[3] for c in chunks]),
        span_sign=np.concatenate([c[4] for c in chunks]),
        n_positions=np.concatenate([c[5] for c in chunks]),
        dir_rank=np.concatenate([c[6] for c in chunks]),
        quad_rank=np.concatenate([c[7] for c in chunks]),
    )
    return table, scans


def _apply_net_compaction(grid: np.ndarray, frame, scan) -> None:
    """Write one quadrant's post-pass occupancy directly into ``grid``.

    An unguarded pass executes *every* scanned command of a line, so its
    net effect is closed-form: each atom slides inward by the number of
    command holes scanned below it (holes at or beyond the ``s_en``
    limit issue no command and block nothing).  Equivalent to replaying
    the emitted moves one by one — property-tested against exactly that.
    """
    local = scan.lines_view
    consumed = np.zeros(local.shape, dtype=np.intp)
    if scan.n_positions > 1:
        holes_mask = np.zeros(local.shape, dtype=bool)
        holes_mask[scan.hole_lines, scan.hole_positions] = True
        np.cumsum(holes_mask[:, :-1], axis=1, out=consumed[:, 1:])
    lines, positions = np.nonzero(local)
    compacted = np.zeros_like(local)
    compacted[lines, positions - consumed[lines, positions]] = True
    if scan.axis == 1:
        compacted = compacted.T
    frame.insert(grid, compacted)


def _apply_guarded_compaction(
    grid: np.ndarray,
    horizontal: bool,
    lines: np.ndarray,
    span_base: np.ndarray,
    span_sign: np.ndarray,
    n_positions: np.ndarray,
    hole_seg: np.ndarray,
    hole_pos: np.ndarray,
) -> None:
    """Apply a guarded pass's net effect to ``grid`` in one gather/scatter.

    ``lines``/``span_base``/``span_sign``/``n_positions`` describe the
    half-line segments (one per state with at least one executed
    command); ``hole_seg``/``hole_pos`` are the executed holes as
    (segment index, pass-start local position) pairs.  The net effect of
    a segment's executed commands is closed-form: each atom slides
    inward by the number of executed holes inboard of it, and the
    vacated outboard cells empty — the guarded analogue of
    :func:`_apply_net_compaction`, against the live occupancy instead of
    the scan source.  Segments are pairwise disjoint (one state per
    quadrant half-line), so all of them gather and scatter at once.
    """
    seg_start = np.zeros(lines.size, dtype=np.intp)
    np.cumsum(n_positions[:-1], out=seg_start[1:])
    total = int(n_positions.sum())
    seg_rep = np.repeat(np.arange(lines.size), n_positions)
    local = np.arange(total) - np.repeat(seg_start, n_positions)
    base = span_base[seg_rep]
    sign = span_sign[seg_rep]
    line_rep = lines[seg_rep]
    coord = base + sign * local
    occupancy = grid[line_rep, coord] if horizontal else grid[coord, line_rep]
    # consumed[i] = executed holes inboard of local position i.  Executed
    # holes sit on empty cells, so the inclusive cumsum is exact at every
    # atom position.
    markers = np.zeros(total, dtype=np.intp)
    markers[seg_start[hole_seg] + hole_pos] = 1
    csum = np.cumsum(markers)
    consumed = csum - (csum[seg_start] - markers[seg_start])[seg_rep]
    atoms = np.nonzero(occupancy)[0]
    new_coord = base[atoms] + sign[atoms] * (local[atoms] - consumed[atoms])
    if horizontal:
        grid[line_rep, coord] = False
        grid[line_rep[atoms], new_coord] = True
    else:
        grid[coord, line_rep] = False
        grid[new_coord, line_rep[atoms]] = True


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
    ``trial_of`` indexes ``outcomes`` (a single trial is a batch of
    one); ``extent`` is the grid's longer side, which bounds every line,
    hole and round index.  The batch order is (trial, round, direction,
    :func:`batch_order_key`), with shifts inside one batch ascending by
    full-array line.  Mirror-merged mode drops the quadrant from the
    group identity, so mirror lines sharing a hole fuse into one move.
    The full-array line is unique within any (round, direction,
    hole[, quadrant]) group, so the keys order the commands totally and
    each trial's moves are bit-identical to emitting that trial alone.

    Each outcome receives its trial's moves as a
    :class:`~repro.aod.table.ScheduleTable` whose columns are slices of
    the pass's, plus one tag per move; each distinct tag string is built
    once and shared.  No move object is built.  Grid application is the
    caller's job (net compaction or the guarded gather/scatter).
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
    array: AtomArray,
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray,
    merge_mirror: bool = True,
    guard: bool = False,
    scan_limit=None,
) -> PassOutcome:
    """Scan ``scan_source``, batch the commands, execute them on ``array``.

    ``scan_source`` is the grid the scan reads — the live grid for a
    fresh pass, or the iteration-start snapshot for the paper's pipelined
    column pass.  ``guard=True`` enables the stale-command checks (hole
    still empty, span still populated) against the live grid.
    ``scan_limit`` forwards the ``s_en`` bound to the scans.

    Vectorised implementation: emits exactly the schedule of
    :func:`run_pass_reference` (bit-identical moves, tags, and order),
    but drains whole passes as NumPy arrays.  Without the guard the
    entire drain order is statically known — every state consumes one
    command per round, so command ``k`` of a line executes in round
    ``k`` with ``k`` earlier shifts applied — and the full pass reduces
    to one sort, in the columnar emitter :func:`run_pass_batch` shares
    (a single trial is a batch of one).  With the guard, each command's
    fate is *still* closed-form, because a command's stale/empty checks
    only ever read its own half-line, whose within-pass evolution is
    fully determined by the pass-start occupancy (see the derivation
    inline below) — so guarded passes, too, apply one gather/scatter
    total instead of one per round.
    """
    outcome = PassOutcome(phase=phase)
    table, scans = _build_command_table(outcome, frames, phase, scan_source, scan_limit)
    if table is None:
        return outcome
    grid = array.grid
    horizontal = phase is Phase.ROW

    state_of = np.repeat(np.arange(table.n_states), table.n_holes)
    first_of = np.zeros(table.n_states, dtype=np.intp)
    np.cumsum(table.n_holes[:-1], out=first_of[1:])
    round_of = np.arange(state_of.size) - first_of[state_of]

    if not guard:
        # Static drain: command k of every state runs in round k with
        # executed == k, so cur/spans for the whole pass come from one
        # sweep of flat array arithmetic, and the grid jumps straight to
        # each quadrant's net compaction.
        cur = table.holes_flat - round_of
        span_base = table.span_base[state_of]
        span_sign = table.span_sign[state_of]
        a = span_base + span_sign * (cur + 1)
        b = span_base + span_sign * (table.n_positions[state_of] - round_of - 1)
        _emit_columns(
            [outcome],
            phase,
            merge_mirror,
            extent=max(grid.shape),
            trial_of=np.zeros(round_of.size, dtype=np.intp),
            round_of=round_of,
            dir_rank=table.dir_rank[state_of],
            cur=cur,
            quad_rank=table.quad_rank[state_of],
            line_full=table.line_full[state_of],
            span_start=np.minimum(a, b),
            span_stop=np.maximum(a, b) + 1,
        )
        for frame, scan in scans:
            if scan.n_commands:
                _apply_net_compaction(grid, frame, scan)
        return outcome

    # Guarded drain, closed form.  The guard of command k of a state
    # depends only on that state's own half-line at pass start: commands
    # execute in ascending scanned-hole order, so every shift executed
    # before command k deleted an empty cell *inboard* of its hole h_k
    # and appended an empty cell at the outboard end.  Hence the live
    # cell the round-k stale check reads (local h_k - executed) is the
    # pass-start cell at h_k, and the live span the empty check scans is
    # exactly the pass-start suffix beyond h_k — neither depends on the
    # round it runs in:
    #
    #   stale(k)  <=>  live-at-pass-start[h_k] occupied
    #   empty(k)  <=>  no pass-start atom outboard of h_k
    #
    # so every command's fate, its executed-before count (a per-state
    # cumulative sum of the fates), and the pass's net grid effect all
    # come from one sweep of array arithmetic — no per-round loop.
    holes = table.holes_flat
    line_full = table.line_full[state_of]
    span_base = table.span_base[state_of]
    span_sign = table.span_sign[state_of]
    n_positions = table.n_positions[state_of]

    hole_coord = span_base + span_sign * holes
    if horizontal:
        stale = grid[line_full, hole_coord]
        prefix = np.zeros((grid.shape[0], grid.shape[1] + 1), dtype=np.intp)
        np.cumsum(grid, axis=1, out=prefix[:, 1:])
    else:
        stale = grid[hole_coord, line_full]
        prefix = np.zeros((grid.shape[0] + 1, grid.shape[1]), dtype=np.intp)
        np.cumsum(grid, axis=0, out=prefix[1:, :])

    has_suffix = np.zeros(holes.size, dtype=bool)
    inner = np.nonzero(holes + 1 < n_positions)[0]
    if inner.size:
        sign = span_sign[inner]
        a = span_base[inner] + sign * (holes[inner] + 1)
        b = span_base[inner] + sign * (n_positions[inner] - 1)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        if horizontal:
            counts = prefix[line_full[inner], hi + 1] - prefix[line_full[inner], lo]
        else:
            counts = prefix[hi + 1, line_full[inner]] - prefix[lo, line_full[inner]]
        has_suffix[inner] = counts > 0

    executes = ~stale & has_suffix
    outcome.n_skipped_stale = int(np.count_nonzero(stale))
    outcome.n_skipped_empty = int(np.count_nonzero(~stale & ~has_suffix))

    # Shifts executed before command k on its own line: the exclusive
    # per-state running count of executing commands.
    inclusive = np.cumsum(executes)
    exclusive = inclusive - executes
    executed_before = exclusive - exclusive[first_of][state_of]

    alive = np.nonzero(executes)[0]
    if alive.size:
        cur = holes[alive] - executed_before[alive]
        sign = span_sign[alive]
        a = span_base[alive] + sign * (cur + 1)
        b = span_base[alive] + sign * (n_positions[alive] - executed_before[alive] - 1)
        _emit_columns(
            [outcome],
            phase,
            merge_mirror,
            extent=max(grid.shape),
            trial_of=np.zeros(alive.size, dtype=np.intp),
            round_of=round_of[alive],
            dir_rank=table.dir_rank[state_of[alive]],
            cur=cur,
            quad_rank=table.quad_rank[state_of[alive]],
            line_full=line_full[alive],
            span_start=np.minimum(a, b),
            span_stop=np.maximum(a, b) + 1,
        )
        # One gather/scatter applies the whole pass: compact each touched
        # half-line around its executed holes.
        touched = np.unique(state_of[alive])
        seg_index = np.zeros(table.n_states, dtype=np.intp)
        seg_index[touched] = np.arange(touched.size)
        _apply_guarded_compaction(
            grid,
            horizontal,
            lines=table.line_full[touched],
            span_base=table.span_base[touched],
            span_sign=table.span_sign[touched],
            n_positions=table.n_positions[touched],
            hole_seg=seg_index[state_of[alive]],
            hole_pos=holes[alive],
        )
    return outcome


# ---------------------------------------------------------------------------
# Cross-trial batched pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _BatchCommandTable(_CommandTable):
    """:class:`_CommandTable` plus the owning trial of every state.

    A state is one (trial, quadrant, line) with at least one command;
    all closed-form drain arithmetic of the single-trial pass works
    unchanged on the flattened multi-trial state list because it only
    ever couples commands of the same state.
    """

    trial_of: np.ndarray = None  # trial index per state


def _build_batch_command_table(
    outcomes: list[PassOutcome],
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray,
    scan_limit,
) -> tuple[_BatchCommandTable | None, list]:
    """Scan all quadrants of all trials and flatten into one state table.

    The batched analogue of :func:`_build_command_table`: one
    :func:`~repro.core.scan.scan_quadrant_batch` per quadrant covers
    every trial, and the per-state arrays gain a parallel ``trial_of``.
    Also returns the ``(frame, BatchQuadrantScan)`` pairs for the
    unguarded net compaction.
    """
    axis = 0 if phase is Phase.ROW else 1
    first_direction = _direction_order(phase)[0]
    chunks: list[tuple] = []
    scans: list = []
    for quadrant in QUADRANT_ORDER:
        frame = frames[quadrant]
        scan = scan_quadrant_batch(
            frame.extract_batch(scan_source),
            axis,
            limit=_quadrant_limit(scan_limit, quadrant),
        )
        scans.append((frame, scan))
        counts = scan.line_counts.tolist()
        per_trial = scan.commands_per_trial().tolist()
        n_scanned = scan.n_scanned_bits
        for trial, outcome in enumerate(outcomes):
            outcome.line_commands[quadrant] = counts[trial]
            outcome.n_scanned_bits += n_scanned
            outcome.n_commands += per_trial[trial]
        if not scan.n_commands:
            continue
        # np.nonzero order is (trial, line)-lexicographic, matching the
        # state-major layout of scan.hole_positions.
        t_states, lines = np.nonzero(scan.line_counts)
        row_base, row_sign, col_base, col_sign = frame.affine
        if phase is Phase.ROW:
            line_full = row_base + row_sign * lines
            span_base, span_sign = col_base, col_sign
            inward = frame.horizontal_inward
        else:
            line_full = col_base + col_sign * lines
            span_base, span_sign = row_base, row_sign
            inward = frame.vertical_inward
        n_states = lines.size
        chunks.append(
            (
                scan.line_counts[t_states, lines],
                scan.hole_positions,
                line_full,
                np.full(n_states, span_base),
                np.full(n_states, span_sign),
                np.full(n_states, scan.n_positions),
                np.full(n_states, 0 if inward is first_direction else 1),
                np.full(n_states, QUADRANT_BATCH_RANK[quadrant]),
                t_states,
            )
        )
    if not chunks:
        return None, scans
    table = _BatchCommandTable(
        n_holes=np.concatenate([c[0] for c in chunks]),
        holes_flat=np.concatenate([c[1] for c in chunks]),
        line_full=np.concatenate([c[2] for c in chunks]),
        span_base=np.concatenate([c[3] for c in chunks]),
        span_sign=np.concatenate([c[4] for c in chunks]),
        n_positions=np.concatenate([c[5] for c in chunks]),
        dir_rank=np.concatenate([c[6] for c in chunks]),
        quad_rank=np.concatenate([c[7] for c in chunks]),
        trial_of=np.concatenate([c[8] for c in chunks]),
    )
    return table, scans


def _apply_net_compaction_batch(grids: np.ndarray, frame, scan) -> None:
    """Batched :func:`_apply_net_compaction` over the trial axis.

    Trials whose quadrant scanned zero commands are rewritten with their
    own unchanged occupancy (consumed is identically zero there), so no
    per-trial masking is needed.
    """
    local = scan.lines_view
    consumed = np.zeros(local.shape, dtype=np.intp)
    if scan.n_positions > 1:
        np.cumsum(scan.holes_mask[:, :, :-1], axis=2, out=consumed[:, :, 1:])
    trials, lines, positions = np.nonzero(local)
    compacted = np.zeros_like(local)
    compacted[trials, lines, positions - consumed[trials, lines, positions]] = True
    if scan.axis == 1:
        compacted = compacted.transpose(0, 2, 1)
    frame.insert_batch(grids, compacted)


def _apply_guarded_compaction_batch(
    grids: np.ndarray,
    horizontal: bool,
    trials: np.ndarray,
    lines: np.ndarray,
    span_base: np.ndarray,
    span_sign: np.ndarray,
    n_positions: np.ndarray,
    hole_seg: np.ndarray,
    hole_pos: np.ndarray,
) -> None:
    """Batched :func:`_apply_guarded_compaction` over the trial axis.

    Identical gather/scatter with ``trials`` as a third coordinate:
    segments stay pairwise disjoint (one state per trial per quadrant
    half-line), so every trial's half-lines compact in the same sweep.
    """
    seg_start = np.zeros(lines.size, dtype=np.intp)
    np.cumsum(n_positions[:-1], out=seg_start[1:])
    total = int(n_positions.sum())
    seg_rep = np.repeat(np.arange(lines.size), n_positions)
    local = np.arange(total) - np.repeat(seg_start, n_positions)
    base = span_base[seg_rep]
    sign = span_sign[seg_rep]
    line_rep = lines[seg_rep]
    trial_rep = trials[seg_rep]
    coord = base + sign * local
    occupancy = (
        grids[trial_rep, line_rep, coord]
        if horizontal
        else grids[trial_rep, coord, line_rep]
    )
    markers = np.zeros(total, dtype=np.intp)
    markers[seg_start[hole_seg] + hole_pos] = 1
    csum = np.cumsum(markers)
    consumed = csum - (csum[seg_start] - markers[seg_start])[seg_rep]
    atoms = np.nonzero(occupancy)[0]
    new_coord = base[atoms] + sign[atoms] * (local[atoms] - consumed[atoms])
    if horizontal:
        grids[trial_rep, line_rep, coord] = False
        grids[trial_rep[atoms], line_rep[atoms], new_coord] = True
    else:
        grids[trial_rep, coord, line_rep] = False
        grids[trial_rep[atoms], new_coord, line_rep[atoms]] = True


def run_pass_batch(
    grids: np.ndarray,
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray,
    merge_mirror: bool = True,
    guard: bool = False,
    scan_limit=None,
) -> list[PassOutcome]:
    """One pass over a whole stack of trials, one per-trial outcome each.

    The cross-trial extension of :func:`run_pass`: ``grids`` stacks N
    same-geometry live occupancy grids as ``(trial, row, col)`` and is
    mutated in place; ``scan_source`` is the stack the scan reads (the
    live stack, or the iteration-start snapshot stack in pipelined
    mode).  Every cumsum, argsort, and gather/scatter of the
    single-trial pass simply gains the leading trial axis — the drain
    closed forms are untouched because they only ever couple commands of
    the same (trial, line) state — so N trials cost one NumPy dispatch
    sequence instead of N.  Per trial, the emitted moves, tags, order,
    and statistics are bit-identical to :func:`run_pass` on that trial
    alone (property-tested through the batch scheduler).
    """
    n_trials = int(grids.shape[0])
    outcomes = [PassOutcome(phase=phase) for _ in range(n_trials)]
    table, scans = _build_batch_command_table(
        outcomes, frames, phase, scan_source, scan_limit
    )
    if table is None:
        return outcomes
    horizontal = phase is Phase.ROW

    state_of = np.repeat(np.arange(table.n_states), table.n_holes)
    first_of = np.zeros(table.n_states, dtype=np.intp)
    np.cumsum(table.n_holes[:-1], out=first_of[1:])
    round_of = np.arange(state_of.size) - first_of[state_of]
    trial_of_cmd = table.trial_of[state_of]

    if not guard:
        cur = table.holes_flat - round_of
        span_base = table.span_base[state_of]
        span_sign = table.span_sign[state_of]
        a = span_base + span_sign * (cur + 1)
        b = span_base + span_sign * (table.n_positions[state_of] - round_of - 1)
        _emit_columns(
            outcomes,
            phase,
            merge_mirror,
            extent=max(grids.shape[1:]),
            trial_of=trial_of_cmd,
            round_of=round_of,
            dir_rank=table.dir_rank[state_of],
            cur=cur,
            quad_rank=table.quad_rank[state_of],
            line_full=table.line_full[state_of],
            span_start=np.minimum(a, b),
            span_stop=np.maximum(a, b) + 1,
        )
        for frame, scan in scans:
            if scan.n_commands:
                _apply_net_compaction_batch(grids, frame, scan)
        return outcomes

    # Guarded drain: the per-command fate closed forms of run_pass hold
    # per (trial, line) state, so the only change is the trial index on
    # every live-grid read and write.
    holes = table.holes_flat
    line_full = table.line_full[state_of]
    span_base = table.span_base[state_of]
    span_sign = table.span_sign[state_of]
    n_positions = table.n_positions[state_of]

    hole_coord = span_base + span_sign * holes
    if horizontal:
        stale = grids[trial_of_cmd, line_full, hole_coord]
        prefix = np.zeros(
            (n_trials, grids.shape[1], grids.shape[2] + 1), dtype=np.intp
        )
        np.cumsum(grids, axis=2, out=prefix[:, :, 1:])
    else:
        stale = grids[trial_of_cmd, hole_coord, line_full]
        prefix = np.zeros(
            (n_trials, grids.shape[1] + 1, grids.shape[2]), dtype=np.intp
        )
        np.cumsum(grids, axis=1, out=prefix[:, 1:, :])

    has_suffix = np.zeros(holes.size, dtype=bool)
    inner = np.nonzero(holes + 1 < n_positions)[0]
    if inner.size:
        sign = span_sign[inner]
        a = span_base[inner] + sign * (holes[inner] + 1)
        b = span_base[inner] + sign * (n_positions[inner] - 1)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        t_inner = trial_of_cmd[inner]
        if horizontal:
            counts = (
                prefix[t_inner, line_full[inner], hi + 1]
                - prefix[t_inner, line_full[inner], lo]
            )
        else:
            counts = (
                prefix[t_inner, hi + 1, line_full[inner]]
                - prefix[t_inner, lo, line_full[inner]]
            )
        has_suffix[inner] = counts > 0

    executes = ~stale & has_suffix
    stale_counts = np.bincount(trial_of_cmd[stale], minlength=n_trials)
    empty_counts = np.bincount(
        trial_of_cmd[~stale & ~has_suffix], minlength=n_trials
    )
    for trial, outcome in enumerate(outcomes):
        outcome.n_skipped_stale = int(stale_counts[trial])
        outcome.n_skipped_empty = int(empty_counts[trial])

    inclusive = np.cumsum(executes)
    exclusive = inclusive - executes
    executed_before = exclusive - exclusive[first_of][state_of]

    alive = np.nonzero(executes)[0]
    if alive.size:
        cur = holes[alive] - executed_before[alive]
        sign = span_sign[alive]
        a = span_base[alive] + sign * (cur + 1)
        b = span_base[alive] + sign * (n_positions[alive] - executed_before[alive] - 1)
        _emit_columns(
            outcomes,
            phase,
            merge_mirror,
            extent=max(grids.shape[1:]),
            trial_of=trial_of_cmd[alive],
            round_of=round_of[alive],
            dir_rank=table.dir_rank[state_of[alive]],
            cur=cur,
            quad_rank=table.quad_rank[state_of[alive]],
            line_full=line_full[alive],
            span_start=np.minimum(a, b),
            span_stop=np.maximum(a, b) + 1,
        )
        touched = np.unique(state_of[alive])
        seg_index = np.zeros(table.n_states, dtype=np.intp)
        seg_index[touched] = np.arange(touched.size)
        _apply_guarded_compaction_batch(
            grids,
            horizontal,
            trials=table.trial_of[touched],
            lines=table.line_full[touched],
            span_base=table.span_base[touched],
            span_sign=table.span_sign[touched],
            n_positions=table.n_positions[touched],
            hole_seg=seg_index[state_of[alive]],
            hole_pos=holes[alive],
        )
    return outcomes
