"""Replay of move schedules on occupancy grids (lockstep semantics).

The executor is the single source of truth for what a move *does*: the
schedulers, the validator and lossy replay all apply moves through
these functions, so every replay of a schedule agrees.  Every path
first refuses a move with a shift off the move's axis or with two
shifts on one line, raising the :class:`~repro.aod.move.ParallelMove`
constructor's :class:`~repro.errors.MoveError`; only ``trusted``
bundles can hold such a move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aod.constraints import (
    AodConstraints,
    DEFAULT_CONSTRAINTS,
    Violation,
    check_parallel_move,
)
from repro.aod.move import ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.errors import MoveError
from repro.lattice.array import AtomArray


def _check_bundle(move: ParallelMove) -> None:
    """Raise the constructor's :class:`MoveError` for a shift off the
    move's axis or a line that two shifts drive."""
    horizontal = move.direction.is_horizontal
    seen = set()
    for shift in move.shifts:
        if shift.direction.is_horizontal != horizontal:
            raise MoveError(
                f"shift direction {shift.direction} differs from move "
                f"direction {move.direction}"
            )
        if shift.line in seen:
            raise MoveError(f"two shifts target the same line {shift.line}")
        seen.add(shift.line)


def apply_parallel_move_reference(grid: np.ndarray, move: ParallelMove) -> int:
    """Site-by-site reference implementation of lockstep move semantics.

    Kept as the oracle for property tests; production code uses the
    vectorised :func:`apply_parallel_move`, which must behave
    identically (including which violations raise).
    """
    _check_bundle(move)
    height, width = grid.shape
    n_lines, length = (height, width) if move.is_horizontal else (width, height)
    for shift in move.shifts:  # even a shift that selects no site
        if not (0 <= shift.line < n_lines and 0 <= shift.span_start) or (
            shift.span_stop > length
        ):
            raise MoveError(f"shift on line {shift.line} reaches outside the grid")
    sources: list[tuple[int, int]] = []
    dests: list[tuple[int, int]] = []
    source_set: set[tuple[int, int]] = set()
    for shift in move.shifts:
        for site in shift.sites():
            if grid[site]:
                dest = shift.destination(site)
                if not (0 <= dest[0] < height and 0 <= dest[1] < width):
                    raise MoveError(f"atom at {site} would leave the grid")
                sources.append(site)
                dests.append(dest)
                source_set.add(site)

    landing_seen: set[tuple[int, int]] = set()
    for site, dest in zip(sources, dests):
        if dest in landing_seen:
            raise MoveError(f"two atoms land on {dest}")
        landing_seen.add(dest)
        if grid[dest] and dest not in source_set:
            raise MoveError(f"atom from {site} collides with static atom at {dest}")

    for site in sources:
        grid[site] = False
    for dest in dests:
        grid[dest] = True
    return len(sources)


def _plan_line_shift(vec: np.ndarray, shift) -> tuple[np.ndarray, np.ndarray] | None:
    """Validate one line shift against a 1-D occupancy view.

    Returns ``(sources, destinations)`` as index arrays into ``vec``, or
    None when the span holds no atom.  The span is contiguous, so the
    lockstep rules collapse to: every destination falling outside the
    span must be empty.  Raises :class:`~repro.errors.MoveError` without
    mutating anything.
    """
    a, b = shift.span_start, shift.span_stop
    if a < 0 or b > vec.size:
        raise MoveError(f"span [{a}, {b}) outside line of length {vec.size}")
    occupied = np.nonzero(vec[a : max(a, b)])[0]  # a reversed span selects nothing
    if occupied.size == 0:
        return None
    dr, dc = shift.direction.delta
    k = shift.steps * (dr + dc)  # signed displacement along the line
    src = occupied + a
    dst = src + k
    if dst[0] < 0 or dst[-1] >= vec.size:
        raise MoveError(
            f"line {shift.line}: atoms would leave the grid "
            f"(span [{a}, {b}), steps {shift.steps})"
        )
    outside = dst[(dst < a) | (dst >= b)]
    if outside.size and vec[outside].any():
        raise MoveError(f"line {shift.line}: segment collides with a static atom")
    return src, dst


def apply_parallel_move(grid: np.ndarray, move: ParallelMove) -> int:
    """Apply ``move`` to ``grid`` in place; returns atoms displaced.

    Lockstep semantics: all selected atoms lift simultaneously, translate
    by ``steps`` sites, and land simultaneously.  A landing site must be
    empty *after* lift-off, i.e. either previously empty or itself a
    vacated source.  Violations raise :class:`~repro.errors.MoveError`
    and leave the grid untouched (all lines are validated before any is
    mutated; lines of one move are distinct, so they are independent).
    """
    _check_bundle(move)
    height, width = grid.shape
    horizontal = move.direction.is_horizontal
    planned: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for shift in move.shifts:
        if horizontal:
            if not 0 <= shift.line < height:
                raise MoveError(f"row {shift.line} outside grid")
            vec = grid[shift.line, :]
        else:
            if not 0 <= shift.line < width:
                raise MoveError(f"column {shift.line} outside grid")
            vec = grid[:, shift.line]
        plan = _plan_line_shift(vec, shift)
        if plan is not None:
            planned.append((vec, plan[0], plan[1]))

    moved = 0
    for vec, src, dst in planned:
        vec[src] = False
        vec[dst] = True
        moved += int(src.size)
    return moved


class MoveApplier:
    """Applies one schedule's moves to one grid, from its table.

    Semantically identical to calling :func:`apply_parallel_move` move by
    move (which is itself property-tested against the site-by-site
    reference), but the per-shift and per-site work happens once, up
    front, for the whole schedule: every selected site of every shift
    becomes a flat source index into ``grid`` with its flat destination,
    and every shift is checked against the grid bounds.  :meth:`apply`
    then costs one gather, one check and one scatter per move, however
    many lines the move drives.

    A move the table cannot vouch for — a shift off the move's direction,
    two shifts on one line, a shift outside the grid, a selected site whose
    destination would leave its line, or an atom landing on a static
    one — goes to :func:`apply_parallel_move` on the still-untouched
    grid, so the raised :class:`MoveError` (message, offending shift)
    is exactly the per-shift path's; that is the only place a move
    object is built.  ``grid`` must be C-contiguous (every
    :class:`AtomArray` grid is): the applier writes through a flat view
    of it.  :meth:`carry` walks atom labels along the same plan instead,
    a run of moves at a time: moves on one axis that drive distinct
    lines touch disjoint sites, so a run of them moves in one step.  The
    runs are planned only when labels are carried; :meth:`apply` and
    :func:`execute_schedule` never plan them.
    """

    def __init__(self, grid: np.ndarray, schedule: MoveSchedule) -> None:
        self.grid = grid
        self.flat = grid.reshape(-1)
        self._schedule = schedule
        table = schedule.table()
        height, width = grid.shape
        shift_move = table.shift_move
        horizontal = table.horizontal[shift_move]
        size = np.where(horizontal, width, height)
        start, stop, line = table.span_start, table.span_stop, table.line
        shift = table.shift_displacement
        lengths = np.maximum(stop - start, 0)
        in_grid = (
            (line >= 0)
            & (line < np.where(horizontal, height, width))
            & (start >= 0)
            & (stop <= size)
        )
        leaves = (lengths > 0) & ((start + shift < 0) | (stop - 1 + shift >= size))
        # A shift off its move's direction may be off its axis too.
        own = table.shift_direction != table.direction[shift_move]
        per_shift = self._shares_a_line()
        per_shift[shift_move[~in_grid | leaves | own]] = True
        self._per_shift = per_shift.tolist()
        lengths[~in_grid] = 0
        shift_sites = np.zeros(len(lengths) + 1, dtype=np.intp)
        np.cumsum(lengths, out=shift_sites[1:])
        self._site_offsets = shift_sites[table.offsets].tolist()

        # Per selected site, from its shift: flat source and destination
        # (the stride along a line differs by axis), and whether the
        # destination falls outside the shift's span — such a landing
        # site must be empty.
        stride = np.where(horizontal, 1, width)
        ramp = np.arange(shift_sites[-1]) - np.repeat(shift_sites[:-1], lengths)
        first = np.where(horizontal, line * width, line) + start * stride
        self._src = np.repeat(first, lengths) + ramp * np.repeat(stride, lengths)
        self._dst = self._src + np.repeat(shift * stride, lengths)
        landing = ramp + np.repeat(shift, lengths)
        self._outside = (landing < 0) | (landing >= np.repeat(lengths, lengths))

    def apply(self, index: int) -> np.ndarray:
        """Apply move ``index`` in place; returns its atoms' landing sites.

        Landing sites are flat indices into ``grid`` (see :attr:`flat`),
        in shift order and, within a shift, in increasing-index order —
        the order :meth:`LineShift.sites` enumerates their sources.
        """
        a, b = self._site_offsets[index], self._site_offsets[index + 1]
        src = self._src[a:b]
        dst = self._dst[a:b]
        flat = self.flat
        occupied = flat[src]
        landing = dst[occupied]
        if self._per_shift[index] or (occupied & self._outside[a:b] & flat[dst]).any():
            apply_parallel_move(self.grid, self._schedule[index])
        else:
            flat[src[occupied]] = False
            flat[landing] = True
        return landing

    def carry(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Carry atom labels through every move in place; returns what moves carry.

        ``labels`` is an int grid of the applier's shape holding an
        atom's label on each occupied site and -1 on each empty one (the
        applier's own grid is never written).  Labels move along the
        per-site plan :meth:`apply` uses.  The result is ``(carried,
        moves)``: the label of every atom a move carries and the index of
        that move, in walk order — move by move and, within a move, in
        the order :meth:`apply` returns their landing sites.  An invalid
        move raises the :class:`MoveError` :meth:`apply` raises on the
        same occupancy.

        Labels move one run at a time (:meth:`_runs`).  Consecutive moves
        on one axis that drive distinct lines touch disjoint sites, so
        they commute, and a run of them costs one gather, one clear and
        one scatter, however many moves it holds.  Every gather lands in
        one walk-order array of the plan's sites, from which the carried
        labels are read once the walk ends.

        Collisions are checked once, after the walk.  On a move whose
        lines are distinct and inside the grid the only invalid landing
        is onto a static atom, which overwrites that atom's label; labels
        are never created, so a walk that ends with as many labels as it
        began saw no collision.  A move that breaks the lockstep contract
        or leaves the grid is a run of its own, checked as it comes.  A
        walk that lost a label is redone move by move with every move
        checked, which raises the first error.
        """
        flat = labels.reshape(-1)
        start = flat.copy()
        walk = np.empty(self._src.size, dtype=flat.dtype)
        offsets = self._site_offsets
        try:
            self._walk(flat, walk, self._runs())
            lost = np.count_nonzero(flat >= 0) != np.count_nonzero(start >= 0)
        except MoveError:
            lost = True
        if lost:
            flat[:] = start
            self._walk(flat, walk, zip(offsets, offsets[1:], range(len(offsets) - 1)))
        hit = (walk >= 0).nonzero()[0]
        moves = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        return walk[hit], moves[hit]

    def _runs(self) -> list[tuple[int, int, int | None]]:
        """The runs :meth:`carry` walks, as ``(first site, stop site, move)``.

        A run is a maximal stretch of consecutive moves on one axis that
        drive distinct lines: it ends where the axis changes and before
        a move that drives a line the run already drives.  A move
        :meth:`apply` cannot vouch for is a run of its own, whose
        ``move`` is its index, to be checked; every other run's is None.
        """
        table = self._schedule.table()
        n_moves = len(table)
        if not n_moves:
            return []
        horizontal = table.horizontal
        flagged = np.array(self._per_shift)
        # Per move, the last earlier move on its axis that drives one of
        # its lines (-1 for none).  A stable sort by (line, axis) keeps
        # each line's shifts in move order; lines outside the grid (only
        # flagged moves have them) clip to keep the key small.
        shift_move = table.shift_move
        n_lines = max(self.grid.shape)
        key = (np.clip(table.line, -1, n_lines) + 1) * 2 + horizontal[shift_move]
        key = key.astype(np.min_scalar_type(2 * n_lines + 3))
        order = np.argsort(key, kind="stable")
        mover, key = shift_move[order], key[order]
        again = key[1:] == key[:-1]
        previous = np.full(n_moves, -1)
        np.maximum.at(previous, mover[1:][again], mover[:-1][again])
        # A flagged move, the move after it and an axis change always
        # start a run: they conflict with themselves.
        breaks = flagged.copy()
        breaks[1:] |= flagged[:-1] | (horizontal[1:] != horizontal[:-1])
        previous = np.where(breaks, np.arange(n_moves), previous)
        starts = [0]
        for move, last in enumerate(previous[1:].tolist(), start=1):
            if last >= starts[-1]:
                starts.append(move)
        offsets = self._site_offsets
        return [
            (offsets[first], offsets[stop], first if self._per_shift[first] else None)
            for first, stop in zip(starts, starts[1:] + [n_moves])
        ]

    def _walk(self, flat: np.ndarray, walk: np.ndarray, runs) -> None:
        """Carry ``flat``'s labels along ``runs``, gathering into ``walk``.

        ``runs`` yields ``(first site, stop site, move)``: the sites'
        labels are gathered into ``walk`` at the sites' plan positions
        and lifted, and the carried ones land on their destinations.  A
        run whose ``move`` is not None is that one move, checked first.
        """
        src_all, dst_all, outside = self._src, self._dst, self._outside
        for a, b, check in runs:
            src = src_all[a:b]
            moving = flat[src]
            # Index arrays, not masks: a sparse mask indexes far slower.
            hit = (moving >= 0).nonzero()[0]
            landing = dst_all[a:b][hit]
            if check is not None and (
                self._per_shift[check]
                or (outside[a:b][hit] & (flat[landing] >= 0)).any()
            ):
                grid = (flat >= 0).reshape(self.grid.shape)
                apply_parallel_move(grid, self._schedule[check])
            walk[a:b] = moving
            flat[src] = -1  # unoccupied sources are -1 already
            flat[landing] = moving[hit]

    def _shares_a_line(self) -> np.ndarray:
        """Per move: whether two of its shifts drive the same line."""
        table = self._schedule.table()
        n_lines = max(self.grid.shape)
        key = table.shift_move * n_lines + np.clip(table.line, 0, n_lines - 1)
        if not (np.diff(key) > 0).all():
            key = np.sort(key)
        shared = np.zeros(len(table), dtype=bool)
        shared[key[1:][key[1:] == key[:-1]] // n_lines] = True
        return shared


@dataclass
class ExecutionReport:
    """Outcome of replaying a schedule."""

    n_moves: int = 0
    n_atom_displacements: int = 0
    n_empty_moves: int = 0
    n_failed_moves: int = 0
    violations: list[tuple[int, Violation]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.n_failed_moves == 0 and not self.violations


def execute_schedule(
    initial: AtomArray,
    schedule: MoveSchedule,
    constraints: AodConstraints | None = DEFAULT_CONSTRAINTS,
    strict: bool = True,
) -> tuple[AtomArray, ExecutionReport]:
    """Replay ``schedule`` from ``initial``; returns (final array, report).

    With ``strict=True`` the first invalid move raises; with
    ``strict=False`` invalid moves are recorded in the report and
    skipped, which is what the validator uses to diagnose bad schedules.
    Constraint checking is skipped when ``constraints`` is None.

    Moves are applied through a :class:`MoveApplier`, which plans every
    site of the schedule up front — replaying the wide parallel moves
    the vectorised schedulers emit would pay a per-shift Python loop
    otherwise.  Only the constraint checks need move objects, and a move
    with a shift off its axis or on another shift's line fails before
    they run.
    """
    array = initial.copy()
    report = ExecutionReport()
    applier = MoveApplier(array.grid, schedule)
    moves = schedule.moves if constraints is not None else None
    for index in range(len(schedule)):
        try:
            if moves is not None:
                _check_bundle(moves[index])
                for violation in check_parallel_move(
                    array.grid, moves[index], constraints
                ):
                    report.violations.append((index, violation))
                    if strict:
                        raise MoveError(
                            f"move {index} violates constraints: {violation}"
                        )
            moved = applier.apply(index).size
        except MoveError:
            if strict:
                raise
            report.n_failed_moves += 1
            continue
        report.n_moves += 1
        report.n_atom_displacements += moved
        if moved == 0:
            report.n_empty_moves += 1
    return array, report
