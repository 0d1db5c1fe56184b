"""The L-path router: individual atom transports into target defects.

Centre-ward quadrant compaction cannot always fill the target from a
50 %-loaded array (the compaction fixpoint is a Young-diagram staircase
per quadrant and atoms never move outboard — see DESIGN.md).  Real
systems close the gap with a hand-off stage of individual moves; this
module provides one: for every remaining target defect it transports the
nearest reservoir atom along an L-shaped path of empty sites, one atom
per move pair, in the style of the sequential baseline algorithms.

The router has two callers: QRM's optional repair stage (tag
``"repair"``, off by default and enabled through
:class:`~repro.config.QrmParameters`; it is *not* part of the paper's
QRM) and the MTA1 baseline (:mod:`repro.baselines.mta1`, tag
``"mta1"``), which is the same sequential one-tweezer routing run on the
raw load.  Each outcome also counts the routing analysis the way MTA1's
published re-scan pays for it (``analysis_ops``).

Two implementations share the semantics: :func:`repair_defects_reference`
is the per-defect, per-candidate Python loop kept as the behavioural
oracle, and :func:`repair_defects` is the production path, which tests
every reservoir candidate's two L-paths at once with prefix-summed
occupancy counts.  The two are property-tested to emit bit-identical
moves and counters (see ``tests/test_repair_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aod.executor import apply_parallel_move
from repro.aod.move import LineShift, ParallelMove
from repro.lattice.array import AtomArray
from repro.lattice.geometry import Direction


@dataclass
class RepairOutcome:
    """Moves emitted by the router, what it could not fix, and its cost."""

    moves: list[ParallelMove] = field(default_factory=list)
    filled: int = 0
    unresolved: int = 0
    #: Routing analysis cost: one op per reservoir candidate ranked for
    #: a defect, plus every path cell a short-circuiting clearance test
    #: touches (MTA1's published O(defects x reservoir) profile).
    analysis_ops: int = 0


def _horizontal_leg(row: int, col_from: int, col_to: int) -> LineShift:
    steps = abs(col_to - col_from)
    direction = Direction.EAST if col_to > col_from else Direction.WEST
    return LineShift(
        direction=direction,
        line=row,
        span_start=col_from,
        span_stop=col_from + 1,
        steps=steps,
    )


def _vertical_leg(col: int, row_from: int, row_to: int) -> LineShift:
    steps = abs(row_to - row_from)
    direction = Direction.SOUTH if row_to > row_from else Direction.NORTH
    return LineShift(
        direction=direction,
        line=col,
        span_start=row_from,
        span_stop=row_from + 1,
        steps=steps,
    )


def _path_clear_horizontal(grid, row: int, col_from: int, col_to: int) -> bool:
    """Are all sites strictly between and including the destination empty?"""
    if col_from == col_to:
        return True
    lo, hi = (col_from + 1, col_to) if col_to > col_from else (col_to, col_from - 1)
    return not grid[row, lo : hi + 1].any()


def _path_clear_vertical(grid, col: int, row_from: int, row_to: int) -> bool:
    if row_from == row_to:
        return True
    lo, hi = (row_from + 1, row_to) if row_to > row_from else (row_to, row_from - 1)
    return not grid[lo : hi + 1, col].any()


def _probe_candidate(
    grid, source: tuple[int, int], dest: tuple[int, int]
) -> tuple[list[LineShift] | None, int]:
    """L-path legs from source to dest through empty sites, plus their cost.

    Tries row-leg-then-column-leg, then column-leg-then-row-leg; returns
    ``None`` legs when neither clears.  The cost is the path cells the
    clearance tests touch: each window that runs charges its cell count
    (the sites strictly between the endpoints plus the destination), in
    short-circuit order — a failed horizontal test stops the row-first
    attempt before its vertical leg is probed, and a routable row-first
    path skips the column-first attempt entirely.
    """
    (r0, c0), (r1, c1) = source, dest
    h_cells = abs(c1 - c0)
    v_cells = abs(r1 - r0)
    # Row first: (r0,c0) -> (r0,c1) -> (r1,c1)
    ops = h_cells
    if _path_clear_horizontal(grid, r0, c0, c1):
        ops += v_cells
        if _path_clear_vertical(grid, c1, r0, r1):
            legs = []
            if c0 != c1:
                legs.append(_horizontal_leg(r0, c0, c1))
            if r0 != r1:
                legs.append(_vertical_leg(c1, r0, r1))
            return legs, ops
    # Column first: (r0,c0) -> (r1,c0) -> (r1,c1)
    ops += v_cells
    if _path_clear_vertical(grid, c0, r0, r1):
        ops += h_cells
        if _path_clear_horizontal(grid, r1, c0, c1):
            legs = []
            if r0 != r1:
                legs.append(_vertical_leg(c0, r0, r1))
            if c0 != c1:
                legs.append(_horizontal_leg(r1, c0, c1))
            return legs, ops
    return None, ops


def repair_defects_reference(
    array: AtomArray, max_moves: int = 4096, tag: str = "repair"
) -> RepairOutcome:
    """Per-defect, per-candidate reference implementation.

    Kept as the oracle the vectorised :func:`repair_defects` is
    property-tested against (bit-identical moves, tags, order, and
    counters), and as the readable statement of the routing semantics:
    every defect re-derives the reservoir from ``occupied_sites()``,
    ranks all of it, and probes candidates nearest-first until an L-path
    clears.
    """
    outcome = RepairOutcome()
    geometry = array.geometry
    target = geometry.target_mask
    grid = array.grid
    centre = ((geometry.height - 1) / 2.0, (geometry.width - 1) / 2.0)

    defects = sorted(
        array.target_defects(),
        key=lambda rc: abs(rc[0] - centre[0]) + abs(rc[1] - centre[1]),
    )
    for defect in defects:
        if len(outcome.moves) >= max_moves:
            outcome.unresolved += 1
            continue
        reservoir = [
            site for site in array.occupied_sites() if not target.contains(*site)
        ]
        outcome.analysis_ops += len(reservoir)
        reservoir.sort(key=lambda rc: abs(rc[0] - defect[0]) + abs(rc[1] - defect[1]))
        routed = False
        for source in reservoir:
            legs, probed = _probe_candidate(grid, source, defect)
            outcome.analysis_ops += probed
            if legs is None:
                continue
            for leg in legs:
                move = ParallelMove.of([leg], tag=f"{tag}-{defect}")
                apply_parallel_move(grid, move)
                outcome.moves.append(move)
            outcome.filled += 1
            routed = True
            break
        if not routed:
            outcome.unresolved += 1
    return outcome


def _segment_counts(
    prefix: np.ndarray, lines: np.ndarray, a: np.ndarray, b: int
) -> np.ndarray:
    """Atoms on each ``lines[i]`` within the L-leg from ``a[i]`` to ``b``.

    The counted range is the reference's path-clearance window: the sites
    strictly between the endpoints plus the destination ``b`` — empty for
    ``a == b``.  ``prefix`` is an exclusive prefix sum along the leg axis
    with a leading zero column, so the count is two gathers.
    """
    forward = b > a
    lo = np.where(forward, a + 1, b)
    stop = np.where(forward, b + 1, a)
    return prefix[lines, stop] - prefix[lines, lo]


def _open_run(prefix_line: np.ndarray, at: int) -> tuple[int, int]:
    """Nearest atoms before and after the empty site ``at`` on one line.

    ``prefix_line`` is the line's exclusive prefix sum (leading zero);
    ``-1`` and the line length stand in for "no atom on that side".  A
    leg along the line from ``x`` to ``at`` clears — the sites strictly
    between plus ``at`` are empty — exactly when ``before <= x <= after``.
    """
    atoms_before = prefix_line[at]
    before, after = np.searchsorted(prefix_line, (atoms_before, atoms_before + 1))
    return int(before) - 1, int(after) - 1


def repair_defects(
    array: AtomArray, max_moves: int = 4096, tag: str = "repair"
) -> RepairOutcome:
    """Fill remaining target defects of ``array`` in place.

    Defects are processed centre-outward; each is matched to the nearest
    reservoir atom that has a clear L-path, and every leg is its own
    single-site move tagged ``f"{tag}-{defect}"``.  Atoms that cannot be
    routed are counted as unresolved rather than raising — the caller
    decides whether a partial assembly is acceptable.

    Vectorised implementation: emits exactly the moves and counters of
    :func:`repair_defects_reference` (bit-identical legs, tags, order,
    and ``analysis_ops``).  Per defect, both L-path clearance tests of
    *every* reservoir candidate are evaluated at once: the legs out of
    the candidates against prefix-summed occupancy (two gathers each
    instead of a Python slice scan), the legs into the defect against
    its open run on its own row and column.  The nearest routable
    candidate is picked with one stable argsort.
    """
    outcome = RepairOutcome()
    geometry = array.geometry
    target = geometry.target_mask.mask
    grid = array.grid
    height, width = grid.shape
    centre = ((geometry.height - 1) / 2.0, (geometry.width - 1) / 2.0)

    # np.argwhere is row-major, matching the reference's target_defects()
    # enumeration order for any mask shape.
    defects = np.argwhere(~grid & target)
    if defects.size:
        dist = np.abs(defects[:, 0] - centre[0]) + np.abs(defects[:, 1] - centre[1])
        defects = defects[np.argsort(dist, kind="stable")]

    outside_target = ~target
    # Exclusive prefix sums (leading zero) along rows / columns, read by
    # _segment_counts and _open_run instead of per-candidate slice scans.
    # Both they and the reservoir only change when a route lands, so
    # unroutable defects reuse the previous defect's snapshot.
    row_prefix = np.zeros((height, width + 1), dtype=np.intp)
    col_prefix = np.zeros((width, height + 1), dtype=np.intp)
    grid_changed = True
    reservoir_rows = reservoir_cols = None

    for defect in defects:
        if len(outcome.moves) >= max_moves:
            outcome.unresolved += 1
            continue
        dr, dc = int(defect[0]), int(defect[1])
        if grid_changed:
            reservoir_rows, reservoir_cols = np.nonzero(grid & outside_target)
            np.cumsum(grid, axis=1, out=row_prefix[:, 1:])
            np.cumsum(grid.T, axis=1, out=col_prefix[:, 1:])
            grid_changed = False
        # The reference ranks the whole reservoir for every defect.
        outcome.analysis_ops += int(reservoir_rows.size)
        if not reservoir_rows.size:
            outcome.unresolved += 1
            continue
        # Nearest-first candidate order; stable sort keeps the row-major
        # tie-break of the reference's occupied_sites() ordering.
        order = np.argsort(
            np.abs(reservoir_rows - dr) + np.abs(reservoir_cols - dc),
            kind="stable",
        )
        rows = reservoir_rows[order]
        cols = reservoir_cols[order]

        # The legs into the defect run along its own row and column, so
        # one open run per line clears them for every candidate.
        up, down = _open_run(col_prefix[dc], dr)
        left, right = _open_run(row_prefix[dr], dc)
        # Row first: (r0,c0) -> (r0,dc) -> (dr,dc)
        h_clear_src = _segment_counts(row_prefix, rows, cols, dc) == 0
        row_first = h_clear_src & (rows >= up) & (rows <= down)
        # Column first: (r0,c0) -> (dr,c0) -> (dr,dc)
        v_clear_src = _segment_counts(col_prefix, cols, rows, dr) == 0
        col_first = v_clear_src & (cols >= left) & (cols <= right)
        routable = np.nonzero(row_first | col_first)[0]
        # The reference probes candidates up to (and including) the first
        # routable one, or all of them; charge that prefix's path cells
        # in _probe_candidate's short-circuit order.
        probed = int(routable[0]) + 1 if routable.size else rows.size
        h_cells = np.abs(cols[:probed] - dc)
        v_cells = np.abs(rows[:probed] - dr)
        cells = h_cells + v_cells * h_clear_src[:probed]
        cells += (v_cells + h_cells * v_clear_src[:probed]) * ~row_first[:probed]
        outcome.analysis_ops += int(cells.sum())
        if not routable.size:
            outcome.unresolved += 1
            continue

        pick = probed - 1
        r0, c0 = int(rows[pick]), int(cols[pick])
        # The pick is routable, so one scalar probe yields its legs with
        # the reference's own leg convention.
        legs, _ = _probe_candidate(grid, (r0, c0), (dr, dc))
        for leg in legs:
            outcome.moves.append(ParallelMove.of([leg], tag=f"{tag}-{(dr, dc)}"))
        # Net effect of the (at most two) legs: the source empties, the
        # defect fills; the L-corner occupancy is transient.
        grid[r0, c0] = False
        grid[dr, dc] = True
        grid_changed = True
        outcome.filled += 1
    return outcome
