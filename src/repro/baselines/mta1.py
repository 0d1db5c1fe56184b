"""MTA1 baseline — sequential single-atom transport (Ebadi et al., 2021).

The 256-atom programmable simulator of Ebadi et al. rearranges with one
mobile tweezer at a time: every target defect is matched to a reservoir
atom which is transported individually along a row-leg plus column-leg
path.  There is no multi-atom parallelism, which is why the paper's
Fig. 7(b) shows it roughly three orders of magnitude slower than QRM.

Reimplementation notes (the original is closed source):

* defects are served centre-outward, matching the published strategy of
  building the array from the middle;
* candidate atoms are ranked by Manhattan distance and the first one with
  a collision-free L-path wins; each leg is an individual ``steps = k``
  move of a single site;
* the analysis deliberately re-scans the occupancy per defect (the
  published algorithm recomputes reachability after every transport),
  giving the natural O(defects x reservoir) cost profile:
  ``analysis_ops`` counts every reservoir candidate examined per defect
  plus every path cell the short-circuiting L-path clearance actually
  probes.

Two implementations share these semantics:
:class:`Mta1SchedulerReference` is the per-defect, per-candidate
re-scanning loop kept as the behavioural oracle, and
:class:`Mta1Scheduler` is the production path, which tests every
reservoir candidate's two L-paths at once against prefix-summed
occupancy and picks the nearest routable atom with one stable argsort —
the same machinery as :func:`repro.core.repair.repair_defects`, while
still emitting the identical one-leg-at-a-time single-site moves.  The
two are property-tested to emit bit-identical schedules
(``tests/test_baseline_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.aod.executor import apply_parallel_move
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.core.repair import (
    _horizontal_leg,
    _path_clear_horizontal,
    _path_clear_vertical,
    _segment_counts,
    _vertical_leg,
)
from repro.core.result import RearrangementResult, timed_schedule
from repro.errors import UnsupportedGeometryError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry


def _probe_candidate(
    grid, source: tuple[int, int], dest: tuple[int, int]
) -> tuple[list[LineShift] | None, int]:
    """L-path legs for one candidate plus the path cells the probe tested.

    Same routing semantics as :func:`repro.core.repair._legs_for`
    (row-leg-then-column-leg, then column-leg-then-row-leg), but also
    returns the analysis cost: each clearance window that actually runs
    charges its cell count (the sites strictly between the endpoints plus
    the destination), with the reference's short-circuit order — a failed
    horizontal test stops the row-first attempt before its vertical leg
    is ever probed, and a routable row-first path skips the column-first
    attempt entirely.
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


class Mta1Scheduler:
    """Sequential one-atom-at-a-time rearrangement (vectorised planner)."""

    name = "mta1"

    def __init__(self, geometry: ArrayGeometry):
        if not geometry.is_rect_target:
            raise UnsupportedGeometryError(
                "mta1 routes into a rectangular target region; it does not "
                "support non-rectangular target masks (use qrm-repair)"
            )
        self.geometry = geometry

    def schedule(self, array: AtomArray) -> RearrangementResult:
        if array.geometry != self.geometry:
            raise ValueError("array geometry does not match the scheduler's geometry")
        return timed_schedule(lambda: self._analyse(array))

    def _analyse(self, array: AtomArray) -> RearrangementResult:
        live = array.copy()
        moves: list[ParallelMove] = []
        ops, unresolved = self._route_defects(live, moves)
        return RearrangementResult(
            algorithm=self.name,
            initial=array.copy(),
            final=live,
            schedule=MoveSchedule(self.geometry, self.name, moves),
            converged=unresolved == 0,
            analysis_ops=ops,
            unresolved_defects=unresolved,
        )

    def _route_defects(
        self, live: AtomArray, moves: list[ParallelMove]
    ) -> tuple[int, int]:
        """Serve every target defect centre-outward; returns (ops, unresolved).

        Vectorised implementation: emits exactly the moves of
        :class:`Mta1SchedulerReference` (bit-identical legs, tags, order,
        and op counts).  Per defect, both L-path clearance tests of
        *every* reservoir candidate are evaluated at once against
        prefix-summed occupancy, and the nearest routable candidate is
        picked with one stable argsort that preserves the row-major
        ``occupied_sites()`` tie-break of the reference.  The prefix sums
        and the reservoir only change when a route lands, so unroutable
        defects reuse the previous defect's snapshot.
        """
        geometry = self.geometry
        target = geometry.target_region
        grid = live.grid
        height, width = grid.shape
        centre = ((geometry.height - 1) / 2.0, (geometry.width - 1) / 2.0)

        block = grid[target.row_slice, target.col_slice]
        defects = np.argwhere(~block)
        if defects.size:
            defects += (target.row0, target.col0)
            dist = np.abs(defects[:, 0] - centre[0]) + np.abs(defects[:, 1] - centre[1])
            defects = defects[np.argsort(dist, kind="stable")]

        outside_target = np.ones(grid.shape, dtype=bool)
        outside_target[target.row_slice, target.col_slice] = False
        row_prefix = np.zeros((height, width + 1), dtype=np.intp)
        col_prefix = np.zeros((width, height + 1), dtype=np.intp)
        grid_changed = True
        reservoir_rows = reservoir_cols = None
        ops = 0
        unresolved = 0

        for defect in defects:
            dr, dc = int(defect[0]), int(defect[1])
            if grid_changed:
                reservoir_rows, reservoir_cols = np.nonzero(grid & outside_target)
                np.cumsum(grid, axis=1, out=row_prefix[:, 1:])
                np.cumsum(grid.T, axis=1, out=col_prefix[:, 1:])
                grid_changed = False
            # The published re-scan examines (ranks) the whole reservoir
            # for every defect — the O(defects x reservoir) term.
            ops += int(reservoir_rows.size)
            if not reservoir_rows.size:
                unresolved += 1
                continue
            order = np.argsort(
                np.abs(reservoir_rows - dr) + np.abs(reservoir_cols - dc),
                kind="stable",
            )
            rows = reservoir_rows[order]
            cols = reservoir_cols[order]

            to_col = np.full(rows.shape, dc)
            to_row = np.full(rows.shape, dr)
            # Row first: (r0,c0) -> (r0,dc) -> (dr,dc)
            h_clear_src = _segment_counts(row_prefix, rows, cols, to_col) == 0
            v_clear_dst = _segment_counts(col_prefix, to_col, rows, to_row) == 0
            # Column first: (r0,c0) -> (dr,c0) -> (dr,dc)
            v_clear_src = _segment_counts(col_prefix, cols, rows, to_row) == 0
            h_clear_dst = _segment_counts(row_prefix, to_row, cols, to_col) == 0
            row_first = h_clear_src & v_clear_dst
            col_first = v_clear_src & h_clear_dst

            # Path cells each candidate's probe would test, mirroring the
            # short-circuit order of _probe_candidate.
            h_cells = np.abs(cols - dc)
            v_cells = np.abs(rows - dr)
            cells = h_cells + np.where(h_clear_src, v_cells, 0)
            cells += np.where(
                ~row_first, v_cells + np.where(v_clear_src, h_cells, 0), 0
            )

            routable = np.nonzero(row_first | col_first)[0]
            if not routable.size:
                ops += int(cells.sum())
                unresolved += 1
                continue
            pick = int(routable[0])
            # Only candidates up to (and including) the first routable
            # one are ever probed.
            ops += int(cells[: pick + 1].sum())

            r0, c0 = int(rows[pick]), int(cols[pick])
            # The picked candidate is routable, so one scalar re-probe
            # yields its legs — the same helper the reference uses, so
            # the leg-construction convention cannot diverge.
            legs, _ = _probe_candidate(grid, (r0, c0), (dr, dc))
            for leg in legs:
                moves.append(ParallelMove.of([leg], tag=f"mta1-{(dr, dc)}"))
            # Net effect of the (at most two) legs: the source empties,
            # the defect fills; the L-corner occupancy is transient.
            grid[r0, c0] = False
            grid[dr, dc] = True
            grid_changed = True
        return ops, unresolved


class Mta1SchedulerReference(Mta1Scheduler):
    """Per-defect, per-candidate re-scanning oracle.

    Semantically the seed scheduler: every defect re-derives the
    reservoir from ``occupied_sites()`` and probes candidates one by one
    until an L-path clears.  :class:`Mta1Scheduler` must emit
    bit-identical schedules and op counts — the differential property
    tests enforce it.
    """

    def _route_defects(
        self, live: AtomArray, moves: list[ParallelMove]
    ) -> tuple[int, int]:
        grid = live.grid
        target = self.geometry.target_region
        centre = (
            (self.geometry.height - 1) / 2.0,
            (self.geometry.width - 1) / 2.0,
        )
        ops = 0
        unresolved = 0

        defects = sorted(
            live.target_defects(),
            key=lambda rc: abs(rc[0] - centre[0]) + abs(rc[1] - centre[1]),
        )
        for defect in defects:
            reservoir = [
                site for site in live.occupied_sites() if not target.contains(*site)
            ]
            ops += len(reservoir)
            reservoir.sort(
                key=lambda rc: abs(rc[0] - defect[0]) + abs(rc[1] - defect[1])
            )
            routed = False
            for source in reservoir:
                legs, probed = _probe_candidate(grid, source, defect)
                ops += probed
                if legs is None:
                    continue
                for leg in legs:
                    move = ParallelMove.of([leg], tag=f"mta1-{defect}")
                    apply_parallel_move(grid, move)
                    moves.append(move)
                routed = True
                break
            if not routed:
                unresolved += 1
        return ops, unresolved
