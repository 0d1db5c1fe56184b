"""Pinned pre-vectorization QRM hot path, kept for benchmarking only.

This module is a frozen copy of the scheduler hot path as it existed
before the vectorised ``scan_quadrant``/``run_pass`` rewrite: per-line
scans that eagerly materialise Python tuples, and a per-line,
per-command drain loop that calls ``QuadrantFrame.to_full`` for every
coordinate.  ``repro bench`` times it as the "before" implementation so
the recorded speedups keep meaning the same thing even as the live
reference oracle (:func:`repro.core.passes.run_pass_reference`)
continues to improve.

Do not import this from production code; it exists so performance
history stays comparable, and its schedules are asserted bit-identical
to the live implementations by the perf benchmark tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aod.executor import apply_parallel_move
from repro.aod.move import LineShift, ParallelMove
from repro.core.passes import (
    QUADRANT_ORDER,
    PassOutcome,
    Phase,
    _direction_order,
)
from repro.lattice.array import AtomArray
from repro.lattice.geometry import Quadrant, QuadrantFrame


@dataclass(frozen=True)
class _SeedLineScan:
    """Eager-tuple scan result, as the seed's ``LineScanResult`` was."""

    line: int
    hole_positions: tuple[int, ...]
    bits_before: tuple[bool, ...]
    n_atoms: int

    @property
    def n_commands(self) -> int:
        return len(self.hole_positions)


def seed_scan_line(
    bits: np.ndarray, line: int = 0, limit: int | None = None
) -> _SeedLineScan:
    """The seed ``scan_line``: one cumsum per line, tuples materialised."""
    occ = np.asarray(bits, dtype=bool)
    n = occ.size
    if n == 0:
        return _SeedLineScan(line, (), (), 0)
    suffix_counts = np.cumsum(occ[::-1])[::-1]
    atoms_outboard = np.zeros(n, dtype=bool)
    atoms_outboard[:-1] = suffix_counts[1:] > 0
    holes = np.nonzero(~occ & atoms_outboard)[0]
    if limit is not None:
        holes = holes[holes < limit]
    return _SeedLineScan(
        line=line,
        hole_positions=tuple(int(h) for h in holes),
        bits_before=tuple(bool(b) for b in occ),
        n_atoms=int(occ.sum()),
    )


def _seed_scan_axis(
    local_grid: np.ndarray, axis: int, limit: int | None
) -> list[_SeedLineScan]:
    grid = np.asarray(local_grid, dtype=bool)
    if axis == 0:
        return [
            seed_scan_line(grid[u, :], line=u, limit=limit)
            for u in range(grid.shape[0])
        ]
    return [
        seed_scan_line(grid[:, v], line=v, limit=limit) for v in range(grid.shape[1])
    ]


@dataclass
class _SeedLineState:
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
        return self.holes[self.next_index] - self.executed


def _seed_span_to_shift(
    frame: QuadrantFrame,
    phase: Phase,
    line: int,
    cur_hole: int,
    executed: int,
    n_positions: int,
) -> LineShift:
    local_lo = cur_hole + 1
    local_hi = n_positions - executed  # exclusive
    if phase is Phase.ROW:
        full_line = frame.to_full(line, 0)[0]
        a = frame.to_full(line, local_lo)[1]
        b = frame.to_full(line, local_hi - 1)[1]
        direction = frame.horizontal_inward
    else:
        full_line = frame.to_full(0, line)[1]
        a = frame.to_full(local_lo, line)[0]
        b = frame.to_full(local_hi - 1, line)[0]
        direction = frame.vertical_inward
    span_start, span_stop = (a, b + 1) if a <= b else (b, a + 1)
    return LineShift(
        direction=direction,
        line=full_line,
        span_start=span_start,
        span_stop=span_stop,
        steps=1,
    )


def _seed_hole_site(
    frame: QuadrantFrame, phase: Phase, line: int, cur_hole: int
) -> tuple[int, int]:
    if phase is Phase.ROW:
        return frame.to_full(line, cur_hole)
    return frame.to_full(cur_hole, line)


def _seed_span_has_atom(
    grid: np.ndarray,
    frame: QuadrantFrame,
    phase: Phase,
    line: int,
    cur_hole: int,
    executed: int,
    n_positions: int,
) -> bool:
    local_lo = cur_hole + 1
    local_hi = n_positions - executed
    if local_lo >= local_hi:
        return False
    if phase is Phase.ROW:
        r = frame.to_full(line, 0)[0]
        c1 = frame.to_full(line, local_lo)[1]
        c2 = frame.to_full(line, local_hi - 1)[1]
        lo, hi = (c1, c2) if c1 <= c2 else (c2, c1)
        return bool(grid[r, lo : hi + 1].any())
    c = frame.to_full(0, line)[1]
    r1 = frame.to_full(local_lo, line)[0]
    r2 = frame.to_full(local_hi - 1, line)[0]
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return bool(grid[lo : hi + 1, c].any())


def seed_run_pass(
    array: AtomArray,
    frames: dict[Quadrant, QuadrantFrame],
    phase: Phase,
    scan_source: np.ndarray,
    merge_mirror: bool = True,
    guard: bool = False,
    scan_limit: int | None = None,
) -> PassOutcome:
    """The seed ``run_pass``: dict-of-lists rounds, heterogeneous keys."""
    outcome = PassOutcome(phase=phase)
    axis = 0 if phase is Phase.ROW else 1
    moves: list[ParallelMove] = []

    states: list[_SeedLineState] = []
    for quadrant in QUADRANT_ORDER:
        frame = frames[quadrant]
        local = frame.extract(scan_source)
        scans = _seed_scan_axis(local, axis, limit=scan_limit)
        n_positions = local.shape[1] if phase is Phase.ROW else local.shape[0]
        outcome.line_commands[quadrant] = [scan.n_commands for scan in scans]
        for scan in scans:
            outcome.n_scanned_bits += n_positions
            outcome.n_commands += scan.n_commands
            if scan.n_commands:
                states.append(
                    _SeedLineState(
                        frame=frame,
                        line=scan.line,
                        holes=scan.hole_positions,
                        n_positions=n_positions,
                    )
                )

    grid = array.grid
    round_index = 0
    while True:
        groups: dict[tuple, list[tuple[_SeedLineState, int]]] = {}
        pending = False
        for state in states:
            if state.exhausted:
                continue
            pending = True
            cur = state.current_hole
            if guard:
                hole_site = _seed_hole_site(state.frame, phase, state.line, cur)
                if grid[hole_site]:
                    state.next_index += 1
                    outcome.n_skipped_stale += 1
                    continue
                if not _seed_span_has_atom(
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
            if merge_mirror:
                key = (cur, direction)
            else:
                key = (cur, direction, state.frame.quadrant)
            groups.setdefault(key, []).append((state, cur))

        if not pending:
            break
        if groups:
            for direction in _direction_order(phase):
                for key in sorted(
                    (k for k in groups if k[1] is direction),
                    key=lambda k: (k[0], k[2].value if len(k) > 2 else ""),
                ):
                    members = groups[key]
                    shifts = []
                    for state, cur in members:
                        shifts.append(
                            _seed_span_to_shift(
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
                    if not merge_mirror:
                        tag += f"-{key[2].value}"
                    move = ParallelMove.of(shifts, tag=tag)
                    apply_parallel_move(grid, move)
                    moves.append(move)
                    outcome.n_executed += len(shifts)
        round_index += 1
        if round_index > array.geometry.width + array.geometry.height:
            raise RuntimeError("pass failed to drain its command lists")

    outcome.record_moves(moves)
    return outcome
