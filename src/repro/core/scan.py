"""Functional model of the shift-kernel scan pass (paper Sec. IV-C).

One *pass* scans every line of a quadrant (rows in the row phase,
columns in the column phase) in quadrant-local coordinates, where index 0
is the site closest to the array centre.  For each line the scan records
the ordered *hole positions* that have at least one atom outboard of
them; holes with nothing outboard would be "empty shifts" and are dropped
at the source, matching the paper's "empty shifts are removed from the
final schedule".

Executing the k-th command of a line is a one-step *suffix shift*: by the
time it runs, ``k`` earlier holes of that line have been consumed, so the
hole scanned at position ``h_k`` now sits at ``h_k - k`` and every site
outboard of it moves one step inward.  Executing all commands of a line
fully compacts it toward index 0.

These functions are the single source of truth for the scan semantics:
:func:`scan_line` is the per-line reference the FPGA bit-level
shift-kernel model is unit-tested against, and :func:`scan_quadrant`
is the batched many-line formulation the scheduler hot path uses —
the two are property-tested equivalent.  Lines are independent, so the
hot path scans a whole pass in one call: it folds every trial and
quadrant of a ``(trial, row, col)`` stack into the line axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class LineScanResult:
    """Scan output for one quadrant-local line.

    ``hole_positions`` are in pre-pass local coordinates, strictly
    ascending.  ``bits_before`` is the occupancy snapshot streamed to the
    transpose buffers (Fig. 6 shows the pre-shift bits flowing into the
    column buffers).

    Both are backed by ndarrays (``holes``/``bits``) and materialised as
    tuples lazily, so the scheduler hot path never pays for the Python
    object conversion it does not read.
    """

    line: int
    holes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    bits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    n_atoms: int = 0

    @functools.cached_property
    def hole_positions(self) -> tuple[int, ...]:
        return tuple(int(h) for h in self.holes)

    @functools.cached_property
    def bits_before(self) -> tuple[bool, ...]:
        return tuple(bool(b) for b in self.bits)

    @property
    def n_commands(self) -> int:
        return int(self.holes.size)


def scan_line(
    bits: np.ndarray, line: int = 0, limit: int | None = None
) -> LineScanResult:
    """Scan one line; ``bits[0]`` is the site nearest the array centre.

    ``limit`` models the paper's ``s_en`` manual-control mechanism:
    scan stages at positions >= ``limit`` have their shift enable pulled
    low, "to prevent unnecessary shifts far from the center".  Holes
    beyond the limit therefore never become commands; a limit of the
    quadrant-local target extent suffices to assemble the target with
    fewer moves.
    """
    occ = np.asarray(bits, dtype=bool)
    n = occ.size
    if n == 0:
        return LineScanResult(line)
    # atoms_outboard[j] is True when any site > j holds an atom
    suffix_counts = np.cumsum(occ[::-1])[::-1]
    atoms_outboard = np.zeros(n, dtype=bool)
    atoms_outboard[:-1] = suffix_counts[1:] > 0
    holes = np.nonzero(~occ & atoms_outboard)[0]
    if limit is not None:
        holes = holes[holes < limit]
    return LineScanResult(
        line=line,
        holes=holes,
        bits=occ,
        n_atoms=int(occ.sum()),
    )


@dataclass(frozen=True, eq=False)
class QuadrantScan:
    """Batched scan of every line of one quadrant-local grid.

    ``hole_lines``/``hole_positions`` are parallel flat arrays holding
    every command of the quadrant in scan order: line-major, positions
    strictly ascending within a line (exactly the concatenation of the
    per-line :func:`scan_line` outputs).  ``line_counts[u]`` is the
    command count of line ``u`` — zero-command lines are represented, so
    callers can account for pipeline occupancy.
    """

    axis: int
    n_lines: int
    n_positions: int
    hole_lines: np.ndarray
    hole_positions: np.ndarray
    line_counts: np.ndarray
    holes_mask: np.ndarray  # command holes, shape (n_lines, n_positions)
    lines_view: np.ndarray  # occupancy, shape (n_lines, n_positions)

    @property
    def n_commands(self) -> int:
        return int(self.hole_positions.size)

    @property
    def n_scanned_bits(self) -> int:
        return self.n_lines * self.n_positions

    def results(self) -> list[LineScanResult]:
        """Per-line :class:`LineScanResult` bridge (lazy tuples)."""
        splits = np.split(self.hole_positions, np.cumsum(self.line_counts)[:-1])
        atoms = self.lines_view.sum(axis=1)
        return [
            LineScanResult(
                line=u,
                holes=splits[u],
                bits=self.lines_view[u],
                n_atoms=int(atoms[u]),
            )
            for u in range(self.n_lines)
        ]


def _apply_limit(holes_mask: np.ndarray, limit) -> None:
    """Zero out hole candidates at positions >= the ``s_en`` bound.

    ``limit`` is a scalar (one bound for every line, the paper's manual
    ``s_en`` control) or a 1-D array of per-line bounds (the mask-derived
    generalisation) indexed like the lines axis of ``holes_mask``.
    """
    bounds = np.asarray(limit)
    n_lines, n_positions = holes_mask.shape
    if bounds.ndim == 0:
        holes_mask[:, max(0, int(bounds)) :] = False
        return
    if bounds.shape != (n_lines,):
        raise ValueError(
            f"per-line scan limit has shape {bounds.shape}, "
            f"expected ({n_lines},)"
        )
    positions = np.arange(n_positions)
    holes_mask &= positions[None, :] < bounds[:, None]


def scan_quadrant(
    local_grid: np.ndarray, axis: int, limit=None
) -> QuadrantScan:
    """Scan every line of a quadrant-local grid along ``axis``, batched.

    Semantically identical to per-line :func:`scan_line` over the grid
    (property-tested), but computes all lines' hole positions with one
    2-D cumulative sum and one ``nonzero`` instead of ``n_lines``
    separate scans.  ``axis=0`` scans rows (lines indexed by ``u``,
    positions along ``v``); ``axis=1`` scans columns.  ``limit`` is the
    ``s_en`` scan bound — a scalar (see :func:`scan_line`) or an array
    of per-line bounds (see :func:`_apply_limit`).  ``holes_mask`` of
    the result marks every command hole in the scanned orientation.
    """
    grid = np.asarray(local_grid, dtype=bool)
    if axis == 1:
        grid = np.ascontiguousarray(grid.T)
    elif axis != 0:
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    n_lines, n_positions = grid.shape
    # outboard[u, j] is True when any site of line u beyond j holds an
    # atom; a hole is an empty site with something outboard of it.
    outboard = np.zeros_like(grid)
    if n_positions:
        outboard[:, :-1] = np.logical_or.accumulate(grid[:, :0:-1], axis=1)[:, ::-1]
    holes_mask = ~grid & outboard
    if limit is not None:
        _apply_limit(holes_mask, limit)
    # Row-major flat indices split into (line, position): the same order
    # as np.nonzero, several times cheaper on many short lines.
    hole_lines, hole_positions = np.divmod(np.flatnonzero(holes_mask), n_positions)
    return QuadrantScan(
        axis=axis,
        n_lines=n_lines,
        n_positions=n_positions,
        hole_lines=hole_lines,
        hole_positions=hole_positions,
        line_counts=np.bincount(hole_lines, minlength=n_lines),
        holes_mask=holes_mask,
        lines_view=grid,
    )


def scan_axis(
    local_grid: np.ndarray, axis: int, limit=None
) -> list[LineScanResult]:
    """Scan every line of a quadrant-local grid along ``axis``.

    ``axis=0`` scans rows (a row pass: lines indexed by ``u``, positions
    along ``v``); ``axis=1`` scans columns.  Lines that need no command
    still appear in the result (with an empty command list) so callers
    can account for pipeline occupancy.  ``limit`` is the per-line
    ``s_en`` scan bound, see :func:`scan_line`.
    """
    return scan_quadrant(local_grid, axis, limit=limit).results()
