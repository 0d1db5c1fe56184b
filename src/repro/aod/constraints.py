"""Crossed-AOD hardware constraint checks for parallel moves.

Selecting rows ``R`` and columns ``C`` creates a trap at *every* crossing
in ``R x C`` (paper Sec. II-B).  A parallel move is only safe when each
unintended crossing is empty — otherwise a bystander atom is picked up
and dragged along.  This module turns that rule (plus collision and
bounds rules) into an explicit checker shared by the executor, the
validator and the schedulers' unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aod.move import ParallelMove

#: Violation codes emitted by :func:`check_parallel_move`.
OUT_OF_BOUNDS = "out-of-bounds"
LEAD_COLLISION = "leading-collision"
CROSS_PICKUP = "cross-product-pickup"
TONE_BUDGET = "tone-budget"
EMPTY_MOVE = "empty-move"


@dataclass(frozen=True)
class AodConstraints:
    """Hardware limits of the 2-D AOD tweezer system.

    Attributes
    ----------
    max_line_tones / max_cross_tones:
        Maximum number of simultaneous RF tones on the line axis (rows
        for a horizontal move) and the cross axis.  ``None`` = unlimited,
        matching the paper which never hits a tone budget.
    enforce_cross_product:
        Check unintended AOD-grid crossings for bystander pickup.
    forbid_empty_moves:
        Flag moves that displace zero atoms ("empty shifts are removed
        from the final schedule" — paper Sec. IV-C).
    """

    max_line_tones: int | None = None
    max_cross_tones: int | None = None
    enforce_cross_product: bool = True
    forbid_empty_moves: bool = False


DEFAULT_CONSTRAINTS = AodConstraints()


@dataclass(frozen=True)
class Violation:
    """One constraint violation for one parallel move."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def check_parallel_move(
    grid: np.ndarray,
    move: ParallelMove,
    constraints: AodConstraints = DEFAULT_CONSTRAINTS,
) -> list[Violation]:
    """Check one move against ``grid`` (pre-move state). Returns violations."""
    violations: list[Violation] = []
    height, width = grid.shape

    def in_bounds(site: tuple[int, int]) -> bool:
        return 0 <= site[0] < height and 0 <= site[1] < width

    intended: set[tuple[int, int]] = set()
    moved_atoms = 0
    for shift in move.shifts:
        sites = shift.sites()
        intended.update(sites)
        for site in sites:
            if not in_bounds(site):
                violations.append(
                    Violation(OUT_OF_BOUNDS, f"selected site {site} outside grid")
                )
                return violations
            dest = shift.destination(site)
            if not in_bounds(dest):
                violations.append(
                    Violation(
                        OUT_OF_BOUNDS,
                        f"destination {dest} of site {site} outside grid",
                    )
                )
                return violations
            if grid[site]:
                moved_atoms += 1
        span_has_atom = any(grid[s] for s in sites)
        for lead in shift.leading_sites():
            if not in_bounds(lead):
                violations.append(
                    Violation(
                        OUT_OF_BOUNDS,
                        f"leading site {lead} of line {shift.line} outside grid",
                    )
                )
                return violations
            if span_has_atom and grid[lead]:
                violations.append(
                    Violation(
                        LEAD_COLLISION,
                        f"line {shift.line}: atom at {lead} blocks the "
                        f"advancing segment",
                    )
                )

    if constraints.enforce_cross_product:
        for site in move.cross_product_sites():
            if site in intended:
                continue
            if in_bounds(site) and grid[site]:
                violations.append(
                    Violation(
                        CROSS_PICKUP,
                        f"unintended AOD crossing at occupied site {site}",
                    )
                )

    n_lines = len(move.selected_lines())
    n_cross = len(move.selected_cross())
    if constraints.max_line_tones is not None and n_lines > constraints.max_line_tones:
        violations.append(
            Violation(
                TONE_BUDGET,
                f"{n_lines} line tones exceed budget {constraints.max_line_tones}",
            )
        )
    if (
        constraints.max_cross_tones is not None
        and n_cross > constraints.max_cross_tones
    ):
        violations.append(
            Violation(
                TONE_BUDGET,
                f"{n_cross} cross tones exceed budget {constraints.max_cross_tones}",
            )
        )

    if constraints.forbid_empty_moves and moved_atoms == 0:
        violations.append(Violation(EMPTY_MOVE, "move displaces zero atoms"))

    return violations
