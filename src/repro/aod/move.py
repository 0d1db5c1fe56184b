"""Move primitives under the crossed-AOD tweezer model.

The paper's 2-D AOD generates a *grid* of movable tweezers: the control
system selects a set of rows and a set of columns, a trap appears at every
(row, column) crossing, and all trapped atoms then move in lockstep — the
same direction and the same step size for everyone (paper Sec. II-B).

The rearrangement algorithms in this library emit two shapes of motion,
both expressible as a :class:`LineShift`:

* *suffix shifts* — every site of a row (or column) segment moves one
  step toward the array centre, closing a hole (the QRM/typical kernel);
* *single-atom transports* — one site moves ``steps`` sites along a line
  (the MTA1 baseline and the repair stage).

A :class:`ParallelMove` bundles line shifts that execute simultaneously,
one per selected line, all sharing direction and step count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MoveError
from repro.lattice.geometry import Direction


@dataclass(frozen=True)
class LineShift:
    """A segment of one line moving ``steps`` sites along ``direction``.

    ``line`` is the row index for horizontal moves and the column index
    for vertical moves.  ``span_start``/``span_stop`` delimit the moved
    segment along the *other* axis, half-open ``[span_start, span_stop)``,
    always in increasing-index order regardless of the move direction.
    Every trap site in the span is selected — occupied or not; empty
    selected traps simply carry no atom.
    """

    direction: Direction
    line: int
    span_start: int
    span_stop: int
    steps: int = 1

    def __post_init__(self) -> None:
        if self.line < 0:
            raise MoveError(f"line index must be >= 0, got {self.line}")
        if self.span_start < 0 or self.span_stop <= self.span_start:
            raise MoveError(f"invalid span [{self.span_start}, {self.span_stop})")
        if self.steps < 1:
            raise MoveError(f"steps must be >= 1, got {self.steps}")

    @classmethod
    def trusted(
        cls,
        direction: Direction,
        line: int,
        span_start: int,
        span_stop: int,
        steps: int = 1,
    ) -> "LineShift":
        """Build a shift without ``__post_init__`` validation.

        For bulk producers (the vectorised QRM pass) whose spans are
        valid by construction and property-tested against the validating
        reference path; everyone else should use the normal constructor.
        """
        shift = object.__new__(cls)
        fields = shift.__dict__
        fields["direction"] = direction
        fields["line"] = line
        fields["span_start"] = span_start
        fields["span_stop"] = span_stop
        fields["steps"] = steps
        return shift

    def sites(self) -> list[tuple[int, int]]:
        """Selected trap sites ``(row, col)`` of this shift."""
        if self.direction.is_horizontal:
            return [(self.line, c) for c in range(self.span_start, self.span_stop)]
        return [(r, self.line) for r in range(self.span_start, self.span_stop)]

    def destination(self, site: tuple[int, int]) -> tuple[int, int]:
        """Where an atom at ``site`` ends up after this shift."""
        dr, dc = self.direction.delta
        return site[0] + dr * self.steps, site[1] + dc * self.steps

    def leading_sites(self) -> list[tuple[int, int]]:
        """The ``steps`` sites the segment advances into.

        These must hold no (unselected) atom or the move collides.
        """
        dr, dc = self.direction.delta
        if dr + dc > 0:  # SOUTH or EAST: advancing toward larger indices
            lead = range(self.span_stop, self.span_stop + self.steps)
        else:  # NORTH or WEST: advancing toward smaller indices
            lead = range(self.span_start - self.steps, self.span_start)
        if self.direction.is_horizontal:
            return [(self.line, c) for c in lead]
        return [(r, self.line) for r in lead]


@dataclass(frozen=True)
class ParallelMove:
    """Simultaneous line shifts sharing direction and step size.

    This is one physical AOD move: the union of the shifts' lines and
    spans defines the selected row/column tone sets.  Construction
    enforces the lockstep rules (uniform direction and step count, at
    most one shift per line); grid-dependent safety (collisions,
    cross-product pickup) is checked by :mod:`repro.aod.constraints`.
    """

    direction: Direction
    steps: int
    shifts: tuple[LineShift, ...]
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.shifts:
            raise MoveError("a ParallelMove needs at least one LineShift")
        lines_seen = set()
        for shift in self.shifts:
            if shift.direction is not self.direction:
                raise MoveError(
                    f"shift direction {shift.direction} differs from move "
                    f"direction {self.direction}"
                )
            if shift.steps != self.steps:
                raise MoveError(
                    f"shift steps {shift.steps} differ from move steps "
                    f"{self.steps}"
                )
            if shift.line in lines_seen:
                raise MoveError(f"two shifts target the same line {shift.line}")
            lines_seen.add(shift.line)

    @classmethod
    def trusted(
        cls,
        direction: Direction,
        steps: int,
        shifts: tuple[LineShift, ...],
        tag: str = "",
    ) -> "ParallelMove":
        """Bundle shifts without the lockstep re-validation.

        Counterpart of :meth:`LineShift.trusted` for bulk producers that
        guarantee uniform direction/steps and distinct lines upfront.
        """
        move = object.__new__(cls)
        fields = move.__dict__
        fields["direction"] = direction
        fields["steps"] = steps
        fields["shifts"] = shifts
        fields["tag"] = tag
        return move

    @classmethod
    def of(cls, shifts: list[LineShift], tag: str = "") -> "ParallelMove":
        """Bundle pre-validated shifts, inferring direction and steps."""
        if not shifts:
            raise MoveError("cannot build a ParallelMove from zero shifts")
        return cls(
            direction=shifts[0].direction,
            steps=shifts[0].steps,
            shifts=tuple(shifts),
            tag=tag,
        )

    @property
    def n_lines(self) -> int:
        return len(self.shifts)

    @property
    def is_horizontal(self) -> bool:
        return self.direction.is_horizontal

    def selected_lines(self) -> list[int]:
        """Sorted tone indices on the line axis (rows if horizontal)."""
        return sorted(shift.line for shift in self.shifts)

    def selected_cross(self) -> list[int]:
        """Sorted tone indices on the span axis (cols if horizontal)."""
        cross: set[int] = set()
        for shift in self.shifts:
            cross.update(range(shift.span_start, shift.span_stop))
        return sorted(cross)

    def sites(self) -> list[tuple[int, int]]:
        """All intended trap sites across the shifts."""
        out: list[tuple[int, int]] = []
        for shift in self.shifts:
            out.extend(shift.sites())
        return out

    def cross_product_sites(self) -> list[tuple[int, int]]:
        """Every site of selected-lines x selected-cross (the AOD grid).

        Includes the unintended crossings that the constraint checker
        must prove harmless.
        """
        lines = self.selected_lines()
        cross = self.selected_cross()
        if self.is_horizontal:
            return [(r, c) for r in lines for c in cross]
        return [(r, c) for c in lines for r in cross]

    def __len__(self) -> int:
        return len(self.shifts)
