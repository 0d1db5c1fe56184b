"""Independent schedule validation.

Every benchmark and integration test funnels schedules through
:func:`validate_schedule`, which replays the moves and checks the
properties the physics demands:

* every move respects the crossed-AOD constraints at its execution time;
* no collisions, no atoms pushed off the grid;
* atom count conserved end to end;
* the final state is reported against the target region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aod.constraints import AodConstraints, DEFAULT_CONSTRAINTS, Violation
from repro.aod.executor import execute_schedule
from repro.aod.schedule import MoveSchedule
from repro.lattice.array import AtomArray
from repro.lattice.metrics import defect_count, target_fill_fraction


@dataclass(frozen=True)
class ValidationReport:
    """Result of replaying a schedule against its initial array."""

    algorithm: str
    n_moves: int
    n_atom_displacements: int
    initial_atoms: int
    final_atoms: int
    atoms_conserved: bool
    violations: tuple[tuple[int, Violation], ...]
    initial_defects: int
    final_defects: int
    final_target_fill: float
    final_array: AtomArray = field(compare=False)

    @property
    def ok(self) -> bool:
        return self.atoms_conserved and not self.violations

    @property
    def defect_free(self) -> bool:
        return self.final_defects == 0

    def format(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        return (
            f"{self.algorithm}: {self.n_moves} moves, "
            f"{self.n_atom_displacements} atom displacements, "
            f"atoms {self.initial_atoms}->{self.final_atoms}, "
            f"defects {self.initial_defects}->{self.final_defects} "
            f"(target fill {self.final_target_fill:.1%}) [{status}]"
        )


def validate_schedule(
    initial: AtomArray,
    schedule: MoveSchedule,
    constraints: AodConstraints = DEFAULT_CONSTRAINTS,
) -> ValidationReport:
    """Replay ``schedule`` and build a :class:`ValidationReport`."""
    final, report = execute_schedule(
        initial, schedule, constraints=constraints, strict=False
    )
    return ValidationReport(
        algorithm=schedule.algorithm,
        n_moves=report.n_moves,
        n_atom_displacements=report.n_atom_displacements,
        initial_atoms=initial.n_atoms,
        final_atoms=final.n_atoms,
        atoms_conserved=initial.n_atoms == final.n_atoms,
        violations=tuple(report.violations),
        initial_defects=defect_count(initial),
        final_defects=defect_count(final),
        final_target_fill=target_fill_fraction(final),
        final_array=final,
    )
