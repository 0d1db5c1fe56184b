"""Atom-loss models during rearrangement (extension substrate).

Every real rearrangement loses atoms: background-gas collisions empty
traps at a rate set by the vacuum lifetime, and each tweezer hand-off
(pick up, drop off) has a finite failure probability.  The models here
quantify why schedule *length* matters physically — a schedule with
fewer, more parallel moves finishes sooner and hands each atom over
fewer times, so more atoms survive.  This is the systems argument behind
the paper's drive for parallelism, made measurable.

Defaults are typical published magnitudes: tens-of-seconds vacuum
lifetime, ~0.1-1 % loss per transfer pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.aod.executor import MoveApplier, apply_parallel_move
from repro.aod.schedule import MoveSchedule
from repro.aod.timing import DEFAULT_MOVE_TIMING, MoveTimingModel
from repro.errors import ConfigurationError
from repro.lattice.array import AtomArray
from repro.lattice.loading import as_rng


@dataclass(frozen=True)
class LossModel:
    """Loss channels during rearrangement.

    Attributes
    ----------
    vacuum_lifetime_s:
        1/e trap lifetime against background-gas collisions; applies to
        every trapped atom for the whole rearrangement duration.
    loss_per_transfer:
        Probability of losing an atom in one static<->mobile hand-off;
        each parallel move costs every moved atom two hand-offs.
    loss_per_site:
        Probability of losing a moved atom per lattice site of transport
        (heating during the frequency ramp).
    """

    vacuum_lifetime_s: float = 30.0
    loss_per_transfer: float = 2e-3
    loss_per_site: float = 1e-4

    def __post_init__(self) -> None:
        if self.vacuum_lifetime_s <= 0:
            raise ConfigurationError("vacuum_lifetime_s must be positive")
        for name in ("loss_per_transfer", "loss_per_site"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1)")

    def vacuum_survival(self, duration_us: float) -> float:
        """Survival probability over ``duration_us`` of wall time."""
        if duration_us < 0:
            raise ConfigurationError("duration_us must be >= 0")
        return math.exp(-duration_us * 1e-6 / self.vacuum_lifetime_s)

    def move_survival(self, steps: int) -> float:
        """Survival of one atom through one parallel move it takes part in."""
        transfer = (1.0 - self.loss_per_transfer) ** 2
        transport = (1.0 - self.loss_per_site) ** steps
        return transfer * transport


DEFAULT_LOSS_MODEL = LossModel()


@dataclass
class LossReport:
    """Outcome of a stochastic loss replay."""

    atoms_initial: int
    atoms_final: int
    lost_vacuum: int = 0
    lost_transfer: int = 0
    duration_us: float = 0.0
    final_array: AtomArray = field(default=None, repr=False)

    @property
    def atoms_lost(self) -> int:
        return self.atoms_initial - self.atoms_final

    @property
    def survival_fraction(self) -> float:
        if self.atoms_initial == 0:
            return 1.0
        return self.atoms_final / self.atoms_initial


def expected_atom_survival(
    schedule: MoveSchedule,
    mean_moves_per_atom: float,
    mean_steps_per_move: float = 1.0,
    loss: LossModel = DEFAULT_LOSS_MODEL,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
) -> float:
    """Analytic per-atom survival estimate for a schedule.

    Combines the vacuum decay over the schedule's motion time with the
    hand-off/transport losses of the average atom.
    """
    duration = timing.schedule_motion_us(schedule)
    vacuum = loss.vacuum_survival(duration)
    handling = loss.move_survival(
        max(1, round(mean_steps_per_move))
    ) ** mean_moves_per_atom
    return vacuum * handling


def simulate_losses(
    initial: AtomArray,
    schedule: MoveSchedule,
    loss: LossModel = DEFAULT_LOSS_MODEL,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
    rng: int | np.random.Generator | None = None,
) -> LossReport:
    """Replay ``schedule`` with stochastic atom loss.

    After each parallel move, every surviving atom faces the vacuum
    hazard of the move's duration and every *moved* atom additionally
    faces the hand-off/transport hazard.  Losing atoms only ever empties
    traps, so the remaining schedule stays executable (suffix shifts
    tolerate empty selected traps).  An invalid move raises
    :class:`~repro.errors.MoveError`, exactly as
    :func:`~repro.aod.executor.execute_schedule` would.

    Moves run through a :class:`~repro.aod.executor.MoveApplier`.  The
    hazards are computed once per distinct step count, and each move's
    hand-off and vacuum uniforms are drawn into one reused buffer with
    ``gen.random(out=...)`` — the same stream as ``gen.random(n)`` and
    as the ``n`` scalar draws of :func:`simulate_losses_reference`, so
    the two agree bit for bit (grid, counters, duration and generator
    state).  Atoms are only located when a draw falls below its hazard,
    and an array with no atom left draws nothing.  Step counts come from
    the schedule's table; no move object is built.
    """
    gen = as_rng(rng)
    array = initial.copy()
    report = LossReport(
        atoms_initial=array.n_atoms,
        atoms_final=array.n_atoms,
        final_array=array,
    )
    applier = MoveApplier(array.grid, schedule)
    cells = applier.flat
    steps_per_move = schedule.table().steps.tolist()
    hazards = {}
    for steps in set(steps_per_move):
        duration = timing.steps_duration_us(steps) + timing.settle_us
        hazards[steps] = (
            duration,
            1.0 - loss.move_survival(steps),
            1.0 - loss.vacuum_survival(duration),
        )
    draws = np.empty(cells.size)
    for index, steps in enumerate(steps_per_move):
        duration, p_move_loss, p_decay = hazards[steps]
        report.duration_us += duration
        landing = applier.apply(index)

        # Hand-off and transport loss for the moved atoms.
        if p_move_loss > 0 and landing.size:
            if landing.size > draws.size:  # a rogue bundle's repeated sites
                draws = np.empty(landing.size)
            u = gen.random(out=draws[: landing.size])
            if u.min() < p_move_loss:
                lost = landing[u < p_move_loss]
                cells[lost] = False
                report.lost_transfer += lost.size

        # Vacuum decay for everyone, over this move's duration: one draw
        # per atom in row-major order.  An atom merge (a rogue bundle
        # landing two atoms on one site) makes any tracked count wrong,
        # so the atoms are counted afresh.
        atoms = np.count_nonzero(cells) if p_decay > 0 else 0
        if atoms:
            u = gen.random(out=draws[:atoms])
            if u.min() < p_decay:
                decayed = np.flatnonzero(u < p_decay)
                cells[np.flatnonzero(cells)[decayed]] = False
                report.lost_vacuum += decayed.size

    report.atoms_final = array.n_atoms
    return report


def simulate_losses_reference(
    initial: AtomArray,
    schedule: MoveSchedule,
    loss: LossModel = DEFAULT_LOSS_MODEL,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
    rng: int | np.random.Generator | None = None,
) -> LossReport:
    """Site-by-site object walker kept as the oracle for :func:`simulate_losses`.

    Each move is applied first (so an invalid one raises its
    :class:`~repro.errors.MoveError` before any site is read), then its
    moved atoms are found by walking every shift's sites on a copy of
    the grid from before the move, and each draws its own scalar
    ``gen.random()``.
    """
    gen = as_rng(rng)
    array = initial.copy()
    report = LossReport(
        atoms_initial=array.n_atoms,
        atoms_final=array.n_atoms,
        final_array=array,
    )
    for move in schedule:
        duration = timing.move_duration_us(move) + timing.settle_us
        report.duration_us += duration

        # Which sites does this move displace?
        before = array.grid.copy()
        apply_parallel_move(array.grid, move)
        moved_sites: list[tuple[int, int]] = []
        for shift in move.shifts:
            for site in shift.sites():
                if before[site]:
                    moved_sites.append(shift.destination(site))

        # Hand-off and transport loss for the moved atoms.
        p_move_loss = 1.0 - loss.move_survival(move.steps)
        if p_move_loss > 0:
            for site in moved_sites:
                if gen.random() < p_move_loss:
                    array.grid[site] = False
                    report.lost_transfer += 1

        # Vacuum decay for everyone, over this move's duration.
        p_decay = 1.0 - loss.vacuum_survival(duration)
        if p_decay > 0:
            occupied = np.argwhere(array.grid)
            decays = gen.random(len(occupied)) < p_decay
            for (row, col) in occupied[decays]:
                array.grid[row, col] = False
                report.lost_vacuum += 1

    report.atoms_final = array.n_atoms
    report.final_array = array
    return report
