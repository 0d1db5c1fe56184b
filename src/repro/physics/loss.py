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

Replay costs atoms, not atoms x moves.  An atom's path through a
schedule does not depend on which other atoms were lost, and vacuum
loss is memoryless, so :func:`simulate_losses` walks the lossless
trajectory once with atom labels, draws one lifetime per atom and one
hand-off per carried atom, and resolves every atom at once.  The walk
steps through runs of moves rather than moves: consecutive moves on one
axis that drive distinct lines touch disjoint sites, so a run of them
moves its labels in one gather, clear and scatter.
:func:`simulate_losses_reference` is its scalar twin, drawing the same
uniforms one by one in the same order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.aod.executor import MoveApplier, apply_parallel_move
from repro.aod.schedule import MoveSchedule
from repro.aod.timing import DEFAULT_MOVE_TIMING, MoveTimingModel
from repro.config import known_fields
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
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(f"{name} must be a number, got {value!r}")
        if not self.vacuum_lifetime_s > 0:
            raise ConfigurationError(
                f"vacuum_lifetime_s must be positive, got {self.vacuum_lifetime_s}"
            )
        for name in ("loss_per_transfer", "loss_per_site"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1), got {getattr(self, name)}"
                )

    def to_dict(self) -> dict[str, float]:
        """The JSON form campaign specs, trial keys and journals carry."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: Any) -> "LossModel":
        return cls(**known_fields(cls, data))

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
    def survival_fraction(self) -> float:
        if self.atoms_initial == 0:
            return 1.0
        return self.atoms_final / self.atoms_initial


def _hazards(steps, loss: LossModel, timing: MoveTimingModel) -> tuple:
    """``(duration_us, p_move_loss, p_decay)`` of a move of ``steps`` sites.

    ``p_move_loss`` is the chance a carried atom is lost to its hand-offs
    and transport, ``p_decay`` that any atom decays over the move (its
    settle gap included).  A negative duration raises
    :class:`~repro.errors.ConfigurationError`.
    """
    duration = timing.steps_duration_us(steps) + timing.settle_us
    return (
        duration,
        1.0 - loss.move_survival(steps),
        1.0 - loss.vacuum_survival(duration),
    )


def simulate_losses(
    initial: AtomArray,
    schedule: MoveSchedule,
    loss: LossModel = DEFAULT_LOSS_MODEL,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
    rng: int | np.random.Generator | None = None,
) -> LossReport:
    """Replay ``schedule`` with stochastic atom loss.

    Within each move every carried atom first faces the hand-off and
    transport hazard, then every living atom the vacuum hazard of the
    move's duration.  Losing atoms only ever empties traps, and suffix
    shifts tolerate empty traps, so an atom's path does not depend on
    which other atoms were lost.  The replay therefore walks the lossless
    trajectory once, carrying atom labels through the moves a run at a
    time (:meth:`~repro.aod.executor.MoveApplier.carry`: a run is a
    stretch of consecutive moves on one axis driving distinct lines,
    which commute), reads every carried atom and its move off the walk,
    and then draws, in two bulk calls:

    * one lifetime uniform per atom (atom ``k`` is the ``k``-th occupied
      site of ``initial`` in row-major order), when some move can decay.
      Vacuum loss is memoryless, so atom ``k`` decays in the first move
      ``m`` where ``u_k >= S_m``, ``S`` being the running product of
      ``1 - p_decay`` over the moves;
    * one hand-off uniform per carried atom per move, in walk order, when
      some move can lose a carried atom.  An atom fails at its first
      entry with ``u < p_move_loss``.

    An atom is lost in the earlier of its two moves; a tie is a transfer
    loss, since a hand-off comes before the decay within a move.  The
    final grid holds the walk's final sites of the atoms not lost.  A
    channel with no atom or no positive hazard draws nothing.  Hazards
    are computed once per distinct step count.

    An invalid schedule raises the :class:`~repro.errors.MoveError` that
    ``execute_schedule(initial, schedule, constraints=None)`` raises (it
    is judged on the lossless trajectory; a move that drives one line
    twice is refused first), and a negative move duration
    :class:`~repro.errors.ConfigurationError`; both before anything is
    drawn, so the generator is untouched.

    :func:`simulate_losses_reference` draws the same uniforms one by one
    in the same order, so the two agree bit for bit (grid, counters,
    duration and generator state).
    """
    gen = as_rng(rng)
    distinct, inverse = np.unique(schedule.table().steps, return_inverse=True)
    hazards = [_hazards(steps, loss, timing) for steps in distinct.tolist()]
    duration, p_move_loss, p_decay = np.array(hazards).reshape(-1, 3)[inverse].T
    n_moves = len(inverse)
    duration_us = 0.0
    for move_us in duration.tolist():
        duration_us += move_us

    # The lossless walk (any MoveError is raised here, before a draw).
    occupied = np.flatnonzero(initial.grid)
    n_atoms = occupied.size
    labels = np.full(initial.grid.shape, -1, dtype=np.intp)
    labels.reshape(-1)[occupied] = np.arange(n_atoms)
    entries, entry_move = MoveApplier(initial.grid, schedule).carry(labels)

    decayed_at = np.full(n_atoms, n_moves)
    if n_atoms and (p_decay > 0).any():
        survival = np.cumprod(1.0 - p_decay)
        decayed_at = np.searchsorted(-survival, -gen.random(n_atoms))
    dropped_at = np.full(n_atoms, n_moves)
    if entries.size and (p_move_loss > 0).any():
        failed = np.flatnonzero(gen.random(entries.size) < p_move_loss[entry_move])
        atoms, first = np.unique(entries[failed], return_index=True)
        dropped_at[atoms] = entry_move[failed[first]]

    # Each atom's verdict, at the site the walk left it on.
    final = labels.reshape(-1)
    sites = np.flatnonzero(final >= 0)
    atoms = final[sites]
    lost = np.minimum(decayed_at, dropped_at)[atoms] < n_moves
    n_lost = int(np.count_nonzero(lost))
    n_transfer = int(np.count_nonzero(lost & (dropped_at <= decayed_at)[atoms]))
    grid = np.zeros(final.size, dtype=bool)
    grid[sites[~lost]] = True
    return LossReport(
        atoms_initial=n_atoms,
        atoms_final=int(np.count_nonzero(grid)),
        lost_vacuum=n_lost - n_transfer,
        lost_transfer=n_transfer,
        duration_us=duration_us,
        final_array=AtomArray(initial.geometry, grid.reshape(initial.grid.shape)),
    )


def simulate_losses_reference(
    initial: AtomArray,
    schedule: MoveSchedule,
    loss: LossModel = DEFAULT_LOSS_MODEL,
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING,
    rng: int | np.random.Generator | None = None,
) -> LossReport:
    """Per-atom scalar walker kept as the oracle for :func:`simulate_losses`.

    Walks the move objects site by site on a label grid: each move is
    first checked by :func:`~repro.aod.executor.apply_parallel_move` on
    the labels' occupancy (raising its :class:`~repro.errors.MoveError`),
    then every selected site's atom is picked up and lands where its
    shift takes it.  Only then does it draw, one scalar ``gen.random()``
    at a time: every atom's lifetime, then every carried atom's hand-off,
    in walk order.  Each atom's decay move is a bisection of the running
    survival product.
    """
    gen = as_rng(rng)
    moves = list(schedule)
    hazards = [_hazards(move.steps, loss, timing) for move in moves]
    n_moves = len(moves)
    report = LossReport(atoms_initial=initial.n_atoms, atoms_final=0)
    for duration, _, _ in hazards:
        report.duration_us += duration

    labels = np.full(initial.grid.shape, -1, dtype=np.intp)
    for label, site in enumerate(zip(*np.nonzero(initial.grid))):
        labels[site] = label
    entries: list[tuple[int, int]] = []  # (move, carried label), in walk order
    for index, move in enumerate(moves):
        apply_parallel_move(labels >= 0, move)
        horizontal = move.is_horizontal
        picked: list[tuple[tuple[int, int], tuple[int, int], int]] = []
        for shift in move.shifts:
            k = shift.steps * sum(shift.direction.delta)
            for i in range(shift.span_start, shift.span_stop):
                site = (shift.line, i) if horizontal else (i, shift.line)
                if labels[site] >= 0:
                    dest = (shift.line, i + k) if horizontal else (i + k, shift.line)
                    picked.append((site, dest, int(labels[site])))
        for site, _, _ in picked:
            labels[site] = -1
        for _, dest, label in picked:
            entries.append((index, label))
            labels[dest] = label

    decayed_at = [n_moves] * initial.n_atoms
    if initial.n_atoms and any(p_decay > 0 for _, _, p_decay in hazards):
        survival = []  # -S_m, ascending
        running = 1.0
        for _, _, p_decay in hazards:
            running *= 1.0 - p_decay
            survival.append(-running)
        for label in range(initial.n_atoms):
            decayed_at[label] = bisect.bisect_left(survival, -gen.random())
    dropped_at = [n_moves] * initial.n_atoms
    if entries and any(p_move_loss > 0 for _, p_move_loss, _ in hazards):
        for index, label in entries:
            failed = gen.random() < hazards[index][1]
            if failed and dropped_at[label] == n_moves:
                dropped_at[label] = index

    grid = np.zeros(initial.grid.shape, dtype=bool)
    for site in zip(*np.nonzero(labels >= 0)):
        label = labels[site]
        if min(decayed_at[label], dropped_at[label]) == n_moves:
            grid[site] = True
        elif dropped_at[label] <= decayed_at[label]:
            report.lost_transfer += 1
        else:
            report.lost_vacuum += 1
    report.final_array = AtomArray(initial.geometry, grid)
    report.atoms_final = report.final_array.n_atoms
    return report
