"""Tests for the atom-loss physics substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.aod.executor import apply_parallel_move, execute_schedule
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.timing import MoveTimingModel
from repro.core.qrm import QrmScheduler
from repro.errors import ConfigurationError, MoveError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Direction
from repro.lattice.loading import load_uniform
from repro.physics.loss import (
    LossModel,
    simulate_losses,
    simulate_losses_reference,
)


class TestLossModel:
    def test_vacuum_survival_decays(self):
        loss = LossModel(vacuum_lifetime_s=1.0)
        assert loss.vacuum_survival(0.0) == 1.0
        one_s = loss.vacuum_survival(1e6)
        assert one_s == pytest.approx(0.3679, abs=1e-3)
        assert loss.vacuum_survival(2e6) < one_s

    def test_move_survival(self):
        loss = LossModel(loss_per_transfer=0.1, loss_per_site=0.01)
        expected = (0.9**2) * (0.99**3)
        assert loss.move_survival(3) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LossModel(vacuum_lifetime_s=0)
        with pytest.raises(ConfigurationError):
            LossModel(loss_per_transfer=1.0)
        with pytest.raises(ConfigurationError):
            LossModel(loss_per_site=-0.1)
        with pytest.raises(ConfigurationError):
            LossModel().vacuum_survival(-1.0)

    def test_dict_round_trip(self):
        loss = LossModel(vacuum_lifetime_s=2.5, loss_per_transfer=0.01)
        assert loss.to_dict() == {
            "vacuum_lifetime_s": 2.5,
            "loss_per_transfer": 0.01,
            "loss_per_site": 1e-4,
        }
        assert LossModel.from_dict(loss.to_dict()) == loss
        assert LossModel.from_dict({}) == LossModel()

    @pytest.mark.parametrize(
        "data",
        [
            {"vacuum_lifetime_s": -1},
            {"vacuum_lifetime_s": float("nan")},
            {"vacuum_lifetime_s": "30"},
            {"loss_per_transfer": True},
            {"loss_per_site": None},
            {"loss_per_site": 1.5},
            {"lifetime": 30.0},
            [30.0, 2e-3, 1e-4],
        ],
    )
    def test_from_dict_refuses_wrong_types_and_values(self, data):
        with pytest.raises(ConfigurationError):
            LossModel.from_dict(data)


class TestSimulateLosses:
    def _schedule(self, array):
        return QrmScheduler(array.geometry).schedule(array).schedule

    def test_no_loss_channels_means_pure_replay(self, array20):
        schedule = self._schedule(array20)
        loss = LossModel(
            vacuum_lifetime_s=1e12, loss_per_transfer=0.0, loss_per_site=0.0
        )
        report = simulate_losses(array20, schedule, loss=loss, rng=1)
        assert report.atoms_final == array20.n_atoms
        assert report.lost_vacuum == 0
        assert report.lost_transfer == 0
        assert report.survival_fraction == 1.0

    def test_losses_reduce_atom_count(self, array20):
        schedule = self._schedule(array20)
        loss = LossModel(
            vacuum_lifetime_s=0.05, loss_per_transfer=0.05, loss_per_site=0.001
        )
        report = simulate_losses(array20, schedule, loss=loss, rng=2)
        assert report.atoms_final < array20.n_atoms
        assert (
            report.atoms_initial - report.atoms_final
            == report.lost_vacuum + report.lost_transfer
        )

    def test_duration_matches_timing_model(self, array20):
        schedule = self._schedule(array20)
        timing = MoveTimingModel(
            pickup_us=10, drop_us=10, transfer_us_per_site=1, settle_us=2
        )
        loss = LossModel(vacuum_lifetime_s=1e12)
        report = simulate_losses(array20, schedule, loss=loss, timing=timing, rng=3)
        expected = sum(
            timing.steps_duration_us(m.steps) + timing.settle_us for m in schedule
        )
        assert report.duration_us == pytest.approx(expected)

    def test_reproducible_with_seed(self, array20):
        schedule = self._schedule(array20)
        loss = LossModel(vacuum_lifetime_s=0.1, loss_per_transfer=0.01)
        a = simulate_losses(array20, schedule, loss=loss, rng=7)
        b = simulate_losses(array20, schedule, loss=loss, rng=7)
        assert a.final_array == b.final_array
        assert a.lost_vacuum == b.lost_vacuum

    def test_initial_array_untouched(self, array20):
        schedule = self._schedule(array20)
        before = array20.copy()
        simulate_losses(array20, schedule, rng=1)
        assert array20 == before

    def test_remaining_schedule_stays_executable(self, geo20):
        """Losing atoms mid-schedule never breaks later moves."""
        array = load_uniform(geo20, 0.5, rng=17)
        schedule = self._schedule(array)
        loss = LossModel(
            vacuum_lifetime_s=0.01, loss_per_transfer=0.1, loss_per_site=0.01
        )
        # simulate_losses raises if any move becomes invalid.
        report = simulate_losses(array, schedule, loss=loss, rng=4)
        assert report.atoms_final >= 0

    @pytest.mark.parametrize(
        "shift",
        [LineShift(Direction.EAST, 9, 0, 3), LineShift(Direction.EAST, 2, 5, 10)],
        ids=["line-outside", "span-past-edge"],
    )
    @pytest.mark.parametrize("simulate", [simulate_losses, simulate_losses_reference])
    def test_out_of_grid_shift_raises_move_error(self, geo8, shift, simulate):
        array = AtomArray.full(geo8)
        schedule = MoveSchedule(geo8, moves=[ParallelMove.of([shift])])
        with pytest.raises(MoveError) as raised:
            simulate(array, schedule, rng=0)
        with pytest.raises(MoveError) as expected:
            execute_schedule(array, schedule, constraints=None)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("simulate", [simulate_losses, simulate_losses_reference])
    def test_collision_with_a_lost_atom_still_raises(self, geo8, simulate):
        # Every atom decays in the first move, so the second move's atom
        # lands where the static one would have been.  The schedule is
        # judged on its lossless trajectory, so it is invalid all the same,
        # and nothing is drawn before the error.
        grid = np.zeros(geo8.shape, dtype=bool)
        grid[0, 0] = grid[0, 2] = True
        array = AtomArray(geo8, grid)
        schedule = MoveSchedule(
            geo8,
            moves=[
                ParallelMove.of([LineShift(Direction.EAST, 3, 0, 2)]),
                ParallelMove.of([LineShift(Direction.EAST, 0, 0, 1, steps=2)]),
            ],
        )
        gen = np.random.default_rng(0)
        with pytest.raises(MoveError) as raised:
            simulate(array, schedule, LossModel(vacuum_lifetime_s=1e-9), rng=gen)
        with pytest.raises(MoveError) as expected:
            execute_schedule(array, schedule, constraints=None)
        assert str(raised.value) == str(expected.value)
        assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestLossLaw:
    """The sampler against each atom's exact survival on one fixed schedule.

    Rates are inflated so every site's survival is far from 1: a 0.1 s
    vacuum lifetime, 5 % loss per hand-off and 1 % per site of transport.
    """

    LOSS = LossModel(vacuum_lifetime_s=0.1, loss_per_transfer=0.05, loss_per_site=0.01)
    TIMING = MoveTimingModel()
    SEEDS = 2000
    #: No occupied final site may read further than this many binomial
    #: standard deviations from its exact survival: a family-wise false
    #: alarm of about 1e-3 over the ~130 sites.
    Z_BOUND = 4.5

    @pytest.fixture(scope="class")
    def replayed(self):
        geometry = ArrayGeometry.square(16, 10)
        array = load_uniform(geometry, 0.5, rng=5)
        schedule = QrmScheduler(geometry).schedule(array).schedule
        occupancy = np.zeros(geometry.shape)
        transfer = vacuum = 0
        for seed in range(self.SEEDS):
            report = simulate_losses(array, schedule, self.LOSS, self.TIMING, rng=seed)
            occupancy += report.final_array.grid
            transfer += report.lost_transfer
            vacuum += report.lost_vacuum
        means = (occupancy / self.SEEDS, transfer / self.SEEDS, vacuum / self.SEEDS)
        return array, schedule, means

    def _exact(self, array, schedule):
        """Each atom's final site and exact survival, plus the expected
        transfer losses; every atom is walked alone, move by move."""
        loss, timing = self.LOSS, self.TIMING
        p_decay = [
            1
            - loss.vacuum_survival(
                timing.steps_duration_us(m.steps) + timing.settle_us
            )
            for m in schedule
        ]
        survival = np.zeros(array.geometry.shape)
        expected_transfer = 0.0
        for site in zip(*np.nonzero(array.grid)):
            grid = np.zeros(array.geometry.shape, dtype=bool)
            grid[site] = True
            alive = 1.0  # P(still trapped at the start of the move)
            for move, decay in zip(schedule, p_decay):
                if apply_parallel_move(grid, move):
                    p_move = 1 - loss.move_survival(move.steps)
                    expected_transfer += alive * p_move
                    alive *= 1 - p_move
                alive *= 1 - decay
            survival[np.nonzero(grid)] = alive
        return survival, expected_transfer

    def test_site_occupancy_matches_exact_survival(self, replayed):
        array, schedule, (occupancy, _, _) = replayed
        exact, _ = self._exact(array, schedule)
        duration = sum(self.TIMING.steps_duration_us(m.steps) for m in schedule)
        duration += self.TIMING.settle_us * len(schedule)
        vacuum = math.exp(-duration * 1e-6 / self.LOSS.vacuum_lifetime_s)
        assert exact.max() == pytest.approx(vacuum, rel=1e-9)  # a never-moved atom
        ending = exact > 0
        assert ending.sum() == array.n_atoms
        assert (occupancy[~ending] == 0).all()
        p = exact[ending]
        z = (occupancy[ending] - p) / np.sqrt(p * (1 - p) / self.SEEDS)
        assert np.abs(z).max() < self.Z_BOUND
        assert 0.6 < (z**2).mean() < 1.5  # chi-squared per degree of freedom

    def test_transfer_and_vacuum_counts_match_exact_means(self, replayed):
        array, schedule, (_, transfer, vacuum) = replayed
        exact, expected_transfer = self._exact(array, schedule)
        expected_vacuum = array.n_atoms - exact.sum() - expected_transfer
        # Sums of independent per-atom Bernoullis: variance at most the mean.
        for mean, expected in (
            (transfer, expected_transfer),
            (vacuum, expected_vacuum),
        ):
            bound = self.Z_BOUND * math.sqrt(expected / self.SEEDS)
            assert abs(mean - expected) < bound
