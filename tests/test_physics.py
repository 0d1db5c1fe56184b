"""Tests for the atom-loss physics substrate."""

from __future__ import annotations

import pytest

from repro.aod.executor import execute_schedule
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.timing import MoveTimingModel
from repro.core.qrm import QrmScheduler
from repro.errors import ConfigurationError, MoveError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import Direction
from repro.lattice.loading import load_uniform
from repro.physics.loss import (
    LossModel,
    expected_atom_survival,
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


class TestExpectedSurvival:
    def test_empty_schedule_is_lossless(self, geo8):
        schedule = MoveSchedule(geo8)
        assert expected_atom_survival(schedule, 0.0) == pytest.approx(1.0)

    def test_longer_schedules_lose_more(self, geo8):
        move = ParallelMove.of([LineShift(Direction.EAST, 0, 0, 2)])
        short = MoveSchedule(geo8)
        short.append(move)
        long = MoveSchedule(geo8)
        for _ in range(50):
            long.append(move)
        assert expected_atom_survival(long, 5.0) < expected_atom_survival(short, 1.0)


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
        expected = sum(timing.move_duration_us(m) + timing.settle_us for m in schedule)
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
