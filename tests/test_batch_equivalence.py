"""Bit-identity of batched QRM scheduling and the batch-first API.

:meth:`repro.core.qrm.QrmScheduler.schedule_batch` stacks N
same-geometry trials into one ``(trial, row, col)`` analysis (a single
array is a batch of one); its differential oracle is N independent
``qrm-reference`` calls, which run the per-command
:func:`~repro.core.passes.run_pass_reference` — same schedules, same
tags, same pass outcomes, same iteration statistics, same convergence,
same repair, for every batch size and for mask-derived per-line scan
limits.  The suite also pins the API around it: the registry's uniform
factory signature and ``-reference`` keys, the loop fallback of
:func:`repro.baselines.base.schedule_batch`, and the campaign engine's
batched execution (byte-identical aggregates, shared cache entries).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    assert_pass_outcomes_identical,
    assert_results_identical,
    atom_arrays,
    campaign_specs,
    geometries,
    masked_geometries,
    occupancy_grids,
    rectangular_geometries,
    scan_limits,
)

from repro.baselines.base import (
    DEFAULT_ALGORITHMS,
    get_algorithm,
    register_algorithm,
    resolve_algorithms,
    schedule_batch,
    unregister_algorithm,
)
from repro.config import MASK_SCAN_LIMIT, QrmParameters, ScanMode
from repro.core.qrm import QrmScheduler
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform

#: Batch sizes the equivalence property sweeps: the singleton batch, a
#: small odd group, and one larger than any strategy-drawn trial pool.
BATCH_SIZES = (1, 3, 17)


def _batch_of(draw_grid, geometry, count):
    return [AtomArray(geometry, draw_grid(geometry)) for _ in range(count)]


def _assert_batch_matches_reference(geometry, arrays, params):
    reference = get_algorithm("qrm-reference", geometry, **vars(params))
    expected = [reference.schedule(array) for array in arrays]
    actual = QrmScheduler(geometry, params).schedule_batch(arrays)
    assert len(actual) == len(expected)
    for ours, theirs in zip(actual, expected):
        assert_results_identical(ours, theirs)
        assert ours.iterations == theirs.iterations
        assert ours.repair_moves == theirs.repair_moves
        assert len(ours.pass_outcomes) == len(theirs.pass_outcomes)
        for mine, other in zip(ours.pass_outcomes, theirs.pass_outcomes):
            assert_pass_outcomes_identical(mine, other)
    return actual


def _draw_params(data, scan_limit):
    return QrmParameters(
        scan_mode=data.draw(st.sampled_from((ScanMode.PIPELINED, ScanMode.FRESH))),
        merge_mirror_quadrants=data.draw(st.booleans()),
        enable_repair=data.draw(st.booleans()),
        scan_limit=scan_limit,
    )


class TestBatchedEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), geometry=geometries() | rectangular_geometries())
    def test_batched_schedule_is_bit_identical(self, data, geometry):
        count = data.draw(st.sampled_from(BATCH_SIZES))
        arrays = [
            AtomArray(geometry, data.draw(occupancy_grids(geometry)))
            for _ in range(count)
        ]
        params = _draw_params(data, data.draw(scan_limits()))
        _assert_batch_matches_reference(geometry, arrays, params)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), geometry=masked_geometries())
    def test_masked_batches_with_per_line_limits(self, data, geometry):
        # Mask-derived per-line s_en bounds differ per quadrant and line;
        # the folded scan lays them out once per trial of the stack.
        count = data.draw(st.sampled_from(BATCH_SIZES))
        arrays = [
            AtomArray(geometry, data.draw(occupancy_grids(geometry)))
            for _ in range(count)
        ]
        params = _draw_params(data, MASK_SCAN_LIMIT)
        _assert_batch_matches_reference(geometry, arrays, params)

    @pytest.mark.parametrize("fill", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("mode", [ScanMode.PIPELINED, ScanMode.FRESH])
    def test_mixed_fill_stack_at_fixed_geometry(self, fill, mode, rng):
        geometry = ArrayGeometry.square(16, 10)
        params = QrmParameters(scan_mode=mode)
        arrays = [
            load_uniform(geometry, fill, rng=np.random.default_rng(seed))
            for seed in range(8)
        ]
        # An already-compact array leaves the stack after one iteration
        # while the loads keep iterating, so later iterations drain a
        # subset of the trials and write only that subset back.
        compact = QrmScheduler(geometry, params).schedule(arrays[0]).final
        arrays.insert(3, compact)
        grids = [array.grid.copy() for array in arrays]
        results = _assert_batch_matches_reference(geometry, arrays, params)
        assert len({result.iterations_used for result in results}) > 1
        for array, grid in zip(arrays, grids):
            assert np.array_equal(array.grid, grid)  # inputs are not modified

    def test_engine_reuse_across_calls(self):
        geometry = ArrayGeometry.square(12, 6)
        params = QrmParameters()
        engine = QrmScheduler(geometry, params)
        reference = get_algorithm("qrm-reference", geometry)
        batches = [
            [
                load_uniform(geometry, 0.5, rng=np.random.default_rng(10 * seed + k))
                for k in range(3)
            ]
            for seed in range(4)
        ]
        first = [engine.schedule_batch(arrays) for arrays in batches]
        # The same engine, every batch again: nothing carries over.
        for arrays, results in zip(batches, first):
            again = engine.schedule_batch(arrays)
            for ours, repeat, array in zip(results, again, arrays):
                expected = reference.schedule(array)
                assert_results_identical(ours, expected)
                assert_results_identical(repeat, expected)

    def test_empty_batch(self):
        assert QrmScheduler(ArrayGeometry.square(8)).schedule_batch([]) == []

    def test_geometry_mismatch_rejected(self):
        batched = QrmScheduler(ArrayGeometry.square(8))
        stray = load_uniform(ArrayGeometry.square(10), 0.5, rng=0)
        with pytest.raises(ValueError, match="geometry"):
            batched.schedule_batch([stray])

    def test_amortised_wall_time_convention(self):
        geometry = ArrayGeometry.square(12, 6)
        arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(4)]
        results = QrmScheduler(geometry).schedule_batch(arrays)
        times = {result.wall_time_s for result in results}
        assert len(times) == 1  # every trial carries batch time / N
        assert times.pop() > 0


class TestScheduleBatchDispatch:
    @settings(max_examples=25, deadline=None)
    @given(array=atom_arrays(), count=st.integers(min_value=1, max_value=4))
    def test_fallback_loops_schedule(self, array, count):
        algorithm = get_algorithm("tetris", array.geometry)
        assert not callable(getattr(algorithm, "schedule_batch", None))
        expected = [algorithm.schedule(array) for _ in range(count)]
        actual = schedule_batch(algorithm, [array] * count)
        for ours, reference in zip(actual, expected):
            assert_results_identical(ours, reference)

    def test_qrm_scheduler_dispatches_to_batched_engine(self):
        geometry = ArrayGeometry.square(12, 6)
        scheduler = get_algorithm("qrm", geometry)
        assert callable(getattr(scheduler, "schedule_batch", None))
        arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(3)]
        expected = [scheduler.schedule(array) for array in arrays]
        for ours, reference in zip(schedule_batch(scheduler, arrays), expected):
            assert_results_identical(ours, reference)

    def test_reference_qrm_falls_back_to_serial(self):
        geometry = ArrayGeometry.square(8, 4)
        reference = get_algorithm("qrm-reference", geometry)
        arrays = [load_uniform(geometry, 0.5, rng=seed) for seed in range(2)]
        expected = [reference.schedule(array) for array in arrays]
        for ours, want in zip(reference.schedule_batch(arrays), expected):
            assert_results_identical(ours, want)


class _FlakyScheduler:
    """Loop-fallback algorithm that detonates on one call (by position).

    No ``schedule_batch`` attribute, so :func:`schedule_batch` takes the
    fallback loop; the inner Tetris scheduler does real work for the
    non-poisoned calls so sibling results can be checked bit-for-bit.
    """

    name = "flaky"

    def __init__(self, geometry, poison_index):
        self.inner = get_algorithm("tetris", geometry)
        self.poison_index = poison_index
        self.calls = 0

    def schedule(self, array):
        index = self.calls
        self.calls += 1
        if index == self.poison_index:
            raise RuntimeError("mid-analysis explosion")
        return self.inner.schedule(array)


class TestFallbackFailureIsolation:
    """One poisoned trial in a fallback batch must not take down the rest."""

    def _arrays(self, geometry, count=5):
        return [load_uniform(geometry, 0.5, rng=seed) for seed in range(count)]

    def test_error_names_the_failing_trial(self):
        geometry = ArrayGeometry.square(10, 6)
        from repro.errors import ExecutionError

        algorithm = _FlakyScheduler(geometry, poison_index=2)
        with pytest.raises(
            ExecutionError, match=r"trial 2 of 5.*'flaky'.*RuntimeError"
        ) as excinfo:
            schedule_batch(algorithm, self._arrays(geometry))
        # The original exception stays chained for debuggers.
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_siblings_before_the_failure_are_not_corrupted(self):
        geometry = ArrayGeometry.square(10, 6)
        from repro.errors import ExecutionError

        arrays = self._arrays(geometry)
        algorithm = _FlakyScheduler(geometry, poison_index=3)
        with pytest.raises(ExecutionError):
            schedule_batch(algorithm, arrays)
        # The failure poisoned exactly one call: rerunning the surviving
        # arrays through the same instance yields results bit-identical
        # to a fresh scheduler — no state was corrupted mid-batch.
        survivors = arrays[:3] + arrays[4:]
        rerun = schedule_batch(algorithm, survivors)
        fresh = get_algorithm("tetris", geometry)
        for ours, array in zip(rerun, survivors):
            assert_results_identical(ours, fresh.schedule(array))

    def test_clean_batch_is_unaffected_by_the_wrapping(self):
        geometry = ArrayGeometry.square(10, 6)
        arrays = self._arrays(geometry, count=3)
        algorithm = _FlakyScheduler(geometry, poison_index=99)
        fresh = get_algorithm("tetris", geometry)
        for ours, array in zip(schedule_batch(algorithm, arrays), arrays):
            assert_results_identical(ours, fresh.schedule(array))


class TestRegistryRedesign:
    def test_defaults_resolve(self):
        assert resolve_algorithms() == DEFAULT_ALGORITHMS
        for name in DEFAULT_ALGORITHMS:
            assert get_algorithm(name, ArrayGeometry.square(8)) is not None

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            resolve_algorithms(["qrm", "nope"])
        with pytest.raises(KeyError, match="known:"):
            get_algorithm("nope", ArrayGeometry.square(8))

    @pytest.mark.parametrize("name", DEFAULT_ALGORITHMS)
    def test_every_default_has_a_reference_twin(self, name):
        geometry = ArrayGeometry.square(8, 4)
        fast = get_algorithm(name, geometry)
        slow = get_algorithm(f"{name}-reference", geometry)
        array = load_uniform(geometry, 0.5, rng=1)
        assert_results_identical(slow.schedule(array), fast.schedule(array))

    def test_uniform_factory_signature(self):
        geometry = ArrayGeometry.square(8, 4)
        # Every built-in accepts (geometry, *, rng=None, **params).
        for name in DEFAULT_ALGORITHMS:
            get_algorithm(name, geometry, rng=np.random.default_rng(0))
        tuned = get_algorithm("qrm", geometry, n_iterations=2)
        assert tuned.params.n_iterations == 2

    def test_legacy_single_argument_factory_still_resolves(self):
        register_algorithm("legacy-test", lambda geometry: object())
        try:
            assert get_algorithm("legacy-test", ArrayGeometry.square(8)) is not None
        finally:
            unregister_algorithm("legacy-test")


class TestBatchedCampaign:
    @settings(max_examples=15, deadline=None)
    @given(
        spec=campaign_specs(),
        batch_size=st.sampled_from((2, 3, 32)),
    )
    def test_batched_aggregates_match_serial(self, spec, batch_size):
        from repro.campaign.engine import run_campaign

        serial = run_campaign(spec)
        batched = run_campaign(spec, batch_size=batch_size)
        assert batched.to_csv(stats=True) == serial.to_csv(stats=True)

    def test_batch_grouping_never_crosses_cells(self):
        from repro.campaign.engine import batch_trials
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="grouping",
            algorithms=("qrm", "tetris"),
            sizes=(8,),
            fills=(0.4, 0.6),
            n_seeds=5,
            master_seed=0,
        )
        from repro.campaign.trial import TrialSpec

        trials = [
            TrialSpec(cell=cell, seed_index=seed, master_seed=spec.master_seed)
            for cell in spec.expand()
            for seed in range(spec.n_seeds)
        ]
        batches = batch_trials(trials, batch_size=3)
        assert [trial for batch in batches for trial in batch] == trials
        for batch in batches:
            assert len(batch) <= 3
            assert all(trial.cell == batch[0].cell for trial in batch)
        # 5 seeds per cell at batch_size 3 -> groups of 3+2 per cell.
        assert [len(batch) for batch in batches] == [3, 2] * 4

    def test_batched_and_serial_runs_share_cache(self, tmp_path):
        from repro.campaign.cache import TrialCache
        from repro.campaign.engine import run_campaign
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="cache-sharing",
            algorithms=("qrm",),
            sizes=(8,),
            fills=(0.5,),
            n_seeds=6,
            master_seed=5,
        )
        cache = TrialCache(tmp_path)
        warm = run_campaign(spec, cache=cache, batch_size=4)
        assert (warm.cache_hits, warm.cache_misses) == (0, 6)
        serial = run_campaign(spec, cache=cache)
        assert (serial.cache_hits, serial.cache_misses) == (6, 0)
        assert serial.to_csv(stats=True) == warm.to_csv(stats=True)

    def test_batched_failure_names_the_trial(self):
        from repro.campaign.engine import run_campaign
        from repro.campaign.spec import CampaignSpec
        from repro.errors import ExecutionError

        register_algorithm(
            "flaky-campaign",
            lambda geometry, **params: _FlakyScheduler(geometry, poison_index=1),
        )
        spec = CampaignSpec(
            name="boom",
            algorithms=("flaky-campaign",),
            sizes=(10,),
            fills=(0.5,),
            n_seeds=2,
            master_seed=0,
        )
        try:
            with pytest.raises(ExecutionError) as excinfo:
                run_campaign(spec, batch_size=2)
        finally:
            unregister_algorithm("flaky-campaign")
        message = str(excinfo.value)
        assert "'flaky-campaign 10x10 fill=0.5' (seed 0) failed" in message
        assert "trial 1 of 2 failed in 'flaky'" in message

    def test_fallback_failure_keeps_the_original_error(self):
        """A lone trial of a loop-fallback algorithm fails as a batch of one."""
        from repro.campaign.engine import run_campaign
        from repro.campaign.spec import CampaignSpec
        from repro.errors import ExecutionError

        register_algorithm(
            "flaky-campaign",
            lambda geometry, **params: _FlakyScheduler(geometry, poison_index=0),
        )
        spec = CampaignSpec(
            name="flaky",
            algorithms=("flaky-campaign",),
            sizes=(10,),
            fills=(0.5,),
            n_seeds=1,
            master_seed=0,
        )
        try:
            with pytest.raises(ExecutionError) as excinfo:
                run_campaign(spec)
        finally:
            unregister_algorithm("flaky-campaign")
        message = str(excinfo.value)
        assert "(seed 0) failed: ExecutionError: schedule_batch fallback: " in message
        assert "trial 0 of 1 failed in 'flaky'" in message
        assert message.endswith("RuntimeError: mid-analysis explosion")

    def test_batch_size_validation(self):
        from repro.campaign.engine import ExperimentCampaign
        from repro.campaign.spec import CampaignSpec
        from repro.errors import ConfigurationError

        spec = CampaignSpec(
            name="bad", algorithms=("qrm",), sizes=(8,), fills=(0.5,), n_seeds=1
        )
        with pytest.raises(ConfigurationError, match="batch_size"):
            ExperimentCampaign(spec, batch_size=0)


class TestBatchedCampaignExecutors:
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_aggregates_identical_across_executors(self, batch_size):
        from repro.campaign.engine import run_campaign
        from repro.campaign.executors import make_executor
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="executors",
            algorithms=("qrm", "tetris"),
            sizes=(8,),
            fills=(0.5,),
            n_seeds=5,
            master_seed=2,
        )
        serial = run_campaign(spec)
        parallel = run_campaign(spec, executor=make_executor(2), batch_size=batch_size)
        assert parallel.to_csv(stats=True) == serial.to_csv(stats=True)
