"""Tests for the experiment-campaign engine."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    ExperimentCampaign,
    ScenarioCell,
    TrialCache,
    TrialSpec,
    run_campaign,
)
from repro.campaign.spec import stable_entropy
from repro.campaign.trial import cell_geometry, run_trial_batch
from repro.config import QrmParameters
from repro.core.qrm import QrmScheduler
from repro.errors import ConfigurationError
from repro.fpga.accelerator import QrmAccelerator
from repro.lattice.array import AtomArray
from repro.lattice.loading import load_named
from repro.physics.loss import LossModel
from repro.pipeline.stages import PipelineConfig, run_shot
from repro.timing.latency import StageReport


class RecordingObserver:
    """Records ``(event_name, payload)`` tuples for the observer tests."""

    def __init__(self) -> None:
        self.events: list[tuple[str, dict]] = []

    @property
    def event_names(self) -> list[str]:
        return [name for name, _ in self.events]

    def campaign_started(self, spec, n_trials, n_cached) -> None:
        self.events.append(
            (
                "campaign_started",
                {"spec": spec, "n_trials": n_trials, "n_cached": n_cached},
            )
        )

    def trial_completed(self, trial, result, from_cache) -> None:
        self.events.append(
            (
                "trial_completed",
                {"trial": trial, "result": result, "from_cache": from_cache},
            )
        )

    def cell_completed(self, cell, aggregate) -> None:
        self.events.append(("cell_completed", {"cell": cell, "aggregate": aggregate}))

    def campaign_completed(self, result) -> None:
        self.events.append(("campaign_completed", {"result": result}))


def small_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="unit",
        algorithms=("qrm", "tetris"),
        sizes=(10,),
        fills=(0.5,),
        n_seeds=3,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestSpec:
    def test_grid_expansion_order(self):
        spec = small_spec(sizes=(10, 12), fills=(0.4, 0.6))
        cells = spec.expand()
        assert len(cells) == 8
        # Algorithms outermost, then sizes, then fills.
        assert [cell.algorithm for cell in cells[:4]] == ["qrm"] * 4
        assert [cell.size for cell in cells[:4]] == [10, 10, 12, 12]
        assert [cell.fill for cell in cells[:2]] == [0.4, 0.6]

    def test_empty_grid(self):
        spec = small_spec(algorithms=())
        assert spec.expand() == []
        assert spec.n_trials == 0
        result = ExperimentCampaign(spec).run()
        assert result.aggregates == []
        assert result.n_trials == 0

    def test_single_cell(self):
        spec = small_spec(algorithms=("qrm",), n_seeds=1)
        assert spec.n_cells == 1
        result = ExperimentCampaign(spec).run()
        assert len(result.aggregates) == 1
        assert result.aggregates[0].trials == 1

    def test_zero_seeds(self):
        spec = small_spec(n_seeds=0)
        result = ExperimentCampaign(spec).run()
        assert result.n_trials == 0
        assert all(agg.trials == 0 for agg in result.aggregates)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="")
        with pytest.raises(ConfigurationError):
            small_spec(n_seeds=-1)
        with pytest.raises(ConfigurationError):
            ScenarioCell(fill=1.5)
        with pytest.raises(ConfigurationError):
            ScenarioCell(algorithm="tetris", fpga=True)

    def test_json_round_trip(self):
        spec = small_spec(
            loss_models=(LossModel(), None),
            fpga=False,
            master_seed=7,
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "fields",
        [
            {"name": 7},
            {"algorithms": "qrm"},
            {"algorithms": [1]},
            {"sizes": "ab"},
            {"sizes": [8.0]},
            {"sizes": [True]},
            {"fills": ["0.5"]},
            {"targets": ["4"]},
            {"n_seeds": "2"},
            {"master_seed": 1.5},
            {"cycles": None},
            {"loading": 0},
            {"fpga": "yes"},
            {"loss_models": [{"vacuum_lifetime_s": "30"}]},
            {"masks": [{"kind": 3}]},
            {"masks": [{"kind": "ring", "params": [1, 2]}]},
            {"extra_cells": "ab"},
            {"extra_cells": [{"size": "8"}]},
            {"extra_cells": [{"fill": "0.5"}]},
            {"extra_cells": [{"algorithm": None}]},
            {"extra_cells": [{"cycles": 2.0}]},
            {"extra_cells": [{"loading": ["uniform"]}]},
            {"extra_cells": [{"qrm": {"n_iterations": "4"}}]},
            {"no_such_axis": [1]},
        ],
    )
    def test_from_dict_refuses_wrong_field_types(self, fields):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict({"name": "typed", **fields})

    def test_spec_hash_stability_and_invalidation(self):
        spec = small_spec()
        assert spec.spec_hash() == small_spec().spec_hash()
        assert spec.spec_hash() != small_spec(fills=(0.6,)).spec_hash()
        assert spec.spec_hash() != small_spec(master_seed=1).spec_hash()
        # The hash is content-addressed, not identity-addressed.
        assert json.loads(spec.to_json())["name"] == "unit"


class TestSeeding:
    def test_trial_seed_matches_seedsequence_spawn(self):
        cell = ScenarioCell(size=10)
        # The per-cell parent sequence whose ``spawn`` children seed trials.
        entropy = [3, stable_entropy(cell.instance_key())]
        children = np.random.SeedSequence(entropy).spawn(4)
        for index, child in enumerate(children):
            trial = TrialSpec(cell=cell, seed_index=index, master_seed=3)
            assert list(trial.seed_sequence().generate_state(4)) == list(
                child.generate_state(4)
            )

    def test_algorithms_share_instances(self):
        # The instance entropy excludes the algorithm: paired design.
        qrm = ScenarioCell(algorithm="qrm", size=10)
        tetris = ScenarioCell(algorithm="tetris", size=10)
        t1 = TrialSpec(cell=qrm, seed_index=0, master_seed=0)
        t2 = TrialSpec(cell=tetris, seed_index=0, master_seed=0)
        assert list(t1.seed_sequence().generate_state(4)) == list(
            t2.seed_sequence().generate_state(4)
        )

    def test_seeds_differ_across_indices_and_masters(self):
        cell = ScenarioCell(size=10)

        def state(seed_index, master_seed):
            trial = TrialSpec(cell=cell, seed_index=seed_index, master_seed=master_seed)
            return tuple(trial.seed_sequence().generate_state(4))

        assert state(0, 0) != state(1, 0)
        assert state(0, 0) != state(0, 1)

    def test_trial_is_deterministic(self):
        trial = TrialSpec(cell=ScenarioCell(size=10), seed_index=1, master_seed=5)
        (first,), (second,) = run_trial_batch([trial]), run_trial_batch([trial])
        assert first.metrics == second.metrics


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        spec = small_spec()
        first = ExperimentCampaign(spec, cache=TrialCache(tmp_path)).run()
        assert first.cache_hits == 0
        assert first.cache_misses == spec.n_trials

        second = ExperimentCampaign(spec, cache=TrialCache(tmp_path)).run()
        assert second.cache_hits == spec.n_trials
        assert second.cache_misses == 0
        assert second.to_csv() == first.to_csv()

    def test_spec_change_invalidates(self, tmp_path):
        cache = TrialCache(tmp_path)
        ExperimentCampaign(small_spec(), cache=cache).run()
        changed = small_spec(fills=(0.6,))
        result = ExperimentCampaign(changed, cache=TrialCache(tmp_path)).run()
        assert result.cache_hits == 0
        assert result.cache_misses == changed.n_trials

    def test_grid_extension_is_incremental(self, tmp_path):
        ExperimentCampaign(small_spec(), cache=TrialCache(tmp_path)).run()
        # More seeds and another size: only the new trials execute.
        extended = small_spec(sizes=(10, 12), n_seeds=5)
        result = ExperimentCampaign(extended, cache=TrialCache(tmp_path)).run()
        assert result.cache_hits == small_spec().n_trials
        assert result.cache_misses == extended.n_trials - small_spec().n_trials

    def test_timing_cells_bypass_cache(self, tmp_path):
        # Wall-clock metrics are measurements of *this* run: a timing
        # campaign must never serve them stale from disk.
        spec = small_spec(algorithms=("qrm",), n_seeds=2, timing=True)
        ExperimentCampaign(spec, cache=TrialCache(tmp_path)).run()
        assert len(TrialCache(tmp_path)) == 0
        second = ExperimentCampaign(spec, cache=TrialCache(tmp_path)).run()
        assert second.cache_hits == 0
        assert second.cache_misses == spec.n_trials

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = small_spec(algorithms=("qrm",), n_seeds=1)
        cache = TrialCache(tmp_path)
        ExperimentCampaign(spec, cache=cache).run()
        (victim,) = list(tmp_path.glob("*/*.json"))
        victim.write_text("{not json")
        result = ExperimentCampaign(spec, cache=TrialCache(tmp_path)).run()
        assert result.cache_misses == 1

    def test_len(self, tmp_path):
        cache = TrialCache(tmp_path)
        assert len(cache) == 0
        ExperimentCampaign(small_spec(), cache=cache).run()
        assert len(cache) == small_spec().n_trials


class TestObserver:
    def test_event_ordering(self):
        observer = RecordingObserver()
        spec = small_spec(n_seeds=2)
        result = ExperimentCampaign(spec, observer=observer).run()

        names = observer.event_names
        assert names[0] == "campaign_started"
        assert names[-1] == "campaign_completed"
        assert names.count("trial_completed") == spec.n_trials
        assert names.count("cell_completed") == spec.n_cells
        # Every trial completes before any cell aggregate is emitted.
        last_trial = max(i for i, n in enumerate(names) if n == "trial_completed")
        first_cell = min(i for i, n in enumerate(names) if n == "cell_completed")
        assert last_trial < first_cell

        started = observer.events[0][1]
        assert started["n_trials"] == spec.n_trials
        assert started["n_cached"] == 0
        assert observer.events[-1][1]["result"] is result

    def test_cached_trials_flagged(self, tmp_path):
        spec = small_spec(algorithms=("qrm",), n_seeds=2)
        ExperimentCampaign(spec, cache=TrialCache(tmp_path)).run()
        observer = RecordingObserver()
        ExperimentCampaign(spec, cache=TrialCache(tmp_path), observer=observer).run()
        flags = [
            payload["from_cache"]
            for name, payload in observer.events
            if name == "trial_completed"
        ]
        assert flags == [True, True]


class TestAggregation:
    def test_metrics_and_fill_stats(self):
        spec = small_spec(algorithms=("qrm",), n_seeds=4)
        result = run_campaign(spec)
        (aggregate,) = result.aggregates
        assert aggregate.trials == 4
        assert 0.0 <= aggregate.mean("target_fill") <= 1.0
        assert 0.0 <= aggregate.success_probability <= 1.0
        (stats,) = result.fill_stats()
        assert stats.algorithm == "qrm"
        assert stats.trials == 4
        assert stats.mean_target_fill == aggregate.mean("target_fill")

    def test_unknown_metric_raises(self):
        result = run_campaign(small_spec(algorithms=("qrm",), n_seeds=1))
        with pytest.raises(ConfigurationError):
            result.aggregates[0].mean("nonexistent")

    def test_aggregate_for(self):
        result = run_campaign(small_spec())
        aggregate = result.aggregate_for(algorithm="tetris")
        assert aggregate.cell.algorithm == "tetris"
        with pytest.raises(ConfigurationError):
            result.aggregate_for(algorithm="nope")
        with pytest.raises(ConfigurationError):
            result.aggregate_for(size=10)  # ambiguous: two algorithms

    def test_loss_metrics_present(self):
        spec = small_spec(algorithms=("qrm",), n_seeds=2, loss_models=(LossModel(),))
        result = run_campaign(spec)
        metrics = result.aggregates[0].metrics
        assert "survival" in metrics
        assert "fill_after_loss" in metrics
        assert "motion_ms" in metrics
        assert 0.0 <= metrics["survival"].mean <= 1.0

    def test_fpga_metrics_present(self):
        spec = small_spec(algorithms=("qrm",), n_seeds=1, fpga=True)
        result = run_campaign(spec)
        assert result.aggregates[0].mean("fpga_us") > 0

    def test_table_and_csv(self):
        result = run_campaign(small_spec(n_seeds=1))
        table = result.format_table()
        assert "Campaign 'unit'" in table
        assert "p_success" in table
        csv = result.to_csv()
        assert csv.splitlines()[0].startswith("algorithm,size,fill")
        assert len(csv.splitlines()) == 1 + len(result.aggregates)

    def test_write_csv(self, tmp_path):
        result = run_campaign(small_spec(algorithms=("qrm",), n_seeds=1))
        path = result.write_csv(tmp_path / "sub" / "out.csv")
        assert path.exists()
        assert "qrm" in path.read_text()

    def test_stats_columns_expand_summaries(self):
        result = run_campaign(small_spec(algorithms=("qrm",), n_seeds=3))
        table = result.format_table(stats=True)
        assert "moves_std" in table
        assert "moves_min" in table
        assert "moves_max" in table
        headers = result.to_csv(stats=True).splitlines()[0].split(",")
        aggregate = result.aggregates[0]
        row = result.to_csv(stats=True).splitlines()[1].split(",")
        summary = aggregate.metrics["moves"]
        index = headers.index("moves_min")
        assert float(row[index]) == summary.minimum
        assert headers.index("moves_max") == index + 1


class TestQrmOverrideCells:
    def test_round_trip_and_label(self):
        qrm = QrmParameters(scan_mode="fresh", merge_mirror_quadrants=False, scan_limit=4)
        cell = ScenarioCell(size=10, qrm=qrm)
        restored = ScenarioCell.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert restored == cell
        assert "fresh+split+s_en=4" in cell.label()

    def test_qrm_override_requires_qrm_algorithm(self):
        with pytest.raises(ConfigurationError):
            ScenarioCell(algorithm="tetris", size=10, qrm=QrmParameters())

    def test_parameter_override_changes_results(self):
        base = ScenarioCell(algorithm="qrm", size=10, fill=0.5)
        fresh = ScenarioCell(
            algorithm="qrm",
            size=10,
            fill=0.5,
            qrm=QrmParameters(scan_mode="fresh", n_iterations=2),
        )
        spec = CampaignSpec(
            name="qrm-variants",
            algorithms=(),
            sizes=(),
            n_seeds=2,
            extra_cells=(base, fresh),
        )
        result = run_campaign(spec)
        pipelined = result.aggregate_for(qrm=None)
        override = result.aggregate_for(qrm=fresh.qrm)
        # The fresh column pass reaches the fixpoint in fewer iterations
        # and produces no stale skips.
        assert override.mean("iterations") <= pipelined.mean("iterations")
        assert override.mean("skipped_stale") == 0.0
        assert pipelined.mean("skipped_stale") > 0.0

    def test_preset_reaches_the_fpga_cycle_model(self):
        # --fpga must cost the preset the trial scheduled with, not the
        # default parameters, on both the single-cycle and the
        # closed-loop trial paths.
        preset = QrmParameters(scan_mode="fresh", n_iterations=2)
        single = ScenarioCell(algorithm="qrm", size=16, fpga=True, qrm=preset)
        looped = dataclasses.replace(single, cycles=2, loss=LossModel())
        geometry = cell_geometry(single)
        accelerator = QrmAccelerator(geometry, params=preset)

        def cost(occupancy) -> int:
            array = AtomArray(geometry, occupancy)
            return accelerator.run(array).report.total_cycles

        for seed_index in range(3):
            trial = TrialSpec(cell=single, seed_index=seed_index, master_seed=0)
            load_seed, _ = trial.seed_sequence().spawn(2)
            rng = np.random.default_rng(load_seed)
            array = load_named(single.loading, geometry, single.fill, rng=rng)
            (result,) = run_trial_batch([trial])
            assert result.metrics["fpga_cycles"] == cost(array.grid)

            # Same instance, so the closed loop loads the same array.  It
            # costs every frame it schedules: replay the loop without the
            # cycle model, then cost each detected frame.
            trial = dataclasses.replace(trial, cell=looped)
            _, loop_seed = trial.seed_sequence().spawn(2)
            config = PipelineConfig(
                size=16, fill=looped.fill, cycles=2, loss=looped.loss
            )
            scheduler = QrmScheduler(geometry, preset)
            streams = loop_seed.spawn(4)
            shot = run_shot(0, array, streams, config, scheduler, StageReport())
            expected = sum(
                cost(record.occupancy)
                for record in shot.records
                if not record.converged_at_detect
            )
            (result,) = run_trial_batch([trial])
            assert result.metrics["fpga_cycles"] == expected

    def test_skipped_stale_metric_present(self):
        result = run_campaign(small_spec(algorithms=("qrm",), n_seeds=1))
        assert "skipped_stale" in result.aggregates[0].metrics


class TestSeedSequenceContract:
    def test_generator_streams_are_independent(self):
        trial = TrialSpec(cell=ScenarioCell(size=10), seed_index=0, master_seed=0)
        load_ss, loss_ss = trial.seed_sequence().spawn(2)
        a = np.random.default_rng(load_ss).random(8)
        b = np.random.default_rng(loss_ss).random(8)
        assert not np.allclose(a, b)
