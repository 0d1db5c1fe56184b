"""Closed-loop pipeline: the run-to-completion driver and its trace.

The determinism contract of :mod:`repro.pipeline`: for any
:class:`PipelineConfig` the per-cycle trace — detected occupancy,
schedules, post-loss truth, in (shot, cycle) order — is a pure function
of the config, because every frame's RNG streams are spawned from its
seed.  Reruns over the shared :func:`oracles.pipeline_configs` strategy
must agree byte for byte, and pinned lossy digests catch any drift in
the stages themselves.

Also covered here: stage call counts and latency bookkeeping
(:class:`StageReport`), config validation, the multi-cycle campaign
axis (trial determinism and journal resume), and the ``repro pipeline``
CLI surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings

from oracles import campaign_specs, journal_events, pipeline_configs
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.campaign import (
    CampaignSpec,
    ExperimentCampaign,
    InterruptingObserver,
    RunJournal,
    ScenarioCell,
    TrialSpec,
)
from repro.campaign.trial import run_trial_batch
from repro.cli import main
from repro.errors import ConfigurationError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import Direction
from repro.lattice.mask import TargetMask
from repro.physics.loss import LossModel
from repro.pipeline import PipelineConfig, run_pipeline
from repro.pipeline.stages import CycleRecord, stage_replay
from repro.timing.latency import (
    BUDGETED_STAGES,
    PIPELINE_STAGES,
    STAGE_SCHEDULE,
    StageReport,
)

#: Pinned lossy closed-loop traces: (size, target mask, trace digest).
LOSSY_TRACE_PINS = [
    (16, None, "97af34d4164e4a588d7646b005d236fc0e08ab6bd7682a6f95128b0e5d4816cf"),
    (32, None, "8d44d72ad696fba770eaad2d72f589ea6c42c64ca2d39155758af3f1e70cb103"),
    (
        16,
        TargetMask.ring(16, 16, 6.0, 2.0),
        "4124fe6eef63cbb4268d92cf810f3cc51be8ebb5e3fa545a676f8be9fc437ddb",
    ),
]

#: Aggressive loss model: short vacuum lifetime so multi-cycle repair
#: loops actually have defects to repair on every cycle.
LOSS = LossModel(vacuum_lifetime_s=0.05)


# ---------------------------------------------------------------------------
# The sequential driver: determinism, stage calls, frame order
# ---------------------------------------------------------------------------


class TestSequentialDriver:
    @given(config=pipeline_configs())
    @settings(max_examples=8, deadline=None)
    def test_rerun_is_deterministic(self, config):
        first = run_pipeline(config, "sequential")
        second = run_pipeline(config, "sequential")
        assert first.trace_lines() == second.trace_lines()
        assert first.trace_digest() == second.trace_digest()

    def test_stage_call_counts(self):
        # Lossless: each shot's first cycle fills the target, so its
        # next detection converges and the shot retires there.
        config = PipelineConfig(size=8, fill=0.5, shots=3, cycles=3, master_seed=5)
        result = run_pipeline(config, "sequential")
        calls = {key: timing.n_calls for key, timing in result.report.stages.items()}
        records = [record for shot in result.shots for record in shot.records]
        scheduled = sum(1 for r in records if not r.converged_at_detect)
        # Every frame is imaged and detected exactly once; a frame whose
        # detection saw a filled target stops there.
        assert calls["camera"] == calls["detect"] == result.n_frames
        assert 0 < scheduled < result.n_frames
        for key in ("schedule", "awg", "replay"):
            assert calls[key] == scheduled

    def test_trace_lines_are_canonical_json(self):
        config = PipelineConfig(size=6, fill=0.4, shots=2, cycles=2, loss=LOSS)
        result = run_pipeline(config, "sequential")
        for line in result.trace_lines():
            payload = json.loads(line)
            assert set(payload) == {
                "shot",
                "cycle",
                "occupancy",
                "threshold",
                "moves",
                "truth_after",
                "fill_after",
                "lost",
                "fallback",
            }
            assert all(set(row) <= {"#", "."} for row in payload["occupancy"])

    def test_frames_ordered_by_shot_then_cycle(self):
        config = PipelineConfig(size=6, fill=0.4, shots=3, cycles=3, loss=LOSS)
        result = run_pipeline(config, "sequential")
        order = [
            (json.loads(line)["shot"], json.loads(line)["cycle"])
            for line in result.trace_lines()
        ]
        assert order == sorted(order)


# ---------------------------------------------------------------------------
# Multi-cycle closed-loop behaviour
# ---------------------------------------------------------------------------


class TestClosedLoop:
    def test_lossless_run_converges_and_stops_early(self):
        # Without loss, one repair cycle fills the target and the next
        # detection retires the shot — extra cycle budget is untouched.
        config = PipelineConfig(size=8, fill=0.6, shots=1, cycles=4, master_seed=3)
        result = run_pipeline(config, "sequential")
        (shot,) = result.shots
        assert shot.converged
        assert len(shot.records) <= 2
        assert shot.records[-1].converged_at_detect or (
            shot.records[-1].defect_free_after
        )

    def test_lossy_run_uses_extra_cycles(self):
        config = PipelineConfig(
            size=8, fill=0.6, shots=2, cycles=3, master_seed=1, loss=LOSS
        )
        result = run_pipeline(config, "sequential")
        assert result.n_frames > len(result.shots)
        for shot in result.shots:
            cycles = [record.cycle for record in shot.records]
            assert cycles == list(range(len(cycles)))

    def test_fpga_timing_attaches_model_and_budget(self):
        config = PipelineConfig(
            size=8, fill=0.4, shots=1, cycles=1, master_seed=2, fpga_timing=True
        )
        result = run_pipeline(config, "sequential")
        assert result.modelled_fpga_us() is not None
        assert result.modelled_fpga_us() > 0
        comparison = result.hardware_comparison()
        assert comparison is not None
        assert "hardware budget" in comparison
        assert result.hardware_comparison() in result.format_summary()

    def test_fpga_timing_leaves_the_trace_unchanged(self):
        # The cycle-model run only annotates records (fpga_us,
        # fpga_cycles), which the trace omits; the masked pin holds.
        size, mask, digest = LOSSY_TRACE_PINS[2]
        config = PipelineConfig(
            size=size,
            fill=0.5,
            shots=4,
            cycles=3,
            master_seed=0,
            loss=LossModel(),
            mask=mask,
            fpga_timing=True,
        )
        result = run_pipeline(config, "sequential")
        assert result.trace_digest() == digest
        assert result.modelled_fpga_us() > 0

    def test_converged_detection_ends_the_shot(self):
        # A detection that sees a filled target is the shot's last
        # record: nothing is scheduled, compiled or replayed after it.
        config = PipelineConfig(
            size=8, fill=0.6, shots=4, cycles=4, master_seed=1, loss=LOSS
        )
        result = run_pipeline(config, "sequential")
        for shot in result.shots:
            for record in shot.records[:-1]:
                assert not record.converged_at_detect
                assert record.truth_after is not None
            last = shot.records[-1]
            if last.converged_at_detect:
                assert list(last.moves) == []
                assert last.n_segments == 0
                assert last.lost_atoms == 0
                if len(shot.records) > 1:
                    previous = shot.records[-2].truth_after
                    np.testing.assert_array_equal(last.truth_after, previous)
        assert any(shot.records[-1].converged_at_detect for shot in result.shots)

    def test_no_fpga_timing_no_comparison(self):
        config = PipelineConfig(size=6, fill=0.4, shots=1, master_seed=2)
        result = run_pipeline(config, "sequential")
        assert result.modelled_fpga_us() is None
        assert result.hardware_comparison() is None

    def test_to_dict_round_trips_through_json(self):
        config = PipelineConfig(size=6, fill=0.5, shots=2, cycles=2, loss=LOSS)
        payload = json.loads(json.dumps(run_pipeline(config, "sequential").to_dict()))
        assert payload["mode"] == "sequential"
        assert payload["shots"] == 2
        assert payload["frames"] >= 2
        assert len(payload["trace_digest"]) == 64
        report = payload["stage_report"]
        assert 0 < report["coverage"] <= 1
        assert report["pipeline_bound"] >= 1
        stages = {s["stage"] for s in report["stages"]}
        assert stages <= set(PIPELINE_STAGES)

    @pytest.mark.parametrize(
        "size, mask, digest",
        LOSSY_TRACE_PINS,
        ids=[f"{size}-{digest}" for size, _, digest in LOSSY_TRACE_PINS],
    )
    def test_lossy_trace_is_pinned(self, size, mask, digest):
        # The loss stream (which atoms each draw hits, in which order)
        # would drift between commits unseen by any rerun comparison if
        # replay changed; these digests pin it.
        config = PipelineConfig(
            size=size,
            fill=0.5,
            shots=4,
            cycles=3,
            master_seed=0,
            loss=LossModel(),
            mask=mask,
        )
        assert run_pipeline(config, "sequential").trace_digest() == digest

    def test_replay_falls_back_on_out_of_grid_shift(self):
        # A schedule naming a line outside the grid must take the
        # non-strict fallback (skipping the move), not crash the loop.
        config = PipelineConfig(size=8, loss=LossModel())
        geometry = config.geometry()
        truth = AtomArray.full(geometry)
        bad = ParallelMove.of([LineShift(Direction.EAST, 9, 0, 3)])
        record = CycleRecord(
            shot=0,
            cycle=0,
            occupancy=truth.grid.copy(),
            threshold=0.0,
            converged_at_detect=False,
        )
        schedule = MoveSchedule(geometry, moves=[bad])
        after = stage_replay(truth, schedule, record, config, np.random.default_rng(1))
        assert record.replay_fallback
        assert after == truth
        assert record.lost_atoms == 0


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 1},
            {"fill": 1.5},
            {"fill": -0.1},
            {"shots": 0},
            {"cycles": 0},
            {"target": 4, "mask": TargetMask.ring(12, 12, 4.0, 1.5)},
            {"fpga_timing": True, "algorithm": "tetris"},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**kwargs)

    def test_unknown_mode_rejected(self):
        for mode in ("warp", "pipelined"):
            with pytest.raises(ConfigurationError, match="unknown pipeline mode"):
                run_pipeline(PipelineConfig(size=4), mode)


# ---------------------------------------------------------------------------
# Stage-latency bookkeeping
# ---------------------------------------------------------------------------


class TestStageReport:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown pipeline stage"):
            StageReport().record("teleport", 1.0)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ConfigurationError):
            StageReport().record(STAGE_SCHEDULE, -1.0)

    def test_timed_accumulates(self):
        report = StageReport()
        with report.timed("camera"):
            pass
        with report.timed("camera"):
            pass
        timing = report.stages["camera"]
        assert timing.n_calls == 2
        assert timing.total_us >= timing.best_us * 2 >= 0
        assert timing.mean_us == timing.total_us / 2

    def test_ordered_follows_stage_vocabulary(self):
        report = StageReport()
        for stage in reversed(PIPELINE_STAGES):
            report.record(stage, 1.0)
        assert [t.stage for t in report.ordered()] == list(PIPELINE_STAGES)

    def test_coverage_and_pipeline_bound(self):
        report = StageReport()
        assert report.coverage == report.pipeline_bound == 0.0
        report.record("camera", 30.0)
        report.record("detect", 10.0)
        report.record("camera", 20.0)
        report.wall_us = 80.0
        # busy 60 of 80 us; the slowest stage (camera, 50 us) bounds an
        # overlapped loop at 60 / 50.
        assert report.coverage == pytest.approx(0.75)
        assert report.pipeline_bound == pytest.approx(1.2)
        assert "coverage 75%, pipeline bound 1.20x" in report.format()

    def test_compare_to_budget_covers_budgeted_stages(self):
        report = StageReport()
        for stage in PIPELINE_STAGES:
            report.record(stage, 10.0)
        table = report.compare_to_budget(
            {stage: 1.0 for stage in BUDGETED_STAGES}, "unit budget"
        )
        for stage in BUDGETED_STAGES:
            assert stage in table
        assert "replay" not in table

    def test_pipeline_report_covers_all_stages(self):
        config = PipelineConfig(size=6, fill=0.4, shots=2, cycles=2, loss=LOSS)
        result = run_pipeline(config, "sequential")
        assert result.report.wall_us > 0
        assert set(result.report.stages) <= set(PIPELINE_STAGES)
        assert "camera" in result.report.stages


# ---------------------------------------------------------------------------
# Campaign integration: the --cycles axis
# ---------------------------------------------------------------------------

CYCLES_CELL = ScenarioCell(
    algorithm="qrm",
    size=8,
    fill=0.5,
    loss=LossModel(vacuum_lifetime_s=0.05),
    cycles=3,
)


class TestCampaignCycles:
    def test_trial_is_deterministic(self):
        trial = TrialSpec(cell=CYCLES_CELL, seed_index=0, master_seed=7)
        (first,), (second,) = run_trial_batch([trial]), run_trial_batch([trial])
        assert first.key == second.key
        assert dict(first.metrics) == dict(second.metrics)

    def test_trial_reports_cycles_used(self):
        trial = TrialSpec(cell=CYCLES_CELL, seed_index=0, master_seed=7)
        (result,) = run_trial_batch([trial])
        metrics = result.metrics
        assert 1 <= metrics["cycles_used"] <= CYCLES_CELL.cycles
        assert "survival" in metrics
        assert 0.0 <= metrics["survival"] <= 1.0

    def test_single_cycle_cell_unchanged_by_axis(self):
        # cycles=1 must keep the original (non-pipeline) trial path and
        # its instance key, so existing caches and journals stay valid.
        flat = ScenarioCell(algorithm="qrm", size=8, fill=0.5)
        looped = ScenarioCell(algorithm="qrm", size=8, fill=0.5, cycles=1)
        assert flat.instance_key() == looped.instance_key()
        assert "cycles" not in flat.label()

    def test_multi_cycle_label_and_dict(self):
        assert "cycles=3" in CYCLES_CELL.label()
        assert CYCLES_CELL.to_dict()["cycles"] == 3

    @given(spec=campaign_specs(max_seeds=2, cycles=(2, 3)))
    @settings(max_examples=5, deadline=None)
    def test_campaign_runs_deterministically(self, spec):
        first = ExperimentCampaign(spec).run()
        second = ExperimentCampaign(spec).run()
        assert first.to_csv() == second.to_csv()
        for aggregate in first.aggregates:
            assert "cycles_used" in aggregate.metrics

    def test_interrupted_cycles_campaign_resumes_identically(self, tmp_path):
        spec = CampaignSpec(
            name="cycles-resume",
            algorithms=("qrm",),
            sizes=(8,),
            fills=(0.5,),
            loss_models=(LossModel(vacuum_lifetime_s=0.05),),
            n_seeds=4,
            cycles=2,
        )
        clean = ExperimentCampaign(spec).run()

        path = tmp_path / "run.jsonl"
        journal = RunJournal.fresh(path)
        with pytest.raises(KeyboardInterrupt):
            ExperimentCampaign(
                spec, journal=journal, observer=InterruptingObserver(after=2)
            ).run()
        journal.close()

        journal = RunJournal.resume(path)
        resumed = ExperimentCampaign(spec, journal=journal).run()
        journal.close()
        assert resumed.journal_replays == 2
        assert resumed.to_csv() == clean.to_csv()
        assert journal_events(path)[-1] == "campaign_completed"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestPipelineCli:
    ARGS = ["pipeline", "--size", "6", "--fill", "0.4", "--shots", "2", "--seed", "3"]

    def test_trace_and_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        payload = tmp_path / "out.json"
        args = self.ARGS + [
            "--cycles",
            "2",
            "--loss",
            "--trace",
            str(trace),
            "--json",
            str(payload),
        ]
        assert main(args) == 0
        assert "stage latency" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["shot"] in (0, 1) for line in lines)
        data = json.loads(payload.read_text())
        assert data["mode"] == "sequential"
        assert data["cycles"] == 2

    def test_mask_overrides_target(self, tmp_path):
        # As on `repro rearrange`, --mask wins over --target instead of
        # tripping PipelineConfig's either-or check.
        base = ["pipeline", "--size", "12", "--mask", "ring:outer=4,inner=1.5"]
        traces = {}
        for name, extra in (("mask", []), ("both", ["--target", "6"])):
            path = tmp_path / f"{name}.txt"
            assert main(base + extra + ["--trace", str(path), "--quiet"]) == 0
            traces[name] = path.read_bytes()
        assert traces["both"] == traces["mask"]

    def test_fpga_flag_prints_the_budget_table(self, capsys):
        assert main(self.ARGS + ["--fpga"]) == 0
        assert "hardware budget" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--mode", "sequential"], ["--queue-depth", "2"]])
    def test_threaded_driver_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_campaign_cycles_flag(self, capsys):
        code = main(
            [
                "campaign",
                "--sizes",
                "6",
                "--fills",
                "0.5",
                "--seeds",
                "2",
                "--loss",
                "--cycles",
                "2",
                "--algorithms",
                "qrm",
            ]
        )
        assert code == 0
        assert "cycles" in capsys.readouterr().out
