"""Per-frame stage functions of the closed-loop data path.

One *frame* is one camera exposure of one shot's live atom array,
flowing through the paper's FPGA data path (Fig. 1/2):

``camera`` (:func:`repro.detection.imaging.render_image`) ->
``detect`` (:func:`repro.detection.detect.detect_occupancy`) ->
``schedule`` (any registered algorithm) ->
``awg`` (:func:`repro.awg.compiler.compile_schedule`) ->
``replay`` (physical execution + stochastic loss via
:mod:`repro.physics.loss`).

:func:`run_shot` calls them in that order, one frame at a time, and
times each into a :class:`~repro.timing.latency.StageReport`.  Every
source of randomness (exposure noise, loss draws) is a per-cycle
generator spawned from the config seed (:func:`spawn_shot_streams`),
so a frame's outcome depends only on the config, never on timing.

Multi-cycle operation closes the loop: after ``replay``, a shot whose
detected array was not defect-free re-enters at ``camera`` (re-image the
lossy post-motion array, repair what is missing) until the target is
filled or the cycle budget is exhausted — the campaign's ``--cycles``
axis runs the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.aod.move import ParallelMove
from repro.aod.timing import DEFAULT_MOVE_TIMING, MoveTimingModel
from repro.detection.camera import CameraConfig, DEFAULT_CAMERA
from repro.errors import ConfigurationError, MoveError
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.mask import TargetMask
from repro.physics.loss import LossModel
from repro.timing.latency import (
    STAGE_AWG,
    STAGE_CAMERA,
    STAGE_DETECT,
    STAGE_REPLAY,
    STAGE_SCHEDULE,
    StageReport,
)


@dataclass(frozen=True)
class PipelineConfig:
    """One closed-loop pipeline run: geometry, stream shape, models.

    ``shots`` independent atom arrays stream through the loop; each shot
    runs up to ``cycles`` image->detect->schedule->replay cycles (it
    retires early once detection sees a defect-free target).  ``loss``
    makes the replay stage stochastic — without it a converged shot
    stays converged and extra cycles are no-ops.  ``fpga_timing`` also
    runs the cycle-level accelerator model per scheduling frame (QRM
    only) so the stage report can quote modelled hardware analysis time
    next to the measured software time.
    """

    size: int = 12
    target: int | None = None
    fill: float = 0.6
    algorithm: str = "qrm"
    shots: int = 1
    cycles: int = 1
    master_seed: int = 0
    loss: LossModel | None = None
    camera: CameraConfig = DEFAULT_CAMERA
    timing: MoveTimingModel = DEFAULT_MOVE_TIMING
    fpga_timing: bool = False
    mask: "TargetMask | None" = None

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ConfigurationError("size must be >= 2")
        if not 0.0 <= self.fill <= 1.0:
            raise ConfigurationError(f"fill must be in [0, 1], got {self.fill}")
        if self.shots < 1:
            raise ConfigurationError("shots must be >= 1")
        if self.cycles < 1:
            raise ConfigurationError("cycles must be >= 1")
        if self.fpga_timing and self.algorithm != "qrm":
            raise ConfigurationError(
                "the FPGA cycle model only implements the 'qrm' algorithm"
            )
        if self.mask is not None and self.target is not None:
            raise ConfigurationError(
                "a pipeline takes either a rectangular 'target' size or "
                "a 'mask', not both"
            )

    def geometry(self) -> ArrayGeometry:
        if self.mask is not None:
            return ArrayGeometry.with_mask(self.size, self.size, self.mask)
        return ArrayGeometry.square(self.size, self.target)


@dataclass
class CycleRecord:
    """Deterministic trace of one closed-loop cycle of one shot.

    Everything here is a pure function of the shot's seed streams —
    wall-clock timings live separately in the run's
    :class:`~repro.timing.latency.StageReport` — so two runs can be
    compared byte for byte.
    """

    shot: int
    cycle: int
    occupancy: np.ndarray
    threshold: float
    converged_at_detect: bool
    moves: Iterable[ParallelMove] = field(default_factory=list)  # the schedule
    n_moves: int = 0
    iterations: int = 0
    analysis_ops: int = 0
    skipped_stale: int = 0
    program_us: float = 0.0
    n_segments: int = 0
    replay_fallback: bool = False
    lost_atoms: int = 0
    truth_after: np.ndarray | None = None
    target_fill_after: float = 0.0
    defect_free_after: bool = False
    fpga_us: float | None = None
    fpga_cycles: int | None = None


@dataclass
class ShotResult:
    """All cycles of one shot, in execution order."""

    shot: int
    records: list[CycleRecord] = field(default_factory=list)

    @property
    def cycles_used(self) -> int:
        """Cycles that actually scheduled moves (a converged detect is free)."""
        return sum(1 for record in self.records if not record.converged_at_detect)

    @property
    def converged(self) -> bool:
        last = self.records[-1]
        return last.converged_at_detect or last.defect_free_after

    @property
    def total_moves(self) -> int:
        return sum(record.n_moves for record in self.records)

    @property
    def final_fill(self) -> float:
        return self.records[-1].target_fill_after


def spawn_shot_streams(
    master_seed: int, shot: int, cycles: int
) -> tuple[np.random.SeedSequence, list[np.random.SeedSequence]]:
    """(load seed, per-cycle [camera, loss, camera, loss, ...] seeds).

    Derivation mirrors the campaign's seeding contract: children of one
    root ``SeedSequence`` via ``spawn_key``, so results never depend on
    how many sibling shots exist or in which order frames execute.
    """
    root = np.random.SeedSequence(master_seed, spawn_key=(shot,))
    load_seed, loop_seed = root.spawn(2)
    return load_seed, loop_seed.spawn(2 * cycles)


def stage_camera(
    truth: AtomArray, config: PipelineConfig, rng: np.random.Generator
) -> np.ndarray:
    """Expose the shot's live array: truth -> noisy electron-count image."""
    from repro.detection.imaging import render_image

    return render_image(truth, config.camera, rng=rng)


def stage_detect(
    image: np.ndarray,
    truth: AtomArray,
    config: PipelineConfig,
    shot: int,
    cycle: int,
) -> tuple[AtomArray, CycleRecord]:
    """Image -> detected occupancy, plus the frame's trace record."""
    from repro.detection.detect import detect_occupancy
    from repro.lattice.metrics import is_defect_free, target_fill_fraction

    detection = detect_occupancy(image, truth.geometry, config.camera)
    detected = detection.array
    record = CycleRecord(
        shot=shot,
        cycle=cycle,
        occupancy=detected.grid.copy(),
        threshold=detection.threshold,
        converged_at_detect=is_defect_free(detected),
    )
    if record.converged_at_detect:
        # Nothing to schedule: the controller sees a filled target, so
        # the shot retires with the *believed* state as its outcome.
        record.truth_after = truth.grid.copy()
        record.target_fill_after = target_fill_fraction(truth)
        record.defect_free_after = is_defect_free(truth)
    return detected, record


def stage_schedule(detected: AtomArray, record: CycleRecord, algorithm):
    """Occupancy -> move schedule, via the configured algorithm."""
    result = algorithm.schedule(detected)
    record.moves = result.schedule  # objects are built only for the trace
    record.n_moves = result.n_moves
    record.iterations = result.iterations_used
    record.analysis_ops = result.analysis_ops
    record.skipped_stale = sum(stats.n_skipped_stale for stats in result.iterations)
    return result.schedule


def model_accelerator(detected: AtomArray, record: CycleRecord, algorithm) -> None:
    """Run the cycle-level accelerator model on the frame (``fpga_timing``)."""
    from repro.config import DEFAULT_QRM_PARAMETERS
    from repro.fpga.accelerator import QrmAccelerator

    # Honour the scheduler's parameter preset when it has one, so
    # ablation cells model the hardware they actually scheduled with.
    params = getattr(algorithm, "params", None) or DEFAULT_QRM_PARAMETERS
    hw = QrmAccelerator(detected.geometry, params=params).run(detected).report
    record.fpga_us = hw.time_us
    record.fpga_cycles = hw.total_cycles


def stage_awg(schedule, record: CycleRecord, config: PipelineConfig):
    """Move schedule -> AWG tone-waveform program."""
    from repro.awg.compiler import compile_schedule

    program = compile_schedule(schedule, timing=config.timing)
    record.program_us = program.total_duration_us
    record.n_segments = len(program.segments)
    return program


def stage_replay(
    truth: AtomArray,
    schedule,
    record: CycleRecord,
    config: PipelineConfig,
    rng: np.random.Generator,
) -> AtomArray:
    """Physically execute the schedule on the live (truth) array.

    With a loss model the replay is the stochastic
    :func:`~repro.physics.loss.simulate_losses`; without one it is the
    exact executor.  The schedule was computed from the *detected*
    occupancy, so on the rare detection error it may be invalid against
    the truth — that frame falls back to the non-strict executor (which
    skips the offending moves) and is flagged ``replay_fallback``.
    Returns the post-motion truth array.
    """
    from repro.aod.executor import execute_schedule
    from repro.lattice.metrics import is_defect_free, target_fill_fraction
    from repro.physics.loss import simulate_losses

    try:
        if config.loss is not None:
            after = simulate_losses(
                truth, schedule, loss=config.loss, timing=config.timing, rng=rng
            ).final_array
        else:
            after, _ = execute_schedule(truth, schedule, constraints=None)
    except MoveError:
        after, _ = execute_schedule(truth, schedule, constraints=None, strict=False)
        record.replay_fallback = True
    record.lost_atoms = truth.n_atoms - after.n_atoms
    record.truth_after = after.grid.copy()
    record.target_fill_after = target_fill_fraction(after)
    record.defect_free_after = is_defect_free(after)
    return after


def run_shot(
    shot: int,
    truth: AtomArray,
    cycle_streams: list[np.random.SeedSequence],
    config: PipelineConfig,
    algorithm,
    report: StageReport,
) -> ShotResult:
    """Run one shot's closed loop to completion, timing each stage.

    The building block of :func:`repro.pipeline.run_pipeline` and of the
    campaign's multi-cycle trials.  ``cycle_streams`` is the flat
    ``[camera, loss, camera, loss, ...]`` seed list from
    :func:`spawn_shot_streams`.  The cycle-model run of ``fpga_timing``
    stays outside every stage timer, so it never counts as software time.
    """
    result = ShotResult(shot=shot)
    for cycle in range(config.cycles):
        camera_rng = np.random.default_rng(cycle_streams[2 * cycle])
        loss_rng = np.random.default_rng(cycle_streams[2 * cycle + 1])
        with report.timed(STAGE_CAMERA):
            image = stage_camera(truth, config, camera_rng)
        with report.timed(STAGE_DETECT):
            detected, record = stage_detect(image, truth, config, shot, cycle)
        result.records.append(record)
        if record.converged_at_detect:
            break
        with report.timed(STAGE_SCHEDULE):
            schedule = stage_schedule(detected, record, algorithm)
        if config.fpga_timing:
            model_accelerator(detected, record, algorithm)
        with report.timed(STAGE_AWG):
            stage_awg(schedule, record, config)
        with report.timed(STAGE_REPLAY):
            truth = stage_replay(truth, schedule, record, config, loss_rng)
    return result
