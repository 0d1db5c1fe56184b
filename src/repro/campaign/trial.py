"""Trial specification and execution.

A :class:`TrialSpec` is one scenario cell plus one seed index: a small,
picklable value object that keys the cache, the journal and the
observer events.

Every trial derives two independent RNG streams (array loading and
loss simulation) from one ``SeedSequence`` via ``spawn`` — see
:mod:`repro.campaign.spec` for the seeding contract.

The unit of work the executors move between processes is a *batch*: a
group of same-cell trials that :func:`run_trial_batch_guarded` runs
through one :func:`repro.baselines.base.schedule_batch` call, so
algorithms with a native batched engine (QRM) amortise their dispatch
overhead across the group.  A lone trial is a batch of one
(:func:`run_trial`).  Batched results are bit-identical to per-trial
scheduling — only the wall-clock ``cpu_us`` convention is amortised
(batch time / N).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.campaign.spec import (
    TRIAL_SCHEMA_VERSION,
    ScenarioCell,
    stable_entropy,
    stable_hash,
)


@dataclass(frozen=True)
class TrialSpec:
    """One (cell, seed) execution of a campaign."""

    cell: ScenarioCell
    seed_index: int
    master_seed: int

    def seed_sequence(self) -> np.random.SeedSequence:
        """The trial's root ``SeedSequence``.

        Equivalent to ``cell_sequence(...).spawn(n)[seed_index]``: a
        ``SeedSequence`` constructed with ``spawn_key=(i,)`` is exactly
        the ``i``-th child ``spawn`` would return, without having to
        materialise the earlier siblings.
        """
        entropy = [self.master_seed, stable_entropy(self.cell.instance_key())]
        return np.random.SeedSequence(entropy, spawn_key=(self.seed_index,))

    def key(self) -> str:
        """Cache key: depends on the full cell, the seed and the schema."""
        return stable_hash(
            {
                "cell": self.cell.to_dict(),
                "seed_index": self.seed_index,
                "master_seed": self.master_seed,
                "version": TRIAL_SCHEMA_VERSION,
            }
        )


def cell_sequence(cell: ScenarioCell, master_seed: int) -> np.random.SeedSequence:
    """The per-cell parent sequence whose ``spawn`` children seed trials."""
    return np.random.SeedSequence([master_seed, stable_entropy(cell.instance_key())])


@dataclass(frozen=True)
class TrialResult:
    """Flat metric mapping produced by one trial (JSON-serialisable)."""

    key: str
    metrics: Mapping[str, float]

    def to_dict(self) -> dict:
        return {"key": self.key, "metrics": dict(self.metrics)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrialResult":
        return cls(key=data["key"], metrics=dict(data["metrics"]))


@dataclass(frozen=True)
class TrialFailure:
    """A trial raised instead of producing metrics.

    Crossing the executor boundary as a value (rather than an
    exception) lets the engine journal the failure against the right
    trial before aborting the campaign — a raw exception escaping the
    executor has already lost which trial raised it.
    """

    key: str
    error: str


def cell_geometry(cell: ScenarioCell):
    """The cell's array geometry: a centred rectangle or a masked target."""
    from repro.lattice.geometry import ArrayGeometry

    if cell.mask is not None:
        return ArrayGeometry.with_mask(
            cell.size, cell.size, cell.mask.build(cell.size)
        )
    return ArrayGeometry.square(cell.size, cell.target)


def _load_array(cell: ScenarioCell, geometry, load_seed) -> "object":
    """Load the cell's initial array through its named loading model."""
    from repro.lattice.loading import load_named

    return load_named(
        cell.loading, geometry, cell.fill, rng=np.random.default_rng(load_seed)
    )


def _resolve_algorithm(cell: ScenarioCell, geometry):
    """The cell's scheduler: an explicit QRM preset or a registry name."""
    from repro.baselines.base import get_algorithm

    if cell.qrm is not None:
        from repro.core.qrm import QrmScheduler

        return QrmScheduler(geometry, cell.qrm.to_params())
    return get_algorithm(cell.algorithm, geometry)


def run_trial(trial: TrialSpec) -> TrialResult:
    """Execute one trial and return its metrics: a batch of one."""
    return run_trial_batch([trial])[0]


def _closed_loop_trial(trial: TrialSpec, algorithm) -> TrialResult:
    """Multi-cycle trial: the pipeline's closed loop, one shot per trial.

    Seed derivation mirrors the single-cycle path's first split — the
    trial sequence spawns (load, loop) and the loop sequence spawns the
    flat per-cycle ``[camera, loss, ...]`` streams
    (:func:`repro.pipeline.stages.spawn_shot_streams` shape).  Count
    metrics are summed over cycles; state metrics (``target_fill``,
    ``defect_free``, ``survival``) describe the final truth array.
    ``motion_ms`` is the summed AWG program duration (the closed loop
    compiles waveforms, so that is the natural per-cycle motion time).
    """
    from repro.pipeline.stages import PipelineConfig, run_shot
    from repro.timing.latency import STAGE_SCHEDULE, StageReport

    cell = trial.cell
    config = PipelineConfig(
        size=cell.size,
        target=cell.target,
        fill=cell.fill,
        algorithm=cell.algorithm,
        cycles=cell.cycles,
        loss=cell.loss.to_model() if cell.loss is not None else None,
        fpga_timing=cell.fpga,
        mask=cell.mask.build(cell.size) if cell.mask is not None else None,
    )
    load_seed, loop_seed = trial.seed_sequence().spawn(2)
    array = _load_array(cell, config.geometry(), load_seed)
    n_initial = array.n_atoms
    report = StageReport()
    shot = run_shot(
        0, array, loop_seed.spawn(2 * cell.cycles), config, algorithm, report
    )

    records = shot.records
    last = records[-1]
    metrics: dict[str, float] = {
        "moves": float(shot.total_moves),
        "iterations": float(sum(record.iterations for record in records)),
        "target_fill": float(last.target_fill_after),
        "defect_free": float(last.defect_free_after),
        "analysis_ops": float(sum(record.analysis_ops for record in records)),
        "skipped_stale": float(
            sum(record.skipped_stale for record in records)
        ),
        "cycles_used": float(shot.cycles_used),
    }
    if cell.timing:
        timing = report.stages.get(STAGE_SCHEDULE)
        metrics["cpu_us"] = timing.total_us if timing is not None else 0.0
    if cell.fpga:
        metrics["fpga_cycles"] = float(
            sum(record.fpga_cycles or 0 for record in records)
        )
        metrics["fpga_us"] = float(
            sum(record.fpga_us or 0.0 for record in records)
        )
    if cell.loss is not None:
        n_final = int(last.truth_after.sum())
        metrics["survival"] = n_final / n_initial if n_initial else 1.0
        metrics["fill_after_loss"] = float(last.target_fill_after)
        metrics["motion_ms"] = (
            sum(record.program_us for record in records) / 1000.0
        )
    return TrialResult(key=trial.key(), metrics=metrics)


def run_trial_batch_guarded(
    trials: Sequence[TrialSpec],
) -> "list[TrialResult | TrialFailure]":
    """:func:`run_trial_batch`, with exceptions captured as failures.

    A batch fails as a unit: one exception marks every trial of the
    group, and the engine aborts on the first failure it sees.
    """
    try:
        return list(run_trial_batch(trials))
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return [TrialFailure(key=trial.key(), error=error) for trial in trials]


def run_trial_batch(trials: Sequence[TrialSpec]) -> list[TrialResult]:
    """Execute a group of same-cell trials through one batched call.

    Deterministic given the trial specs, except for the wall-clock
    metrics added when ``cell.timing`` is set: ``cpu_us`` is the
    amortised per-trial cost (whole-batch wall time divided by the
    group size, best of 3 repeats).  Metrics are derived from
    :func:`repro.baselines.base.schedule_batch` results, which are
    bit-identical to per-trial ``schedule`` calls, so the batch
    boundary never changes a deterministic metric.  Cells with
    ``cycles > 1`` run the closed-loop pipeline (image -> detect ->
    schedule -> replay, repeated) per trial instead.
    """
    from repro.baselines.base import schedule_batch

    if not trials:
        return []
    cell = trials[0].cell
    if any(trial.cell != cell for trial in trials[1:]):
        raise ValueError("run_trial_batch requires trials from one scenario cell")
    geometry = cell_geometry(cell)
    algorithm = _resolve_algorithm(cell, geometry)
    if cell.cycles > 1:
        # The closed loop interleaves scheduling with camera/loss state,
        # so there is no whole-batch schedule call to amortise.
        return [_closed_loop_trial(trial, algorithm) for trial in trials]
    seeds = [trial.seed_sequence().spawn(2) for trial in trials]
    arrays = [
        _load_array(cell, geometry, load_seed) for load_seed, _ in seeds
    ]

    start = time.perf_counter()
    results = schedule_batch(algorithm, arrays)
    elapsed_us = (time.perf_counter() - start) * 1e6 / len(trials)
    if cell.timing:
        for _ in range(2):
            start = time.perf_counter()
            schedule_batch(algorithm, arrays)
            elapsed_us = min(
                elapsed_us, (time.perf_counter() - start) * 1e6 / len(trials)
            )

    return [
        _trial_metrics(trial, array, result, loss_seed, elapsed_us)
        for trial, array, result, (_, loss_seed) in zip(
            trials, arrays, results, seeds
        )
    ]


def _trial_metrics(
    trial: TrialSpec,
    array,
    result,
    loss_seed: np.random.SeedSequence,
    elapsed_us: float,
) -> TrialResult:
    """Flatten one scheduling result into the trial's metric mapping."""
    cell = trial.cell
    metrics: dict[str, float] = {
        "moves": float(result.n_moves),
        "iterations": float(result.iterations_used),
        "target_fill": float(result.target_fill_fraction),
        "defect_free": float(result.defect_free),
        "analysis_ops": float(result.analysis_ops),
        "skipped_stale": float(
            sum(stats.n_skipped_stale for stats in result.iterations)
        ),
    }
    if cell.timing:
        metrics["cpu_us"] = elapsed_us

    if cell.fpga:
        from repro.fpga.accelerator import QrmAccelerator

        if cell.qrm is not None:
            accelerator = QrmAccelerator(array.geometry, params=cell.qrm.to_params())
        else:
            accelerator = QrmAccelerator(array.geometry)
        run = accelerator.run(array)
        metrics["fpga_cycles"] = float(run.report.total_cycles)
        metrics["fpga_us"] = float(run.report.time_us)

    if cell.loss is not None:
        from repro.aod.timing import DEFAULT_MOVE_TIMING
        from repro.physics.loss import simulate_losses

        report = simulate_losses(
            array,
            result.schedule,
            loss=cell.loss.to_model(),
            rng=np.random.default_rng(loss_seed),
        )
        from repro.lattice.metrics import target_fill_fraction

        metrics["survival"] = float(report.survival_fraction)
        metrics["fill_after_loss"] = float(target_fill_fraction(report.final_array))
        metrics["motion_ms"] = (
            DEFAULT_MOVE_TIMING.schedule_motion_us(result.schedule) / 1000.0
        )

    return TrialResult(key=trial.key(), metrics=metrics)
