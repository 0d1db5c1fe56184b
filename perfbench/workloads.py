"""The benchmark's workloads: ``loop-64``, ``paper-50x50`` and ``service-64``.

Every workload drives the program only through public functions and
times each layer from outside, around the call into it:

* ``detection``: ``render_image`` and ``detect_occupancy``;
* ``core``: ``get_algorithm("qrm", ...).schedule`` / ``schedule_batch``;
* ``awg``: ``compile_schedule``;
* ``physics``: ``simulate_losses``;
* ``pipeline``: the sequential loop around those stages;
* ``service``: ``serve_in_thread`` and one ``ServiceClient``;
* ``fpga``: ``QrmAccelerator.run``, the cycle model.

A workload generates all its inputs from the seed before anything is
timed (``make_inputs``), builds the program's objects and runs one
warm-up frame (``setup``), runs timed phases (``run``), and checks its
outputs (``check``).  Between units of work it calls each of its
``hooks`` (the FPGA sampler and the host clock), outside frame timing.
Schedule quality and the per-layer counts are taken over a fixed set of
inputs (the loop's first shots, a pool's oracle), so they repeat exactly
for a seed no matter how many frames a phase completes.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import zip_longest

import numpy as np

from repro.aod.executor import execute_schedule
from repro.aod.timing import DEFAULT_MOVE_TIMING
from repro.awg.compiler import compile_schedule
from repro.baselines.base import get_algorithm
from repro.detection.detect import detect_occupancy
from repro.detection.imaging import render_image
from repro.errors import MoveError, ServiceError
from repro.fpga.accelerator import QrmAccelerator
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform
from repro.lattice.metrics import is_defect_free, target_fill_fraction
from repro.physics.loss import LossModel, simulate_losses
from repro.pipeline import PipelineConfig, run_pipeline
from repro.pipeline.engine import PipelineResult
from repro.pipeline.stages import CycleRecord, ShotResult, spawn_shot_streams
from repro.service.cache import SchedulerKey
from repro.service.client import ServiceClient
from repro.service.server import serve_in_thread

from spans import NULL_TRACER

FILL = 0.5

#: Loop stages: (share name, span name, per-layer metric).
LOOP_STAGES = (
    ("camera", "detection.camera", "detection.camera_ms"),
    ("detect", "detection.detect", "detection.detect_ms"),
    ("schedule", "core.schedule", "core.schedule_ms"),
    ("awg", "awg.compile", "awg.compile_ms"),
    ("replay", "physics.replay", "physics.replay_ms"),
)

#: Per-frame schedule counts, averaged over a workload's fixed prefix.
CORE_COUNTS = (
    "core.moves",
    "core.line_shifts",
    "core.analysis_ops",
    "core.iterations",
    "core.repair_moves",
    "core.unresolved_defects",
)


def span_ms(tracer, name: str) -> float:
    """Median duration of the spans called ``name``, in ms."""
    return (
        median([end - start for span, start, end, *_ in tracer.spans if span == name])
        * 1e3
    )


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def move_rows(schedule) -> list[tuple]:
    """A schedule as comparable rows, tags included."""
    return [(move.direction, move.steps, move.tag, move.shifts) for move in schedule]


def same_result(a, b) -> bool:
    """Bit-identical schedules and final occupancy."""
    return a.final == b.final and move_rows(a.schedule) == move_rows(b.schedule)


def result_counts(result) -> dict[str, float]:
    """The ``core`` counts and schedule quality of one result."""
    schedule = result.schedule
    return {
        "core.moves": len(schedule),
        "core.line_shifts": schedule.n_line_shifts,
        "core.analysis_ops": result.analysis_ops,
        "core.iterations": result.iterations_used,
        "core.repair_moves": result.repair_moves,
        "core.unresolved_defects": result.unresolved_defects,
        "motion_us": DEFAULT_MOVE_TIMING.schedule_motion_us(schedule),
        "fill": result.target_fill_fraction,
    }


@dataclass
class Phase:
    """Frame timings of one timed phase.

    A unit is what the workload times as one block of work: a shot
    (``loop-64``), a frame (``paper-50x50``) or a burst (``service-64``);
    ``unit_log`` holds each unit's frame count and busy seconds.  Every
    frame and unit is stamped with the ``perf_counter`` time it ended,
    so that ``scaled`` can take each to the host speed of its moment.
    """

    frame_ms: list[float] = field(default_factory=list)
    first: list[bool] = field(default_factory=list)
    frame_end: list[float] = field(default_factory=list)
    unit_log: list[tuple[int, float]] = field(default_factory=list)
    unit_end: list[float] = field(default_factory=list)

    @property
    def units(self) -> int:
        return len(self.unit_log)

    @property
    def first_ms(self) -> list[float]:
        return [ms for ms, first in zip(self.frame_ms, self.first) if first]

    def add(self, ms: float, first: bool) -> None:
        self.frame_ms.append(ms)
        self.first.append(first)
        self.frame_end.append(time.perf_counter())

    def add_unit(self, frames: int, busy: float) -> None:
        self.unit_log.append((frames, busy))
        self.unit_end.append(time.perf_counter())

    def scaled(self, scale_at) -> Phase:
        """This phase with every time multiplied by ``scale_at(end)``."""
        return replace(
            self,
            frame_ms=[
                ms * scale_at(end) for ms, end in zip(self.frame_ms, self.frame_end)
            ],
            unit_log=[
                (frames, busy * scale_at(end))
                for (frames, busy), end in zip(self.unit_log, self.unit_end)
            ],
        )


def _until(seconds: float, min_units: int):
    """Loop condition: run ``seconds`` and at least ``min_units`` units."""
    start = time.perf_counter()
    return lambda phase: (
        time.perf_counter() - start < seconds or phase.units < min_units
    )


class ClosedLoop:
    """``loop-64``: camera -> detect -> schedule -> AWG -> lossy replay.

    Shots stream one at a time, each for a fixed number of cycles; a
    frame is one shot-cycle.  The loop mirrors ``run_pipeline``'s
    sequential mode stage by stage, and ``check`` holds it to that
    mode's trace digest.
    """

    name = "loop-64"

    def __init__(
        self,
        seed: int,
        size: int = 64,
        target: int | None = None,
        max_shots: int = 500,
        prefix: int = 16,
        fpga_frames: int = 48,
    ):
        self.config = PipelineConfig(
            size=size,
            target=target,
            fill=FILL,
            cycles=3,
            master_seed=seed,
            loss=LossModel(),
        )
        self.geometry = self.config.geometry()
        self.max_shots = max_shots
        self.prefix = prefix
        self.min_units = prefix
        self.fpga_count = fpga_frames
        self.next_shot = 0
        self.frames_done = 0
        self.hooks = []
        self.digest = hashlib.sha256()
        self.line_hashes: list[str] = []
        self.prefix_stats: list[dict] = []
        self.prefix_fill: list[float] = []
        self.fpga_frames: list[AtomArray] = []

    def _shot_input(self, shot: int):
        """The same initial array and per-cycle streams as ``run_pipeline``."""
        load_seed, streams = spawn_shot_streams(
            self.config.master_seed, shot, self.config.cycles
        )
        truth = load_uniform(
            self.geometry, self.config.fill, rng=np.random.default_rng(load_seed)
        )
        rngs = [
            (
                np.random.default_rng(streams[2 * cycle]),
                np.random.default_rng(streams[2 * cycle + 1]),
            )
            for cycle in range(self.config.cycles)
        ]
        return truth, rngs

    def make_inputs(self, warmup_only: bool = False) -> None:
        self.warmup = self._shot_input(self.max_shots)
        if not warmup_only:
            self.inputs = [self._shot_input(shot) for shot in range(self.max_shots)]

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.algorithm = get_algorithm("qrm", self.geometry)
        truth, rngs = self.warmup
        self._frame(-1, 0, truth, rngs[0], NULL_TRACER)

    def close(self) -> None:
        pass

    def _frame(self, shot, cycle, truth, rngs, tracer):
        """One shot-cycle; the stage logic of ``repro.pipeline.stages``."""
        config = self.config
        camera_rng, loss_rng = rngs
        with tracer.span("detection.camera"):
            image = render_image(truth, config.camera, rng=camera_rng)
        with tracer.span("detection.detect"):
            detection = detect_occupancy(image, self.geometry, config.camera)
        detected = detection.array
        record = CycleRecord(
            shot=shot,
            cycle=cycle,
            occupancy=detected.grid.copy(),
            threshold=detection.threshold,
            converged_at_detect=is_defect_free(detected),
        )
        if record.converged_at_detect:
            record.truth_after = truth.grid.copy()
            record.target_fill_after = target_fill_fraction(truth)
            record.defect_free_after = is_defect_free(truth)
            return record, truth, (detected, None, None)
        with tracer.span("core.schedule"):
            result = self.algorithm.schedule(detected)
        record.moves = list(result.schedule)
        record.n_moves = result.n_moves
        record.iterations = result.iterations_used
        record.analysis_ops = result.analysis_ops
        record.skipped_stale = sum(it.n_skipped_stale for it in result.iterations)
        with tracer.span("awg.compile"):
            program = compile_schedule(result.schedule, timing=config.timing)
        record.program_us = program.total_duration_us
        record.n_segments = len(program.segments)
        atoms_before = truth.n_atoms
        with tracer.span("physics.replay"):
            try:
                after = simulate_losses(
                    truth,
                    result.schedule,
                    loss=config.loss,
                    timing=config.timing,
                    rng=loss_rng,
                ).final_array
            except MoveError:
                after, _ = execute_schedule(
                    truth, result.schedule, constraints=None, strict=False
                )
                record.replay_fallback = True
        record.lost_atoms = atoms_before - after.n_atoms
        record.truth_after = after.grid.copy()
        record.target_fill_after = target_fill_fraction(after)
        record.defect_free_after = is_defect_free(after)
        return record, after, (detected, result, program)

    def run(self, seconds: float, tracer, min_units: int = 0) -> Phase:
        phase = Phase()
        going = _until(seconds, min_units)
        while self.next_shot < self.max_shots and going(phase):
            shot = self.next_shot
            self.next_shot += 1
            truth, rngs = self.inputs[shot]
            self.inputs[shot] = None
            records = []
            busy = 0.0
            for cycle, streams in enumerate(rngs):
                before = truth
                start = time.perf_counter()
                with tracer.span("pipeline.frame", frame=f"{shot}.{cycle}"):
                    record, truth, parts = self._frame(
                        shot, cycle, truth, streams, tracer
                    )
                elapsed = time.perf_counter() - start
                busy += elapsed
                phase.add(elapsed * 1e3, first=cycle == 0)
                records.append(record)
                self._account(shot, cycle, before, record, parts)
                if record.converged_at_detect:
                    break
            if shot < self.prefix:
                self._hash_trace(shot, records)
            phase.add_unit(len(records), busy)
            self.frames_done += len(records)
            for hook in self.hooks:
                hook.tick(tracer)
        return phase

    def _hash_trace(self, shot, records) -> None:
        """Keep the prefix shots' trace lines as hashes, for ``check``."""
        self.prefix_fill.append(records[-1].target_fill_after)
        for line in PipelineResult(
            config=self.config,
            mode="sequential",
            shots=[ShotResult(shot=shot, records=records)],
        ).trace_lines():
            encoded = line.encode("utf-8")
            self.digest.update(encoded + b"\n")
            self.line_hashes.append(hashlib.sha256(encoded).hexdigest())

    def _account(self, shot, cycle, truth, record, parts) -> None:
        """Counts of the prefix frames, taken outside the frame timing."""
        detected, result, program = parts
        if cycle == 0 and shot < self.fpga_count:
            self.fpga_frames.append(detected)
        if shot >= self.prefix:
            return
        stats = {
            "detection.site_errors": int(np.count_nonzero(detected.grid != truth.grid)),
            "physics.atoms_lost": record.lost_atoms,
            "pipeline.replay_fallbacks": int(record.replay_fallback),
        }
        if result is not None:
            stats.update(result_counts(result))
            stats["awg.segments"] = len(program.segments)
            stats["awg.tones"] = sum(len(seg.tones) for seg in program.segments)
        self.prefix_stats.append(stats)

    def check(self) -> tuple[int, int]:
        """The prefix shots against ``run_pipeline``'s trace of them."""
        reference = run_pipeline(
            replace(self.config, shots=min(self.prefix, self.next_shot)),
            "sequential",
        )
        failed = sum(
            1
            for ours, theirs in zip_longest(
                self.line_hashes, reference.trace_lines()
            )
            if ours is None
            or theirs is None
            or ours != hashlib.sha256(theirs.encode("utf-8")).hexdigest()
        )
        if not failed and self.digest.hexdigest() != reference.trace_digest():
            failed = 1
        self.checked = len(self.line_hashes)
        return self.frames_done, failed

    def quality(self) -> dict[str, float]:
        stats = self.prefix_stats
        return {
            "moves_per_frame": mean([s.get("core.moves", 0) for s in stats]),
            "motion_us_per_frame": mean([s.get("motion_us", 0.0) for s in stats]),
            "target_fill_mean": mean(self.prefix_fill),
        }

    def counts(self) -> dict[str, float]:
        keys = CORE_COUNTS + (
            "detection.site_errors",
            "awg.segments",
            "awg.tones",
            "physics.atoms_lost",
        )
        out = {key: mean([s.get(key, 0) for s in self.prefix_stats]) for key in keys}
        out["pipeline.replay_fallbacks"] = sum(
            s["pipeline.replay_fallbacks"] for s in self.prefix_stats
        )
        return out

    def layer_metrics(self, tracer) -> dict[str, float]:
        """Stage times, shares and unattributed time of the traced frames."""
        stages: dict[int, dict[str, float]] = defaultdict(dict)
        frames = {}
        for index, (name, start, end, parent, frame, _) in enumerate(tracer.spans):
            if name == "pipeline.frame":
                frames[index] = (end - start, frame.split(".")[-1] == "0")
            elif parent in frames:
                stages[parent][name] = end - start
        out = self.counts()
        groups = {
            "": list(frames),
            ".first": [i for i, (_, first) in frames.items() if first],
            ".repair": [i for i, (_, first) in frames.items() if not first],
        }
        for suffix, members in groups.items():
            wall = sum(frames[i][0] for i in members)
            for share, span, metric in LOOP_STAGES:
                times = [stages[i][span] for i in members if span in stages[i]]
                out[metric + suffix] = median(times) * 1e3
                out[f"pipeline.{share}_share{suffix}"] = (
                    sum(times) / wall if wall else 0.0
                )
            out["pipeline.unattributed_ms" + suffix] = (
                median([frames[i][0] - sum(stages[i].values()) for i in members])
                * 1e3
            )
        return out


class Pooled:
    """Shared part of the workloads that schedule a pool of loadings.

    The frames are distinct uniform loadings at fill 0.5, used in turn
    and again from the start once the pool is used up.  ``prepare``
    computes the oracle, an in-process ``schedule()`` of every pool frame
    on its own scheduler, before any timing; each timed result must equal
    it bit for bit.  Quality and counts are the oracle's.
    """

    n_warmup = 1

    def __init__(self, seed, size, target, pool, fpga_frames):
        self.seed = seed
        self.geometry = ArrayGeometry.square(size, target)
        self.pool_size = pool
        self.fpga_count = fpga_frames
        self.cursor = 0
        self.failed = 0
        self.hooks = []

    def make_inputs(self, warmup_only: bool = False) -> None:
        gen = np.random.default_rng(self.seed)
        self.warmup = [
            load_uniform(self.geometry, FILL, rng=gen) for _ in range(self.n_warmup)
        ]
        if not warmup_only:
            self.pool = [
                load_uniform(self.geometry, FILL, rng=gen)
                for _ in range(self.pool_size)
            ]
            self.reference_index = int(gen.integers(self.pool_size))
            self.fpga_frames = self.pool[: self.fpga_count]

    def prepare(self) -> None:
        scheduler = get_algorithm("qrm", self.geometry)
        self.expected = [scheduler.schedule(frame) for frame in self.pool]
        self.expected_counts = [result_counts(result) for result in self.expected]
        self.uses = [0] * self.pool_size

    def _check(self, index: int, result) -> None:
        self.uses[index] += 1
        if result is None or not same_result(result, self.expected[index]):
            self.failed += 1

    def quality(self) -> dict[str, float]:
        counts = self.expected_counts
        return {
            "moves_per_frame": mean([c["core.moves"] for c in counts]),
            "motion_us_per_frame": mean([c["motion_us"] for c in counts]),
            "target_fill_mean": mean([c["fill"] for c in counts]),
        }

    def counts(self) -> dict[str, float]:
        counts = self.expected_counts
        return {key: mean([c[key] for c in counts]) for key in CORE_COUNTS}


class PaperGeometry(Pooled):
    """``paper-50x50``: one warm scheduler, one ``schedule()`` per frame.

    The paper's geometry: 50x50 loadings at fill 0.5, target 30x30.
    ``check`` replays every oracle schedule strictly (so every timed
    schedule, being equal to it, replays too) and compares one sampled
    frame with a scheduler built on ``run_pass_reference``.
    """

    name = "paper-50x50"

    def __init__(self, seed, size=50, target=30, pool=128, fpga_frames=48):
        super().__init__(seed, size, target, pool, fpga_frames)
        self.min_units = pool

    def setup(self) -> None:
        self.scheduler = get_algorithm("qrm", self.geometry)
        self.scheduler.schedule(self.warmup[0])

    def close(self) -> None:
        pass

    def run(self, seconds: float, tracer, min_units: int = 0) -> Phase:
        phase = Phase()
        going = _until(seconds, min_units)
        while going(phase):
            index = self.cursor % self.pool_size
            self.cursor += 1
            start = time.perf_counter()
            with tracer.span("core.schedule", frame=str(self.cursor)):
                result = self.scheduler.schedule(self.pool[index])
            elapsed = time.perf_counter() - start
            phase.add(elapsed * 1e3, first=True)
            phase.add_unit(1, elapsed)
            self._check(index, result)
            for hook in self.hooks:
                hook.tick(tracer)
        return phase

    def check(self) -> tuple[int, int]:
        failed = self.failed
        for index, (frame, result) in enumerate(zip(self.pool, self.expected)):
            try:
                final, _ = execute_schedule(frame, result.schedule, strict=True)
                good = final == result.final
            except MoveError:
                good = False
            if not good:
                failed += self.uses[index]
        index = self.reference_index
        reference = get_algorithm("qrm-reference", self.geometry)
        if not same_result(reference.schedule(self.pool[index]), self.expected[index]):
            failed += self.uses[index]
        self.checked = self.cursor
        return self.cursor, min(failed, self.cursor)

    def layer_metrics(self, tracer) -> dict[str, float]:
        out = self.counts()
        out["core.schedule_ms"] = span_ms(tracer, "core.schedule")
        return out


class Service(Pooled):
    """``service-64``: bursts of 8 frames through one service connection.

    An in-process ``serve_in_thread`` server with its production
    micro-batching defaults; one ``ServiceClient`` submits a burst with
    ``submit_schedule`` and waits for all of it before the next (a closed
    loop with one client).  A request's time runs from its submission to
    the moment the client has its result and those of the requests
    submitted before it.
    """

    name = "service-64"
    burst = n_warmup = 8

    def __init__(self, seed, size=64, target=None, pool=128, fpga_frames=48):
        super().__init__(seed, size, target, pool, fpga_frames)
        self.min_units = pool // self.burst
        self.key = SchedulerKey(
            geometry=(
                self.geometry.width,
                self.geometry.height,
                self.geometry.target_width,
                self.geometry.target_height,
            )
        )
        self.burst_ms: list[float] = []
        self.batch_ms: list[float] = []
        self.server = None
        self.client = None
        self.batch_scheduler = None
        self.stats_before = None
        self.stats_after = None

    def setup(self) -> None:
        self.server = serve_in_thread()
        self.client = ServiceClient(self.server.address)
        self.client.schedule_many(self.key, self.warmup)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run(self, seconds: float, tracer, min_units: int = 0) -> Phase:
        phase = Phase()
        going = _until(seconds, min_units)
        if self.stats_before is None:
            self.stats_before = self.client.stats()
        if tracer.enabled and self.batch_scheduler is None:
            self.batch_scheduler = get_algorithm("qrm", self.geometry)
            self.batch_scheduler.schedule_batch(self.warmup)
        while going(phase):
            indices = [(self.cursor + k) % self.pool_size for k in range(self.burst)]
            burst_id = self.cursor // self.burst
            self.cursor += self.burst
            frames = [self.pool[i] for i in indices]
            done = []
            with tracer.span("service.burst", frame=f"burst.{burst_id}"):
                start = time.perf_counter()
                futures = [
                    (time.perf_counter(), self.client.submit_schedule(self.key, f))
                    for f in frames
                ]
                for submitted, future in futures:
                    try:
                        result = future.result()
                    except ServiceError:
                        result = None
                    done.append((submitted, time.perf_counter(), result))
                elapsed = time.perf_counter() - start
                for slot, (submitted, finished, _) in enumerate(done):
                    tracer.add(
                        "service.request",
                        submitted,
                        finished,
                        frame=f"burst.{burst_id}.{slot}",
                        track=2 + slot,
                    )
            phase.add_unit(len(done), elapsed)
            self.burst_ms.append(elapsed * 1e3)
            for index, (submitted, finished, result) in zip(indices, done):
                phase.add((finished - submitted) * 1e3, first=True)
                self._check(index, result)
            if tracer.enabled:
                # The same burst in process: batched, then one at a time.
                with tracer.span("core.batch", frame=f"burst.{burst_id}"):
                    start = time.perf_counter()
                    self.batch_scheduler.schedule_batch(frames)
                    self.batch_ms.append((time.perf_counter() - start) * 1e3)
                for slot, frame in enumerate(frames):
                    with tracer.span("core.schedule", frame=f"burst.{burst_id}.{slot}"):
                        self.batch_scheduler.schedule(frame)
            for hook in self.hooks:
                hook.tick(tracer)
        self.stats_after = self.client.stats()
        return phase

    def check(self) -> tuple[int, int]:
        self.checked = self.cursor
        return self.cursor, self.failed

    def layer_metrics(self, tracer) -> dict[str, float]:
        """Service counters (deltas of the ``stats`` op) and batch times."""
        before, after = self.stats_before, self.stats_after
        out = self.counts()
        out["core.schedule_ms"] = span_ms(tracer, "core.schedule")
        batch_ms = median(self.batch_ms)
        waves = after["waves"] - before["waves"]
        out.update(
            {
                "core.batch_ms_per_frame": batch_ms / self.burst,
                "service.requests_per_wave": (
                    (after["requests"] - before["requests"]) / waves if waves else 0.0
                ),
                "service.max_wave": after["max_wave"],
                "service.errors": after["errors"] - before["errors"],
                "service.fallback_calls": (
                    after["fallback_calls"] - before["fallback_calls"]
                ),
                "service.overhead_ms_per_frame": (
                    (median(self.burst_ms) - batch_ms) / self.burst
                ),
            }
        )
        return out


WORKLOADS = {cls.name: cls for cls in (ClosedLoop, PaperGeometry, Service)}

#: Reduced sizes for the benchmark's self-test (``--smoke``).
SMOKE = {
    "loop-64": {"size": 16, "max_shots": 200, "prefix": 2, "fpga_frames": 2},
    "paper-50x50": {"size": 12, "target": 6, "pool": 8, "fpga_frames": 2},
    "service-64": {"size": 16, "pool": 16, "fpga_frames": 2},
}


def make_workload(name: str, seed: int, smoke: bool = False):
    return WORKLOADS[name](seed, **(SMOKE[name] if smoke else {}))


class FpgaSampler:
    """The cycle model on a fixed subset of a workload's frames.

    ``tick`` runs the next frame once its turn is due, so host-time
    samples spread evenly over the timed phases instead of falling in
    one window at the end; ``finish`` runs whatever is left.  ``frames``
    may still grow while the workload runs (``loop-64`` adds its first
    frames as they are detected).
    """

    def __init__(self, geometry, frames: list, count: int, seconds: float):
        self.accelerator = QrmAccelerator(geometry)
        self.frames = frames
        self.count = count
        self.interval = seconds / max(count, 1)
        self.start = time.perf_counter()
        self.cycles: list[int] = []
        self.host_s: list[float] = []
        self.ends: list[float] = []

    def tick(self, tracer) -> None:
        index = len(self.cycles)
        due = self.start + index * self.interval
        if index < min(self.count, len(self.frames)) and time.perf_counter() >= due:
            self._run(index, tracer)

    def finish(self, tracer) -> None:
        while len(self.cycles) < min(self.count, len(self.frames)):
            self._run(len(self.cycles), tracer)

    def _run(self, index: int, tracer) -> None:
        frame = self.frames[index]
        if index == 0:
            self.accelerator.run(frame)  # warm-up, untimed
        start = time.perf_counter()
        with tracer.span("fpga.run", frame=f"fpga.{index}"):
            report = self.accelerator.run(frame).report
        self.ends.append(time.perf_counter())
        self.host_s.append(self.ends[-1] - start)
        self.cycles.append(report.total_cycles)

    def summary(self, scale_at=lambda end: 1.0) -> dict[str, float]:
        """Cycle counts and host times, each time times ``scale_at(end)``.

        ``cycles_per_s`` is the median over frames, so that a frame
        slowed by the service's threads winding down does not move it.
        """
        clock_mhz = self.accelerator.config.clock_mhz
        host_s = [s * scale_at(end) for s, end in zip(self.host_s, self.ends)]
        return {
            "cycles": mean(self.cycles),
            "analysis_us": mean(self.cycles) / clock_mhz,
            "cycles_per_s": median(
                [cycles / s for cycles, s in zip(self.cycles, host_s)]
            ),
            "host_ms": median(host_s) * 1e3,
            "frames": len(self.cycles),
        }
