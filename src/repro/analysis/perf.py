"""Schedule-construction performance benchmark harness (``repro bench``).

The paper's headline is that rearrangement analysis must be orders of
magnitude faster than a CPU reference, so this repository tracks its own
scheduling latency as a first-class artefact: ``repro bench`` times
schedule construction for QRM and the published baselines over a grid of
array sizes and fill fractions, and writes a machine-readable
``BENCH_qrm.json`` with mean/std/min/max per case.

The report also carries a *speedup* block for the QRM hot path — the
vectorised scheduler vs. the live per-command reference oracle
(:func:`repro.core.passes.run_pass_reference`) — plus one *component speedup*
entry per additionally vectorised stage (repair, Tetris, PSCA, MTA1,
the guarded pipelined-mode drain, the masked QRM+repair path on a
ring target, AWG compilation, lossy replay and the FPGA cycle model),
each timed against its live ``*_reference`` oracle, and one per
subsystem-level before/after pair (cross-trial batching and service
micro-batching).  Both the "before" and
"after" numbers of every vectorisation live in the same file, and
:func:`validate_bench_report` pins the JSON layout so the artefact
cannot silently drift.

Raw timings are wall-clock and therefore machine- and run-dependent,
but every recorded *speedup* is a ratio of best-of minima from
interleaved, GC-swept repeats — reproducible enough that
:mod:`repro.analysis.perf_gate` gates CI on them (``repro bench
--gate``).  Everything else (trial seeds, schedule sizes) is
deterministic under ``master_seed``.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.analysis.stats import Summary
from repro.analysis.tables import format_table
from repro.baselines.base import DEFAULT_ALGORITHMS, get_algorithm
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform

#: Bump when the JSON layout changes (v11: the ``fpga_cycle_model``
#: component times the accelerator's closed-form iteration cost).
BENCH_SCHEMA_VERSION = 11

#: Components with a live before/after speedup measurement.  All but
#: ``batched_qrm`` and ``service_latency`` time a vectorised path
#: against its per-command reference oracle (``masked_qrm`` does so on
#: a non-rectangular ring target, covering the mask-derived scan limits
#: and mask-aware repair; ``awg_compile`` and ``lossy_replay`` time the
#: loop's schedule consumers; ``fpga_cycle_model`` times the
#: accelerator's closed-form iteration cost against its tick-by-tick
#: dataflow simulation); ``batched_qrm`` times QRM stacks of
#: several trials against a batch of one (``schedule``), and
#: ``service_latency`` times the scheduling service with micro-batching
#: on against the same service with batching off.
COMPONENT_NAMES = (
    "repair",
    "tetris",
    "psca",
    "mta1",
    "guarded_drain",
    "masked_qrm",
    "awg_compile",
    "lossy_replay",
    "fpga_cycle_model",
    "batched_qrm",
    "service_latency",
)

DEFAULT_SIZES = (32, 64, 128)
DEFAULT_FILLS = (0.3, 0.5, 0.7)

#: Batch sizes the ``batched_qrm`` block sweeps.  1 exposes the pure
#: batching overhead, 8/32 the amortisation sweet spot, 128 the
#: cache-footprint decay on large stacks.
DEFAULT_BATCH_SIZES = (1, 8, 32, 128)

#: Client counts the ``service_latency`` block sweeps.  1 exposes the
#: pure batch-window latency cost, 4 the break-even region, 16 the
#: amortisation the service exists for.
DEFAULT_SERVICE_CONCURRENCIES = (1, 4, 16)

#: Largest array each slow scheduler is benchmarked at by default.
#: Cases beyond a cap are recorded in the report's ``skipped`` list —
#: never silently dropped.  Empty since the mta1 vectorisation: every
#: default algorithm now covers the full default grid (the per-command
#: mta1 needed ~1 minute per 128x128 schedule; the vectorised one runs
#: it in seconds).
SIZE_CAPS: dict[str, int] = {}


@dataclass(frozen=True)
class BenchCase:
    """One (algorithm, size, fill) timing scenario."""

    algorithm: str
    size: int
    fill: float

    def label(self) -> str:
        return f"{self.algorithm} {self.size}x{self.size} fill={self.fill:g}"


def summary_dict(summary: Summary) -> dict:
    """JSON shape of a :class:`Summary` used throughout ``BENCH_*.json``."""
    return {
        "mean": summary.mean,
        "std": summary.std,
        "min": summary.minimum,
        "max": summary.maximum,
    }


@dataclass(frozen=True)
class BenchRecord:
    """Timing summary of one case over its seeded trials."""

    case: BenchCase
    wall_ms: Summary
    moves: Summary

    def to_dict(self) -> dict:
        return {
            "algorithm": self.case.algorithm,
            "size": self.case.size,
            "fill": self.case.fill,
            "trials": self.wall_ms.n,
            "wall_ms": summary_dict(self.wall_ms),
            "moves": summary_dict(self.moves),
        }


@dataclass
class PerfReport:
    """Everything one ``repro bench`` invocation measured."""

    master_seed: int
    trials: int
    records: list[BenchRecord] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    speedup: dict | None = None
    component_speedups: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "master_seed": self.master_seed,
            "trials": self.trials,
            "environment": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "platform": platform.platform(),
            },
            "entries": [record.to_dict() for record in self.records],
            "skipped": self.skipped,
            "speedup": self.speedup,
            "component_speedups": self.component_speedups,
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def format_table(self) -> str:
        headers = [
            "algorithm",
            "size",
            "fill",
            "trials",
            "wall_ms",
            "std",
            "min",
            "max",
            "moves",
        ]
        body = [
            [
                r.case.algorithm,
                r.case.size,
                r.case.fill,
                r.wall_ms.n,
                r.wall_ms.mean,
                r.wall_ms.std,
                r.wall_ms.minimum,
                r.wall_ms.maximum,
                r.moves.mean,
            ]
            for r in self.records
        ]
        parts = [
            format_table(
                headers,
                body,
                title="Schedule-construction wall time (per schedule)",
            )
        ]
        for skip in self.skipped:
            parts.append(
                f"[skipped {skip['algorithm']} at {skip['size']}: "
                f"{skip['reason']}]"
            )
        if self.speedup is not None:
            s = self.speedup
            parts.append(
                f"QRM {s['size']}x{s['size']} hot path: "
                f"vectorized {s['vectorized_ms']['mean']:.2f} ms, "
                f"reference {s['reference_ms']['mean']:.2f} ms -> "
                f"{s['speedup_vs_reference']:.1f}x vs reference"
            )
        for name, s in self.component_speedups.items():
            if name == "batched_qrm":
                per_batch = ", ".join(
                    f"B={b['batch_size']}: {b['amortized_ms']['mean']:.2f} ms "
                    f"({b['speedup_vs_single']:.1f}x)"
                    for b in s["batches"]
                )
                parts.append(
                    f"batched_qrm {s['size']}x{s['size']}: "
                    f"single {s['single_ms']['mean']:.2f} ms/trial; "
                    f"amortised {per_batch}"
                )
                continue
            if name == "service_latency":
                per_level = "; ".join(
                    f"c={e['clients']}: p50 "
                    f"{e['unbatched']['p50_ms']:.2f}->"
                    f"{e['batched']['p50_ms']:.2f} ms, p99 "
                    f"{e['unbatched']['p99_ms']:.2f}->"
                    f"{e['batched']['p99_ms']:.2f} ms, "
                    f"{e['speedup_batched']:.2f}x amortised"
                    for e in s["concurrency"]
                )
                parts.append(
                    f"service_latency {s['size']}x{s['size']} "
                    f"(unbatched->batched, window "
                    f"{s['batch_window_ms']:g} ms): {per_level}"
                )
                continue
            scenario = f" {s['mask']}" if name == "masked_qrm" else ""
            parts.append(
                f"{name} {s['size']}x{s['size']}{scenario}: "
                f"vectorized {s['vectorized_ms']['mean']:.2f} ms, "
                f"reference {s['reference_ms']['mean']:.2f} ms -> "
                f"{s['speedup_vs_reference']:.1f}x vs reference"
            )
        return "\n".join(parts)


def _time_schedules(
    make_scheduler: Callable[[ArrayGeometry], object],
    size: int,
    fill: float,
    trials: int,
    master_seed: int,
) -> tuple[Summary, Summary]:
    """Time ``trials`` seeded schedule constructions; returns (ms, moves)."""
    geometry = ArrayGeometry.square(size)
    scheduler = make_scheduler(geometry)
    wall_ms: list[float] = []
    moves: list[float] = []
    for index in range(trials):
        array = load_uniform(geometry, fill, rng=master_seed + index)
        start = time.perf_counter()
        result = scheduler.schedule(array)
        wall_ms.append((time.perf_counter() - start) * 1e3)
        moves.append(float(result.n_moves))
    return Summary.of(wall_ms), Summary.of(moves)


def measure_qrm_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time the QRM hot path under both pass implementations.

    Returns a JSON-ready mapping with the vectorised and live-reference
    timings plus their ratio — the before/after record the
    vectorisation is judged by.
    """
    geometry = ArrayGeometry.square(size)
    schedulers = {
        "vectorized": get_algorithm("qrm", geometry),
        "reference": get_algorithm("qrm-reference", geometry),
    }
    # Both implementations are timed inside each trial (drift never
    # lands on one side only), GC-swept before every timed region, and
    # swept twice so each minimum pools two well-separated moments —
    # the ratios below feed the CI regression gate.
    wall_ms: dict[str, list[float]] = {name: [] for name in schedulers}
    for _ in range(2):
        for index in range(trials):
            array = load_uniform(geometry, fill, rng=master_seed + index)
            for name, scheduler in schedulers.items():
                gc.collect()
                start = time.perf_counter()
                scheduler.schedule(array)
                wall_ms[name].append((time.perf_counter() - start) * 1e3)
    timings = {name: Summary.of(samples) for name, samples in wall_ms.items()}

    return {
        "size": size,
        "fill": fill,
        "trials": trials,
        "vectorized_ms": summary_dict(timings["vectorized"]),
        "reference_ms": summary_dict(timings["reference"]),
        # A ratio of minima, not means: a single disturbed repeat can
        # double a mean on a shared box, while best-of minima are
        # reproducible — and this ratio feeds the CI regression gate.
        "speedup_vs_reference": (
            timings["reference"].minimum / timings["vectorized"].minimum
        ),
    }


def _speedup_block(size: int, fill: float, timings: dict[str, Summary]) -> dict:
    """JSON shape shared by every vectorised-vs-reference measurement.

    The speedup is a ratio of best-of minima (see
    :func:`measure_qrm_speedup`) so the recorded value is reproducible
    enough to gate on.
    """
    return {
        "size": size,
        "fill": fill,
        "trials": timings["vectorized"].n,
        "vectorized_ms": summary_dict(timings["vectorized"]),
        "reference_ms": summary_dict(timings["reference"]),
        "speedup_vs_reference": (
            timings["reference"].minimum / timings["vectorized"].minimum
        ),
    }


def _interleaved_timings(
    trials: int,
    make_input: Callable[[int], object],
    vectorized: Callable[[object], object],
    reference: Callable[[object], object],
) -> dict[str, Summary]:
    """Time both implementations per trial, vectorised first.

    Interleaving the pair inside each trial makes the speedup ratio
    robust to slow machine-load drift across the measurement window —
    back-to-back blocks would charge the drift to whichever side ran
    second.
    """
    vec_ms: list[float] = []
    ref_ms: list[float] = []
    for index in range(trials):
        trial_input = make_input(index)
        for stage, wall_ms in ((vectorized, vec_ms), (reference, ref_ms)):
            gc.collect()
            start = time.perf_counter()
            stage(trial_input)
            wall_ms.append((time.perf_counter() - start) * 1e3)
    return {"vectorized": Summary.of(vec_ms), "reference": Summary.of(ref_ms)}


def measure_repair_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time the repair stage under both implementations.

    Repair runs on realistic inputs: each trial's array is first
    compacted by QRM, so the timed defect pattern is the post-compaction
    residue the stage exists for.  Both implementations repair copies of
    the same arrays (repair mutates in place).
    """
    from repro.core.qrm import QrmScheduler
    from repro.core.repair import repair_defects, repair_defects_reference

    geometry = ArrayGeometry.square(size)
    scheduler = QrmScheduler(geometry)
    timings = _interleaved_timings(
        trials,
        lambda index: scheduler.schedule(
            load_uniform(geometry, fill, rng=master_seed + index)
        ).final,
        # Repair mutates in place, so each implementation gets a copy.
        lambda array: repair_defects(array.copy()),
        lambda array: repair_defects_reference(array.copy()),
    )
    return _speedup_block(size, fill, timings)


def measure_baseline_speedup(
    component: str,
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time a scheduler against its registered ``-reference`` oracle.

    Both sides resolve through the algorithm registry — the fast path
    under ``component`` and the per-command oracle under
    ``"<component>-reference"`` — so the perf suite measures exactly the
    pair every other consumer of the registry gets.
    """
    geometry = ArrayGeometry.square(size)
    fast_scheduler = get_algorithm(component, geometry)
    slow_scheduler = get_algorithm(f"{component}-reference", geometry)
    timings = _interleaved_timings(
        trials,
        lambda index: load_uniform(geometry, fill, rng=master_seed + index),
        lambda array: fast_scheduler.schedule(array),
        lambda array: slow_scheduler.schedule(array),
    )
    return _speedup_block(size, fill, timings)


def measure_guarded_drain_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time the guarded (pipelined-mode) column pass under both drains.

    The guarded drain is the paper's pipelined scan mode: the column
    pass analyses the iteration-start snapshot while executing against
    the live grid the row pass already changed.  Each trial reproduces
    exactly that state — a fresh load, one row pass — and then times the
    guarded column pass of the vectorised closed-form drain against the
    per-round reference, both draining copies of the same live grid.
    """
    from repro.core.passes import Phase, run_pass, run_pass_reference
    from repro.lattice.geometry import Quadrant

    geometry = ArrayGeometry.square(size)
    frames = {q: geometry.quadrant_frame(q) for q in Quadrant}

    def make_input(index: int) -> tuple:
        live = load_uniform(geometry, fill, rng=master_seed + index).grid[None]
        snapshot = live.copy()
        run_pass(live, frames, Phase.ROW, scan_source=live)
        return live, snapshot

    def run(pass_runner, trial_input) -> None:
        live, snapshot = trial_input
        pass_runner(
            live.copy(),  # both drains start from the same live grid
            frames,
            Phase.COLUMN,
            scan_source=snapshot,
            guard=True,
        )

    timings = _interleaved_timings(
        trials,
        make_input,
        lambda trial_input: run(run_pass, trial_input),
        lambda trial_input: run(run_pass_reference, trial_input),
    )
    return _speedup_block(size, fill, timings)


def measure_masked_qrm_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time the masked QRM+repair path under both implementations.

    The scenario is a ring target (outer radius ``0.35 * size``, inner
    ``0.15 * size``) with mask-derived per-line scan limits
    (``scan_limit="mask"``) and repair enabled — the configuration that
    exercises every mask-aware code path at once.  The vectorised side
    is the production scheduler; the reference side composes the
    per-command pass runner with :func:`~repro.core.repair.
    repair_defects_reference` on the pre-repair final array, so both
    sides schedule and repair identical masked states.
    """
    from repro.config import MASK_SCAN_LIMIT, QrmParameters
    from repro.core.passes import run_pass_reference
    from repro.core.qrm import QrmScheduler
    from repro.core.repair import repair_defects_reference
    from repro.lattice.mask import TargetMask

    outer = size * 0.35
    inner = size * 0.15
    mask = TargetMask.ring(size, size, outer_radius=outer, inner_radius=inner)
    geometry = ArrayGeometry.with_mask(size, size, mask)
    fast = QrmScheduler(
        geometry,
        QrmParameters(enable_repair=True, scan_limit=MASK_SCAN_LIMIT),
    )
    slow = QrmScheduler(
        geometry,
        QrmParameters(scan_limit=MASK_SCAN_LIMIT),
        pass_runner=run_pass_reference,
    )
    timings = _interleaved_timings(
        trials,
        lambda index: load_uniform(geometry, fill, rng=master_seed + index),
        lambda array: fast.schedule(array),
        lambda array: repair_defects_reference(slow.schedule(array).final.copy()),
    )
    block = _speedup_block(size, fill, timings)
    block["mask"] = f"ring(outer={outer:g},inner={inner:g})"
    block["mask_sites"] = int(mask.n_sites)
    return block


def _first_frame_schedules(size: int, fill: float, master_seed: int):
    """Input maker: trial ``index``'s load and its QRM first-frame schedule."""
    from repro.core.qrm import QrmScheduler

    geometry = ArrayGeometry.square(size)
    scheduler = QrmScheduler(geometry)

    def make_input(index: int) -> tuple:
        array = load_uniform(geometry, fill, rng=master_seed + index)
        return array, scheduler.schedule(array).schedule, master_seed + index

    return make_input


def measure_awg_compile_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time AWG compilation of QRM first-frame schedules, both ways.

    The vectorised side is :func:`~repro.awg.compiler.compile_schedule`
    (one NumPy pass over the schedule's stored table); the reference is
    the move-by-move object walker
    :func:`~repro.awg.compiler.compile_schedule_reference`, which pays
    for building the move objects it walks.
    """
    from repro.awg.compiler import compile_schedule, compile_schedule_reference

    timings = _interleaved_timings(
        trials,
        _first_frame_schedules(size, fill, master_seed),
        lambda trial_input: compile_schedule(trial_input[1]),
        lambda trial_input: compile_schedule_reference(trial_input[1]),
    )
    return _speedup_block(size, fill, timings)


def measure_lossy_replay_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time stochastic-loss replay of QRM first-frame schedules, both ways.

    Both sides replay the trial's schedule on its loaded array under
    the default :class:`~repro.physics.loss.LossModel`, from generators
    seeded alike: :func:`~repro.physics.loss.simulate_losses` (the
    table-driven move applier, one draw call per move) against the
    site-by-site :func:`~repro.physics.loss.simulate_losses_reference`
    (move objects built included).
    """
    from repro.physics.loss import simulate_losses, simulate_losses_reference

    def replay(simulate, trial_input) -> None:
        array, schedule, seed = trial_input
        simulate(array, schedule, rng=seed)

    timings = _interleaved_timings(
        trials,
        _first_frame_schedules(size, fill, master_seed),
        lambda trial_input: replay(simulate_losses, trial_input),
        lambda trial_input: replay(simulate_losses_reference, trial_input),
    )
    return _speedup_block(size, fill, timings)


def measure_fpga_cycle_model_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time the accelerator's per-iteration cycle model, both ways.

    Each trial schedules eight fresh QRM loads (untimed) and costs every
    iteration pair of their pass outcomes: the closed form
    (:meth:`~repro.fpga.accelerator.QrmAccelerator._closed_form_iteration`)
    against the tick-by-tick dataflow simulation
    (:meth:`~repro.fpga.accelerator.QrmAccelerator._simulate_iteration_reference`).
    One frame's four pairs take the closed form about a tenth of a
    millisecond, short enough for the cold start after each trial's
    ``gc.collect`` to dominate; eight frames keep its side near the
    cost it has inside ``QrmAccelerator.run``.
    """
    from repro.fpga.accelerator import QrmAccelerator

    frames = 8
    geometry = ArrayGeometry.square(size)
    accelerator = QrmAccelerator(geometry)

    def make_input(index: int) -> list:
        pairs = []
        for frame in range(frames):
            seed = master_seed + index * frames + frame
            array = load_uniform(geometry, fill, rng=seed)
            passes = accelerator.scheduler.schedule(array).pass_outcomes
            pairs.extend(zip(passes[::2], passes[1::2]))
        return pairs

    def cost(model, pairs) -> None:
        for row_pass, col_pass in pairs:
            model(row_pass, col_pass)

    timings = _interleaved_timings(
        trials,
        make_input,
        lambda pairs: cost(accelerator._closed_form_iteration, pairs),
        lambda pairs: cost(accelerator._simulate_iteration_reference, pairs),
    )
    return _speedup_block(size, fill, timings)


def measure_batched_qrm_speedup(
    size: int = 64,
    fill: float = 0.5,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time QRM stacks of several trials against a batch of one.

    Measures the *steady state*: one :class:`~repro.core.qrm.
    QrmScheduler` is reused across all repeats (matching how the
    campaign engine drives it), its ``schedule`` (a batch of one) on
    the single side and its ``schedule_batch`` on the batched side,
    with an unmeasured warm-up pass so the allocator is hot before the
    clock starts.  Batch sizes are timed smallest-first in isolated
    blocks — a 128-trial stack's result churn evicts enough cache to
    poison an adjacent small-batch repeat — with a single-trial repeat
    interleaved into every block and an explicit GC sweep before each
    timed region.
    The whole sweep runs twice and ratios come from the pooled minima
    on both sides (2 x ``trials`` samples per batch size, spread over
    two well-separated moments) — the same best-of noise-suppression
    convention as the campaign's timing cells: the analysis is
    deterministic, so repeats discard nothing but jitter.

    Returns ``{"size", "fill", "trials", "single_ms": summary,
    "batches": [{"batch_size", "amortized_ms": summary,
    "speedup_vs_single"}, ...]}`` — amortised ms is whole-batch wall
    time divided by the batch size.
    """
    from repro.core.qrm import QrmScheduler

    geometry = ArrayGeometry.square(size)
    scheduler = QrmScheduler(geometry)
    n_max = max(batch_sizes)
    arrays = [
        load_uniform(geometry, fill, rng=master_seed + index)
        for index in range(n_max)
    ]

    # Warm-up: touch both entry points before timing anything.
    scheduler.schedule_batch(arrays[:1])
    scheduler.schedule(arrays[0])

    single_ms: list[float] = []
    amortized_ms: dict[int, list[float]] = {n: [] for n in batch_sizes}
    # Two full sweeps: each batch size's minimum pools samples from two
    # well-separated moments, so one transient disturbance (a daemon
    # waking mid-block) cannot inflate every repeat of a batch size.
    for _ in range(2):
        for n in sorted(batch_sizes):
            # Re-establish this batch size's steady-state footprint
            # before its timed repeats (the previous block's differs).
            scheduler.schedule_batch(arrays[:n])
            for index in range(trials):
                gc.collect()
                start = time.perf_counter()
                scheduler.schedule(arrays[index % n_max])
                single_ms.append((time.perf_counter() - start) * 1e3)
                gc.collect()
                start = time.perf_counter()
                scheduler.schedule_batch(arrays[:n])
                amortized_ms[n].append((time.perf_counter() - start) * 1e3 / n)

    single = Summary.of(single_ms)
    batches = []
    for n in batch_sizes:
        amortized = Summary.of(amortized_ms[n])
        batches.append(
            {
                "batch_size": n,
                "amortized_ms": summary_dict(amortized),
                "speedup_vs_single": single.minimum / amortized.minimum,
            }
        )
    return {
        "size": size,
        "fill": fill,
        "trials": trials,
        "single_ms": summary_dict(single),
        "batches": batches,
    }


def measure_service_latency(
    size: int = 64,
    fill: float = 0.5,
    concurrencies: Sequence[int] = DEFAULT_SERVICE_CONCURRENCIES,
    requests_per_client: int = 8,
    master_seed: int = 0,
    batch_window: float = 0.002,
    max_batch_size: int = 32,
) -> dict:
    """Time closed-loop scheduling requests through the service.

    For each concurrency level two servers run side by side — one with
    micro-batching off (``max_batch_size=1``), one with the production
    window — and that many closed-loop client threads each fire
    ``requests_per_client`` sequential QRM requests per round, recording
    per-request latency.  Rounds alternate unbatched/batched inside each
    of two sweeps (drift never lands on one side only, per the
    interleaving convention above), with an unmeasured warm-up request
    per client so scheduler caches and connections are hot, and a GC
    sweep before every timed round.

    Percentiles pool both sweeps' latencies; the amortised per-request
    cost is the *minimum* round wall over the sweeps divided by the
    round's request count — the same best-of minima convention every
    other gated ratio uses.  ``speedup_batched`` is the ratio of those
    amortised minima (unbatched / batched): above 1, concurrent clients
    pay less per schedule with batching on.  At concurrency 1 the ratio
    is *expected* to sit below 1 — a lone closed-loop client pays the
    full batch window on every request, the classic latency-for-
    throughput trade — which is why the regression gate only pins the
    highest measured concurrency.
    """
    import threading

    from repro.service import SchedulerKey, ServiceClient, serve_in_thread

    geometry = ArrayGeometry.square(size)
    key = SchedulerKey(
        geometry=(
            geometry.width,
            geometry.height,
            geometry.target_width,
            geometry.target_height,
        )
    )
    entries = []
    for clients_n in sorted(concurrencies):
        arrays = [
            [
                load_uniform(geometry, fill, rng=master_seed + 1000 * w + index)
                for index in range(requests_per_client)
            ]
            for w in range(clients_n)
        ]

        def run_round(client_pool: list) -> tuple[list[float], float]:
            latencies: list[list[float]] = [[] for _ in client_pool]
            barrier = threading.Barrier(len(client_pool) + 1)

            def worker(w: int, client) -> None:
                barrier.wait()
                for array in arrays[w]:
                    start = time.perf_counter()
                    client.schedule(key, array)
                    latencies[w].append((time.perf_counter() - start) * 1e3)

            threads = [
                threading.Thread(target=worker, args=(w, client), daemon=True)
                for w, client in enumerate(client_pool)
            ]
            for thread in threads:
                thread.start()
            gc.collect()
            barrier.wait()
            start = time.perf_counter()
            for thread in threads:
                thread.join()
            wall_ms = (time.perf_counter() - start) * 1e3
            return [sample for per in latencies for sample in per], wall_ms

        with serve_in_thread(max_batch_size=1) as off_server, serve_in_thread(
            batch_window=batch_window, max_batch_size=max_batch_size
        ) as on_server:
            pool = {
                name: [
                    ServiceClient(server.address) for _ in range(clients_n)
                ]
                for name, server in (
                    ("unbatched", off_server),
                    ("batched", on_server),
                )
            }
            try:
                for clients in pool.values():
                    for w, client in enumerate(clients):
                        client.schedule(key, arrays[w][0])  # warm-up
                pooled: dict[str, list[float]] = {name: [] for name in pool}
                walls: dict[str, list[float]] = {name: [] for name in pool}
                for _ in range(2):
                    for name in ("unbatched", "batched"):
                        samples, wall_ms = run_round(pool[name])
                        pooled[name].extend(samples)
                        walls[name].append(wall_ms)
            finally:
                for clients in pool.values():
                    for client in clients:
                        client.close()

        modes = {}
        for name in pool:
            samples = np.asarray(pooled[name])
            amortized = min(walls[name]) / (clients_n * requests_per_client)
            modes[name] = {
                "requests": int(samples.size),
                "p50_ms": float(np.percentile(samples, 50)),
                "p95_ms": float(np.percentile(samples, 95)),
                "p99_ms": float(np.percentile(samples, 99)),
                "amortized_ms": amortized,
                "throughput_rps": 1e3 / amortized,
            }
        entries.append(
            {
                "clients": clients_n,
                "unbatched": modes["unbatched"],
                "batched": modes["batched"],
                "speedup_batched": (
                    modes["unbatched"]["amortized_ms"]
                    / modes["batched"]["amortized_ms"]
                ),
            }
        )
    return {
        "size": size,
        "fill": fill,
        "trials": requests_per_client,
        "batch_window_ms": batch_window * 1e3,
        "max_batch_size": max_batch_size,
        "concurrency": entries,
    }


def measure_component_speedups(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict[str, dict]:
    """All per-component before/after blocks (:data:`COMPONENT_NAMES`)."""
    # The batched and service blocks are timed first: the reference
    # oracles timed below (mta1's in particular) churn through enough
    # allocation to fragment the heap and depress batched throughput
    # measured after them, and their ratios feed CI regression gates.
    batched = measure_batched_qrm_speedup(
        size=size, fill=fill, trials=trials, master_seed=master_seed
    )
    service = measure_service_latency(
        size=size,
        fill=fill,
        requests_per_client=max(trials, 3),
        master_seed=master_seed,
    )
    blocks = {
        "repair": measure_repair_speedup(size, fill, trials, master_seed),
        "guarded_drain": measure_guarded_drain_speedup(size, fill, trials, master_seed),
        "masked_qrm": measure_masked_qrm_speedup(size, fill, trials, master_seed),
        "awg_compile": measure_awg_compile_speedup(size, fill, trials, master_seed),
        "lossy_replay": measure_lossy_replay_speedup(size, fill, trials, master_seed),
        "fpga_cycle_model": measure_fpga_cycle_model_speedup(
            size, fill, trials, master_seed
        ),
    }
    for component in ("tetris", "psca", "mta1"):
        blocks[component] = measure_baseline_speedup(
            component, size, fill, trials, master_seed
        )
    blocks["batched_qrm"] = batched
    blocks["service_latency"] = service
    return blocks


def run_perf_suite(
    sizes: Sequence[int] = DEFAULT_SIZES,
    fills: Sequence[float] = DEFAULT_FILLS,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    trials: int = 3,
    master_seed: int = 0,
    size_caps: dict[str, int] | None = None,
    speedup_size: int | None = 64,
    observer: Callable[[str], None] | None = None,
) -> PerfReport:
    """Time schedule construction over the benchmark grid.

    ``size_caps`` bounds slow schedulers (default :data:`SIZE_CAPS`,
    now empty); capped cases land in the report's ``skipped`` list.
    With ``speedup_size`` set, the QRM before/after speedup block *and*
    the per-component blocks (:data:`COMPONENT_NAMES`) are measured at
    that size (``None`` skips them, e.g. in CI smoke mode).
    """
    caps = SIZE_CAPS if size_caps is None else size_caps
    report = PerfReport(master_seed=master_seed, trials=trials)
    for algorithm in algorithms:
        for size in sizes:
            cap = caps.get(algorithm)
            if cap is not None and size > cap:
                report.skipped.append(
                    {
                        "algorithm": algorithm,
                        "size": size,
                        "reason": f"size above cap {cap} "
                        f"(pass size_caps={{}} to include)",
                    }
                )
                continue
            for fill in fills:
                case = BenchCase(algorithm=algorithm, size=size, fill=fill)
                if observer is not None:
                    observer(case.label())
                wall_ms, moves = _time_schedules(
                    lambda geo, name=algorithm: get_algorithm(name, geo),
                    size,
                    fill,
                    trials,
                    master_seed,
                )
                report.records.append(
                    BenchRecord(case=case, wall_ms=wall_ms, moves=moves)
                )
    if speedup_size is not None:
        if observer is not None:
            observer(f"qrm speedup block at {speedup_size}x{speedup_size}")
        report.speedup = measure_qrm_speedup(
            size=speedup_size, trials=trials, master_seed=master_seed
        )
        if observer is not None:
            observer(
                f"component speedups at {speedup_size}x{speedup_size} "
                f"({', '.join(COMPONENT_NAMES)})"
            )
        report.component_speedups = measure_component_speedups(
            size=speedup_size, trials=trials, master_seed=master_seed
        )
    return report


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

_SUMMARY_KEYS = ("mean", "std", "min", "max")
_ENTRY_KEYS = ("algorithm", "size", "fill", "trials", "wall_ms", "moves")
_SPEEDUP_KEYS = (
    "size",
    "fill",
    "trials",
    "vectorized_ms",
    "reference_ms",
    "speedup_vs_reference",
)
_COMPONENT_KEYS = (
    "size",
    "fill",
    "trials",
    "vectorized_ms",
    "reference_ms",
    "speedup_vs_reference",
)
_BATCHED_KEYS = ("size", "fill", "trials", "single_ms", "batches")
_SERVICE_KEYS = (
    "size",
    "fill",
    "trials",
    "batch_window_ms",
    "max_batch_size",
    "concurrency",
)
_SERVICE_MODE_KEYS = (
    "requests",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "amortized_ms",
    "throughput_rps",
)


def _check_service_block(block: dict) -> None:
    """Validate the ``service_latency`` component's concurrency sweep."""
    context = "component_speedups['service_latency']"
    for key in _SERVICE_KEYS:
        if key not in block:
            raise ValueError(f"{context} missing {key!r}")
    levels = block["concurrency"]
    if not isinstance(levels, list) or not levels:
        raise ValueError(f"{context}.concurrency must be a non-empty list")
    for index, entry in enumerate(levels):
        entry_context = f"{context}.concurrency[{index}]"
        for key in ("clients", "unbatched", "batched", "speedup_batched"):
            if key not in entry:
                raise ValueError(f"{entry_context} missing {key!r}")
        if not isinstance(entry["clients"], int) or entry["clients"] < 1:
            raise ValueError(f"{entry_context}.clients must be a positive int")
        for mode in ("unbatched", "batched"):
            mode_block = entry[mode]
            mode_context = f"{entry_context}.{mode}"
            for key in _SERVICE_MODE_KEYS:
                if not isinstance(mode_block.get(key), (int, float)):
                    raise ValueError(
                        f"{mode_context}.{key} missing or non-numeric"
                    )
            if not (
                mode_block["p50_ms"]
                <= mode_block["p95_ms"]
                <= mode_block["p99_ms"]
            ):
                raise ValueError(
                    f"{mode_context}: p50 <= p95 <= p99 violated"
                )
            if mode_block["amortized_ms"] <= 0:
                raise ValueError(
                    f"{mode_context}.amortized_ms must be positive"
                )
        if entry["speedup_batched"] <= 0:
            raise ValueError(f"{entry_context}.speedup_batched must be positive")


def _check_batched_block(block: dict) -> None:
    """Validate the ``batched_qrm`` component's batch-sweep shape."""
    context = "component_speedups['batched_qrm']"
    for key in _BATCHED_KEYS:
        if key not in block:
            raise ValueError(f"{context} missing {key!r}")
    _check_summary(block["single_ms"], f"{context}.single_ms")
    batches = block["batches"]
    if not isinstance(batches, list) or not batches:
        raise ValueError(f"{context}.batches must be a non-empty list")
    for index, entry in enumerate(batches):
        entry_context = f"{context}.batches[{index}]"
        for key in ("batch_size", "amortized_ms", "speedup_vs_single"):
            if key not in entry:
                raise ValueError(f"{entry_context} missing {key!r}")
        if not isinstance(entry["batch_size"], int) or entry["batch_size"] < 1:
            raise ValueError(f"{entry_context}.batch_size must be a positive int")
        _check_summary(entry["amortized_ms"], f"{entry_context}.amortized_ms")
        if entry["speedup_vs_single"] <= 0:
            raise ValueError(f"{entry_context}.speedup_vs_single must be positive")


def _check_summary(block: dict, context: str) -> None:
    for key in _SUMMARY_KEYS:
        if not isinstance(block.get(key), (int, float)):
            raise ValueError(f"{context}.{key} missing or non-numeric")
    if not block["min"] <= block["mean"] <= block["max"]:
        raise ValueError(f"{context}: min <= mean <= max violated")


def validate_bench_report(payload: dict) -> None:
    """Raise :class:`ValueError` unless ``payload`` is a valid report.

    This is the machine-checked contract behind ``BENCH_*.json``: the
    schema version is pinned, every entry carries the summary keys with
    coherent min/mean/max, trial counts are positive and uniform across
    entries, and the speedup blocks (QRM and per-component) expose their
    ratio keys.  ``tests/test_bench_schema.py`` holds both the committed
    artefact and freshly generated reports to it.
    """
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {payload.get('schema_version')!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    for key in ("master_seed", "trials", "environment", "entries", "skipped"):
        if key not in payload:
            raise ValueError(f"missing top-level key {key!r}")
    if not isinstance(payload["trials"], int) or payload["trials"] < 1:
        raise ValueError(f"trials must be a positive int, got {payload['trials']!r}")

    entries = payload["entries"]
    for index, entry in enumerate(entries):
        context = f"entries[{index}]"
        for key in _ENTRY_KEYS:
            if key not in entry:
                raise ValueError(f"{context} missing key {key!r}")
        if not isinstance(entry["trials"], int) or entry["trials"] < 1:
            raise ValueError(f"{context}.trials must be a positive int")
        if entry["trials"] != payload["trials"]:
            raise ValueError(
                f"{context}.trials {entry['trials']} drifted from the "
                f"report-level {payload['trials']}"
            )
        _check_summary(entry["wall_ms"], f"{context}.wall_ms")
        _check_summary(entry["moves"], f"{context}.moves")

    for skip in payload["skipped"]:
        for key in ("algorithm", "size", "reason"):
            if key not in skip:
                raise ValueError(f"skipped entry missing key {key!r}")

    speedup = payload.get("speedup")
    if speedup is not None:
        for key in _SPEEDUP_KEYS:
            if key not in speedup:
                raise ValueError(f"speedup missing key {key!r}")
        for key in ("vectorized_ms", "reference_ms"):
            _check_summary(speedup[key], f"speedup.{key}")
        if speedup["speedup_vs_reference"] <= 0:
            raise ValueError("speedup.speedup_vs_reference must be positive")

    components = payload.get("component_speedups") or {}
    for name, block in components.items():
        if name not in COMPONENT_NAMES:
            raise ValueError(f"unknown component speedup {name!r}")
        if name == "batched_qrm":
            _check_batched_block(block)
            continue
        if name == "service_latency":
            _check_service_block(block)
            continue
        keys = _COMPONENT_KEYS
        if name == "masked_qrm":
            keys = keys + ("mask", "mask_sites")
        for key in keys:
            if key not in block:
                raise ValueError(f"component_speedups[{name!r}] missing {key!r}")
        for key in ("vectorized_ms", "reference_ms"):
            _check_summary(block[key], f"component_speedups[{name!r}].{key}")
        if block["speedup_vs_reference"] <= 0:
            raise ValueError(
                f"component_speedups[{name!r}].speedup_vs_reference "
                f"must be positive"
            )
        if name == "masked_qrm":
            if not isinstance(block["mask"], str) or not block["mask"]:
                raise ValueError(
                    "component_speedups['masked_qrm'].mask must be a "
                    "non-empty string"
                )
            sites = block["mask_sites"]
            if not isinstance(sites, int) or sites < 1:
                raise ValueError(
                    "component_speedups['masked_qrm'].mask_sites must be "
                    "a positive int"
                )
    if speedup is not None and set(components) != set(COMPONENT_NAMES):
        raise ValueError(
            f"component_speedups {sorted(components)} incomplete; "
            f"expected {sorted(COMPONENT_NAMES)}"
        )
