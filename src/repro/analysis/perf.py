"""Speedup-ratio benchmark harness (``repro bench``).

The paper's headline is that rearrangement analysis must be orders of
magnitude faster than a CPU reference, so this repository records its
own per-layer speedups as a first-class artefact: ``repro bench``
measures every gated ratio and writes them to a machine-readable
``BENCH_qrm.json``.

Each ratio is one record of one shape — ``{"name", "size", "fill",
"trials", "fast_ms", "slow_ms", "ratio"}`` with ``ratio = slow_ms /
fast_ms`` — whose two sides are best-of minima over interleaved,
GC-swept repeats:

* ``qrm`` and the per-stage components time a vectorised path (fast)
  against its live ``*_reference`` oracle (slow): repair, the guarded
  pipelined-mode drain, masked QRM+repair on a ring target, AWG
  compilation, lossy replay, the camera's expected image, the FPGA
  cycle model's closed form, and the Tetris, PSCA and MTA1 baselines;
* ``batched_qrm B=n`` times a stack of ``n`` trials, amortised per
  trial (fast), against ``schedule`` on one (slow);
* ``service_latency c=16`` times the scheduling service with
  micro-batching on (fast) against the same service with batching off
  (slow).

The service's closed-loop p50/p95/p99 request latencies ride along as
an ungated table.  :func:`validate_bench_report` pins the JSON layout,
and :mod:`repro.analysis.perf_gate` gates CI on the ratios (``repro
bench --gate``): raw milliseconds are machine-dependent, dimensionless
ratios of interleaved minima transfer.  Per-case scheduler wall time is
``repro campaign --timing --stats``.  Trial seeds and schedules are
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

from repro.analysis.tables import format_table
from repro.baselines.base import get_algorithm
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform

#: Bump when the JSON layout changes (v12: one record per gated ratio
#: plus the service latency table; the per-case grid is gone).
BENCH_SCHEMA_VERSION = 12

#: Batch sizes the ``batched_qrm`` ratios sweep: 8/32 the amortisation
#: sweet spot, 128 the cache-footprint decay on large stacks.  A batch
#: of one is the single side itself (``schedule`` is ``schedule_batch``
#: of one array), so its ratio would only measure noise.
DEFAULT_BATCH_SIZES = (8, 32, 128)

#: Client counts the service latency table sweeps.  1 exposes the pure
#: batch-window latency cost, 4 the break-even region, 16 the
#: amortisation the service exists for.
DEFAULT_SERVICE_CONCURRENCIES = (1, 4, 16)

#: Every ratio a report records, in measurement order.
RATIO_NAMES = (
    "qrm",
    *(f"batched_qrm B={n}" for n in DEFAULT_BATCH_SIZES),
    f"service_latency c={max(DEFAULT_SERVICE_CONCURRENCIES)}",
    "repair",
    "guarded_drain",
    "masked_qrm",
    "awg_compile",
    "lossy_replay",
    "expected_image",
    "fpga_cycle_model",
    "tetris",
    "psca",
    "mta1",
)

_RECORD_KEYS = ("name", "size", "fill", "trials", "fast_ms", "slow_ms", "ratio")
_LATENCY_KEYS = ("clients", "mode", "requests", "p50_ms", "p95_ms", "p99_ms")


def _ratio_record(
    name: str,
    size: int,
    fill: float,
    trials: int,
    fast_ms: float,
    slow_ms: float,
) -> dict:
    """The one JSON shape of a gated ratio."""
    return {
        "name": name,
        "size": size,
        "fill": fill,
        "trials": trials,
        "fast_ms": fast_ms,
        "slow_ms": slow_ms,
        "ratio": slow_ms / fast_ms,
    }


@dataclass
class PerfReport:
    """Everything one ``repro bench`` invocation measured."""

    master_seed: int
    trials: int
    ratios: list[dict] = field(default_factory=list)
    service_latency: list[dict] = field(default_factory=list)

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
            "ratios": self.ratios,
            "service_latency": self.service_latency,
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def format_table(self) -> str:
        ratios = format_table(
            _RECORD_KEYS,
            [[record[key] for key in _RECORD_KEYS] for record in self.ratios],
            title="Gated speedup ratios (slow_ms / fast_ms, best-of minima)",
        )
        latency = format_table(
            _LATENCY_KEYS,
            [[row[key] for key in _LATENCY_KEYS] for row in self.service_latency],
            title="Service request latency, closed-loop clients (ungated)",
        )
        return f"{ratios}\n\n{latency}"


def _interleaved_timings(
    inputs: int,
    make_input: Callable[[int], object],
    fast: Callable[[object], object],
    slow: Callable[[object], object],
) -> tuple[float, float]:
    """Best-of minima (ms) of both implementations, timed per input.

    Interleaving the pair on each input, fast first, makes the ratio
    robust to slow machine-load drift across the measurement window —
    back-to-back blocks would charge the drift to whichever side ran
    second.  Minima, not means: one disturbed repeat can double a mean
    on a shared box, while best-of minima are reproducible enough to
    gate on.
    """
    fast_ms: list[float] = []
    slow_ms: list[float] = []
    for index in range(inputs):
        trial_input = make_input(index)
        for stage, wall_ms in ((fast, fast_ms), (slow, slow_ms)):
            gc.collect()
            start = time.perf_counter()
            stage(trial_input)
            wall_ms.append((time.perf_counter() - start) * 1e3)
    return min(fast_ms), min(slow_ms)


def measure_qrm_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time the QRM hot path against the live per-command reference.

    The fast side is the vectorised scheduler, the slow side its
    per-command oracle :class:`~repro.core.qrm.QrmSchedulerReference`.
    The ``trials`` seeded loads are swept twice, so each minimum pools
    two well-separated moments.
    """
    geometry = ArrayGeometry.square(size)
    fast = get_algorithm("qrm", geometry)
    slow = get_algorithm("qrm-reference", geometry)
    fast_ms, slow_ms = _interleaved_timings(
        2 * trials,
        lambda index: load_uniform(geometry, fill, rng=master_seed + index % trials),
        fast.schedule,
        slow.schedule,
    )
    return _ratio_record("qrm", size, fill, trials, fast_ms, slow_ms)


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
    fast_ms, slow_ms = _interleaved_timings(
        trials,
        lambda index: scheduler.schedule(
            load_uniform(geometry, fill, rng=master_seed + index)
        ).final,
        # Repair mutates in place, so each implementation gets a copy.
        lambda array: repair_defects(array.copy()),
        lambda array: repair_defects_reference(array.copy()),
    )
    return _ratio_record("repair", size, fill, trials, fast_ms, slow_ms)


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
    fast_ms, slow_ms = _interleaved_timings(
        trials,
        lambda index: load_uniform(geometry, fill, rng=master_seed + index),
        lambda array: fast_scheduler.schedule(array),
        lambda array: slow_scheduler.schedule(array),
    )
    return _ratio_record(component, size, fill, trials, fast_ms, slow_ms)


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
        run_pass(live, frames, Phase.ROW)
        return live, snapshot

    def run(pass_runner, trial_input) -> None:
        live, snapshot = trial_input
        pass_runner(
            live.copy(),  # both drains start from the same live grid
            frames,
            Phase.COLUMN,
            scan_source=snapshot,
        )

    fast_ms, slow_ms = _interleaved_timings(
        trials,
        make_input,
        lambda trial_input: run(run_pass, trial_input),
        lambda trial_input: run(run_pass_reference, trial_input),
    )
    return _ratio_record("guarded_drain", size, fill, trials, fast_ms, slow_ms)


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
    per-command :class:`~repro.core.qrm.QrmSchedulerReference` with
    :func:`~repro.core.repair.repair_defects_reference` on the
    pre-repair final array, so both sides schedule and repair identical
    masked states.
    """
    from repro.config import MASK_SCAN_LIMIT, QrmParameters
    from repro.core.qrm import QrmScheduler, QrmSchedulerReference
    from repro.core.repair import repair_defects_reference
    from repro.lattice.mask import TargetMask

    mask = TargetMask.ring(
        size, size, outer_radius=size * 0.35, inner_radius=size * 0.15
    )
    geometry = ArrayGeometry.with_mask(size, size, mask)
    fast = QrmScheduler(
        geometry,
        QrmParameters(enable_repair=True, scan_limit=MASK_SCAN_LIMIT),
    )
    slow = QrmSchedulerReference(geometry, QrmParameters(scan_limit=MASK_SCAN_LIMIT))
    fast_ms, slow_ms = _interleaved_timings(
        trials,
        lambda index: load_uniform(geometry, fill, rng=master_seed + index),
        lambda array: fast.schedule(array),
        lambda array: repair_defects_reference(slow.schedule(array).final.copy()),
    )
    return _ratio_record("masked_qrm", size, fill, trials, fast_ms, slow_ms)


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

    fast_ms, slow_ms = _interleaved_timings(
        trials,
        _first_frame_schedules(size, fill, master_seed),
        lambda trial_input: compile_schedule(trial_input[1]),
        lambda trial_input: compile_schedule_reference(trial_input[1]),
    )
    return _ratio_record("awg_compile", size, fill, trials, fast_ms, slow_ms)


def measure_lossy_replay_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time stochastic-loss replay of QRM first-frame schedules, both ways.

    Both sides replay the trial's schedule on its loaded array under
    the default :class:`~repro.physics.loss.LossModel`, from generators
    seeded alike: :func:`~repro.physics.loss.simulate_losses` (one label
    walk over the table-driven move plan, in runs of line-disjoint moves,
    then one lifetime draw per atom and one hand-off draw per carried
    atom, in two bulk calls) against
    its per-atom scalar twin
    :func:`~repro.physics.loss.simulate_losses_reference` (move objects
    built included).
    """
    from repro.physics.loss import simulate_losses, simulate_losses_reference

    def replay(simulate, trial_input) -> None:
        array, schedule, seed = trial_input
        simulate(array, schedule, rng=seed)

    fast_ms, slow_ms = _interleaved_timings(
        trials,
        _first_frame_schedules(size, fill, master_seed),
        lambda trial_input: replay(simulate_losses, trial_input),
        lambda trial_input: replay(simulate_losses_reference, trial_input),
    )
    return _ratio_record("lossy_replay", size, fill, trials, fast_ms, slow_ms)


def measure_expected_image_speedup(
    size: int = 64,
    fill: float = 0.5,
    trials: int = 3,
    master_seed: int = 0,
) -> dict:
    """Time the camera's noise-free image of a loaded array, both ways.

    The fast side is :func:`~repro.detection.imaging.expected_image`
    (two site-stride smears of the occupancy grid) at the default camera;
    the reference is the FFT convolution of every pixel,
    :func:`~repro.detection.imaging.expected_image_reference`.  Each
    trial images eight loads: one 64x64 image takes the fast side a few
    tenths of a millisecond, short enough for the cold start after each
    trial's ``gc.collect`` to dominate.
    """
    from repro.detection.imaging import expected_image, expected_image_reference

    frames = 8
    geometry = ArrayGeometry.square(size)

    def make_input(index: int) -> list:
        seed = master_seed + index * frames
        return [load_uniform(geometry, fill, rng=seed + f) for f in range(frames)]

    def image(model, arrays) -> None:
        for array in arrays:
            model(array)

    fast_ms, slow_ms = _interleaved_timings(
        trials,
        make_input,
        lambda arrays: image(expected_image, arrays),
        lambda arrays: image(expected_image_reference, arrays),
    )
    return _ratio_record("expected_image", size, fill, trials, fast_ms, slow_ms)


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

    fast_ms, slow_ms = _interleaved_timings(
        trials,
        make_input,
        lambda pairs: cost(accelerator._closed_form_iteration, pairs),
        lambda pairs: cost(accelerator._simulate_iteration_reference, pairs),
    )
    return _ratio_record("fpga_cycle_model", size, fill, trials, fast_ms, slow_ms)


def measure_batched_qrm_speedup(
    size: int = 64,
    fill: float = 0.5,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    trials: int = 3,
    master_seed: int = 0,
) -> list[dict]:
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

    Returns one ``batched_qrm B=n`` record per batch size: the fast
    side is the amortised batch (whole-batch wall time divided by
    ``n``), the slow side the single-trial minimum all of them share.
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

    return [
        _ratio_record(
            f"batched_qrm B={n}",
            size,
            fill,
            trials,
            min(amortized_ms[n]),
            min(single_ms),
        )
        for n in batch_sizes
    ]


def measure_service_latency(
    size: int = 64,
    fill: float = 0.5,
    concurrencies: Sequence[int] = DEFAULT_SERVICE_CONCURRENCIES,
    requests_per_client: int = 8,
    master_seed: int = 0,
    batch_window: float = 0.002,
    max_batch_size: int = 32,
) -> tuple[dict, list[dict]]:
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

    Returns the ratio record and the latency table.  The record is
    ``service_latency c=N`` at the highest concurrency N: each side is
    the *minimum* round wall over the sweeps divided by the round's
    request count — the best-of minima every other ratio uses — with
    batching on as the fast side.  Above 1, concurrent clients pay less
    per schedule with batching on.  At concurrency 1 batching is
    *expected* to lose — a lone closed-loop client pays the full batch
    window on every request, the classic latency-for-throughput trade —
    which is why only the highest concurrency is a gated ratio.  The
    table has one row per concurrency and mode with the p50/p95/p99
    latencies pooled over both sweeps.
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
    rows = []
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

        amortized = {}
        for name in pool:
            samples = np.asarray(pooled[name])
            amortized[name] = min(walls[name]) / (clients_n * requests_per_client)
            rows.append(
                {
                    "clients": clients_n,
                    "mode": name,
                    "requests": int(samples.size),
                    "p50_ms": float(np.percentile(samples, 50)),
                    "p95_ms": float(np.percentile(samples, 95)),
                    "p99_ms": float(np.percentile(samples, 99)),
                }
            )
    # ``clients_n`` and ``amortized`` are the last, highest, level's.
    record = _ratio_record(
        f"service_latency c={clients_n}",
        size,
        fill,
        requests_per_client,
        amortized["batched"],
        amortized["unbatched"],
    )
    return record, rows


def run_perf_suite(
    size: int = 64,
    trials: int = 3,
    master_seed: int = 0,
    observer: Callable[[str], None] | None = None,
) -> PerfReport:
    """Measure every ratio of :data:`RATIO_NAMES` at ``size`` x ``size``.

    Every ratio is measured at fill 0.5; ``observer`` receives a
    progress label before each measurement.
    """
    report = PerfReport(master_seed=master_seed, trials=trials)

    def note(name: str) -> None:
        if observer is not None:
            observer(f"{name} at {size}x{size}")

    note("qrm")
    report.ratios.append(
        measure_qrm_speedup(size, trials=trials, master_seed=master_seed)
    )
    # The batched and service ratios are timed next: the reference
    # oracles timed below (mta1's in particular) churn through enough
    # allocation to fragment the heap and depress batched throughput
    # measured after them.
    note("batched_qrm")
    report.ratios.extend(
        measure_batched_qrm_speedup(size, trials=trials, master_seed=master_seed)
    )
    note("service_latency")
    record, report.service_latency = measure_service_latency(
        size, requests_per_client=max(trials, 3), master_seed=master_seed
    )
    report.ratios.append(record)
    for name, measure in (
        ("repair", measure_repair_speedup),
        ("guarded_drain", measure_guarded_drain_speedup),
        ("masked_qrm", measure_masked_qrm_speedup),
        ("awg_compile", measure_awg_compile_speedup),
        ("lossy_replay", measure_lossy_replay_speedup),
        ("expected_image", measure_expected_image_speedup),
        ("fpga_cycle_model", measure_fpga_cycle_model_speedup),
    ):
        note(name)
        report.ratios.append(measure(size, trials=trials, master_seed=master_seed))
    for component in ("tetris", "psca", "mta1"):
        note(component)
        report.ratios.append(
            measure_baseline_speedup(
                component, size, trials=trials, master_seed=master_seed
            )
        )
    return report


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and value >= 1


def _is_positive_number(value) -> bool:
    return isinstance(value, (int, float)) and value > 0


def validate_bench_report(payload: dict) -> None:
    """Raise :class:`ValueError` unless ``payload`` is a valid report.

    This is the machine-checked contract behind ``BENCH_*.json``: the
    schema version is pinned, every ratio of :data:`RATIO_NAMES` has
    exactly one record carrying every key, with positive sides and a
    ``ratio`` that is exactly ``slow_ms / fast_ms``, and every latency
    row carries its keys with ``p50 <= p95 <= p99``.
    ``tests/test_bench_schema.py`` holds both the committed artefact and
    freshly generated reports to it.
    """
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {payload.get('schema_version')!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    for key in ("master_seed", "trials", "environment", "ratios", "service_latency"):
        if key not in payload:
            raise ValueError(f"missing top-level key {key!r}")
    if not _is_positive_int(payload["trials"]):
        raise ValueError(f"trials must be a positive int, got {payload['trials']!r}")

    for index, record in enumerate(payload["ratios"]):
        context = f"ratios[{index}] ({record.get('name')!r})"
        for key in _RECORD_KEYS:
            if key not in record:
                raise ValueError(f"{context} missing key {key!r}")
        for key in ("size", "trials"):
            if not _is_positive_int(record[key]):
                raise ValueError(f"{context}.{key} must be a positive int")
        for key in ("fill", "fast_ms", "slow_ms"):
            if not _is_positive_number(record[key]):
                raise ValueError(f"{context}.{key} must be a positive number")
        if record["ratio"] != record["slow_ms"] / record["fast_ms"]:
            raise ValueError(
                f"{context}.ratio {record['ratio']!r} is not slow_ms / fast_ms"
            )
    names = sorted(record["name"] for record in payload["ratios"])
    if names != sorted(RATIO_NAMES):
        raise ValueError(
            f"ratios {names} do not match the gated set {sorted(RATIO_NAMES)}"
        )

    for index, row in enumerate(payload["service_latency"]):
        context = f"service_latency[{index}]"
        for key in _LATENCY_KEYS:
            if key not in row:
                raise ValueError(f"{context} missing key {key!r}")
        if not _is_positive_int(row["clients"]):
            raise ValueError(f"{context}.clients must be a positive int")
        if row["mode"] not in ("unbatched", "batched"):
            raise ValueError(f"{context}.mode must be 'unbatched' or 'batched'")
        if not row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]:
            raise ValueError(f"{context}: p50 <= p95 <= p99 violated")
