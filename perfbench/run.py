"""Benchmark of the closed loop, the paper's geometry and the service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload loop-64 --seed 1 --seconds 10 --trace 0

Each invocation runs one workload (see ``perfbench/workloads.py``) in a
fresh process with the BLAS/OpenMP pools pinned to one thread.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` instead spends half the time untraced and half traced,
prints a per-layer self-time table with the tracing overhead, writes
the spans as Chrome trace-event JSON under ``perfbench/out/`` and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when an output check fails.

The host-time end-to-end metrics (``setup_s``, the frame times, the
rates) are reported at a fixed reference host speed, measured by a
kernel timed between frames (see ``perfbench/host.py``); the raw wall
times are printed beside them and kept in the result record.
"""

from __future__ import annotations

import os

for _pool in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_pool] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("loop-64", "paper-50x50", "service-64")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds of host kernel timings after each set-up, for its
#: reference-speed value.
SETUP_KERNEL_S = 0.2

#: The paper's reported analysis time for 50x50 -> 30x30 at 250 MHz.
PAPER_ANALYSIS_US = {(50, 30): 1.0}

#: Block sizes, in frames, of the block-median statistics below; 96
#: frames are whole shots (3 frames) and whole bursts (8 requests).
PERCENTILE_BLOCK = 96
RATE_BLOCK = 48


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def block_percentile(values, q: float) -> float:
    """Median over consecutive blocks of PERCENTILE_BLOCK frames (the last
    block takes the remainder) of each block's ``q``-th percentile.

    On a shared host a few slow seconds move a whole-run tail
    percentile; the median over blocks keeps them to their own blocks.
    """
    count = max(1, len(values) // PERCENTILE_BLOCK)
    starts = [index * PERCENTILE_BLOCK for index in range(count)] + [len(values)]
    return statistics.median(
        _percentile(values[start:stop], q) for start, stop in zip(starts, starts[1:])
    )


def block_rate(unit_log) -> float:
    """Median over blocks of >= RATE_BLOCK frames of frames per busy second."""
    per_unit = sum(frames for frames, _ in unit_log) / len(unit_log)
    size = max(1, math.ceil(RATE_BLOCK / per_unit))
    blocks = [
        unit_log[start : start + size]
        for start in range(0, len(unit_log) - size + 1, size)
    ] or [unit_log]
    return statistics.median(
        sum(frames for frames, _ in block) / sum(busy for _, busy in block)
        for block in blocks
    )


def time_metrics(phase, fpga: dict) -> dict[str, float]:
    """The end-to-end metrics that are host times, but ``setup_s``."""
    return {
        "frame_ms_p50": _percentile(phase.frame_ms, 50),
        "frame_ms_p95": block_percentile(phase.frame_ms, 95),
        "first_frame_ms_p50": _percentile(phase.first_ms, 50),
        "frames_per_s": block_rate(phase.unit_log),
        "sim_cycles_per_s": fpga["cycles_per_s"],
    }


def setup_probe(args) -> tuple[float, float]:
    """Import, construction and one warm-up frame, in this process, and
    the host kernel's mean time right after them."""
    start = time.perf_counter()
    import workloads

    imported = time.perf_counter() - start
    workload = workloads.make_workload(args.workload, args.seed, args.smoke)
    workload.make_inputs(warmup_only=True)
    start = time.perf_counter()
    workload.setup()
    built = time.perf_counter() - start
    workload.close()
    from host import HostClock

    clock = HostClock()
    clock.sample(SETUP_KERNEL_S)
    return imported + built, clock.kernel_ms


def measure_setup(args) -> list[tuple[float, float]]:
    """``(set-up seconds, host kernel ms)`` of fresh-process set-ups."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        seconds, kernel_ms = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(kernel_ms)))
    return samples


def environment(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def sweeps(name: str, geometry, seed: int) -> list:
    """Runs that drive, on this workload's geometry, the layers it skips.

    Every per-layer metric exists for every workload: ``loop-64`` adds
    one service burst, ``service-64`` a two-shot closed loop, and
    ``paper-50x50`` both.  These numbers move none of the workload's own
    end-to-end metrics.
    """
    import workloads

    size, target = geometry.width, geometry.target_width
    out = []
    if name != "service-64":
        out.append(workloads.Service(seed, size, target, pool=8, fpga_frames=0))
    if name != "loop-64":
        out.append(workloads.ClosedLoop(seed, size, target, max_shots=2, prefix=2))
    return out


def run_sweep(sweep, tracer) -> tuple[dict, int, int]:
    sweep.make_inputs()
    sweep.prepare()
    sweep.setup()
    try:
        sweep.run(0.0, tracer, sweep.min_units)
    finally:
        sweep.close()
    attempted, failed = sweep.check()
    return sweep.layer_metrics(tracer), attempted, failed


def run(args) -> int:
    setup_samples = measure_setup(args)
    env = environment(args)
    import workloads
    from host import REFERENCE_MS, HostClock
    from spans import NULL_TRACER, Tracer

    workload = workloads.make_workload(args.workload, args.seed, args.smoke)
    tracer = Tracer() if args.trace else NULL_TRACER
    workload.make_inputs()
    workload.prepare()
    workload.setup()
    # The inputs and oracle results are the benchmark's, not the
    # program's: keep the collector from scanning them in timed phases.
    gc.collect()
    gc.freeze()
    fpga = workloads.FpgaSampler(
        workload.geometry, workload.fpga_frames, workload.fpga_count, args.seconds
    )
    clock = HostClock()
    workload.hooks = [fpga, clock]
    try:
        if args.trace:
            phase = workload.run(args.seconds / 2, NULL_TRACER, workload.min_units)
            traced = workload.run(args.seconds / 2, tracer)
        else:
            phase = workload.run(args.seconds, NULL_TRACER, workload.min_units)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        workload.close()
    fpga.finish(tracer)
    fpga_reference = fpga.summary(clock.scale_at)
    fpga = fpga.summary()
    attempted, failed = workload.check()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Wall values, and the same metrics at the reference host speed: each
    # frame, unit and cycle-model time is scaled by the host speed around
    # it, and each set-up by its own fresh process's.
    wall = time_metrics(phase, fpga)
    wall["setup_s"] = statistics.median(seconds for seconds, _ in setup_samples)
    values = time_metrics(phase.scaled(clock.scale_at), fpga_reference)
    values["setup_s"] = statistics.median(
        seconds * REFERENCE_MS / kernel_ms for seconds, kernel_ms in setup_samples
    )
    values.update(
        peak_rss_mb=peak_rss_mb,
        **workload.quality(),
        fpga_analysis_cycles=fpga["cycles"],
    )
    result_metrics = select(spec["end_to_end"], values)

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s")
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"end-to-end (tracing off): {len(phase.frame_ms)} frames, "
        f"{len(phase.first_ms)} of them first frames; p95 = median over "
        f"{max(1, len(phase.frame_ms) // PERCENTILE_BLOCK)} blocks of "
        f"{PERCENTILE_BLOCK}+ frames; frames_per_s = median over blocks of "
        f">= {RATE_BLOCK} frames; setup_s = median of {len(setup_samples)} "
        "fresh-process set-ups"
    )
    print(
        f"host speed: kernel mean {clock.kernel_ms:.4f} ms over "
        f"{len(clock.samples_ms)} timings (reference {REFERENCE_MS:g} ms); "
        "host-time metrics below are at the reference speed, wall values "
        "in brackets"
    )
    for name, metric in result_metrics.items():
        raw = f"  [{wall[name]:.6g} wall]" if name in wall else ""
        print(f"  {name:<22} {metric['value']:>14.6g} {metric['unit']}{raw}")
    rate = failed / attempted if attempted else 0.0
    print(
        f"  {'error_rate':<22} {rate:>14.6g} ({failed} of {attempted} failed; "
        f"{workload.checked} checked)"
    )
    paper_us = PAPER_ANALYSIS_US.get(
        (workload.geometry.width, workload.geometry.target_width)
    )
    print(
        f"simulator: fpga_analysis_us = {fpga['analysis_us']:.4f} us over "
        f"{fpga['frames']} frames (modelled by the cycle model, not measured)"
    )
    if paper_us is not None:
        error = fpga["analysis_us"] / paper_us - 1
        print(
            f"  paper reports ~{paper_us:.1f} us for 50x50 -> 30x30 at 250 MHz; "
            f"model error {error:+.0%}"
        )
    else:
        print("  no paper figure for this geometry")

    if args.trace:
        tracers = [tracer]
        per_layer = {}
        for sweep in sweeps(args.workload, workload.geometry, args.seed):
            sweep_tracer = Tracer()
            found, sweep_attempted, sweep_failed = run_sweep(sweep, sweep_tracer)
            per_layer.update(found)
            tracers.append(sweep_tracer)
            attempted += sweep_attempted
            failed += sweep_failed
        own = workload.layer_metrics(tracer)
        own["fpga.host_ms"] = fpga["host_ms"]
        own["fpga.cycles"] = fpga["cycles"]
        own["trace.overhead_ms"] = _percentile(traced.frame_ms, 50) - _percentile(
            phase.frame_ms, 50
        )
        per_layer.update(own)
        report_trace(args, env, tracers, per_layer, own, phase, traced)
        result_metrics = select(spec["per_layer"], per_layer)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps(
            {"env": env, "wall": wall, "kernel_ms": clock.samples_ms, **result},
            indent=1,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def select(items: list, values: dict) -> dict:
    """The metrics ``BENCHMARK.json`` names, in its order, with its units."""
    return {
        item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
        for item in items
    }


def report_trace(args, env, tracers, per_layer, own, phase, traced) -> None:
    from spans import write_chrome_trace

    print("per-layer self time (traced run; pid 1 = workload, 2+ = sweeps):")
    print(f"  {'pid':>3} {'span':<20} {'count':>7} {'self ms':>11} {'ms/span':>10}")
    for pid, tracer in enumerate(tracers, start=1):
        for name, count, total, each in tracer.layer_table():
            print(f"  {pid:>3} {name:<20} {count:>7} {total:>11.3f} {each:>10.4f}")
    print("per-layer metrics (own = this workload's loop, sweep = added run):")
    for name, value in per_layer.items():
        source = "own" if name in own else "sweep"
        print(f"  {name:<34} {value:>14.6g}  {source}")
    untraced = _percentile(phase.frame_ms, 50)
    traced_p50 = _percentile(traced.frame_ms, 50)
    print(
        f"tracing overhead: frame p50 {traced_p50:.4f} ms traced "
        f"({len(traced.frame_ms)} frames) vs {untraced:.4f} ms untraced "
        f"({len(phase.frame_ms)} frames): {traced_p50 - untraced:+.4f} ms"
    )
    path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(exist_ok=True)
    write_chrome_trace(path, tracers, env)
    n_spans = sum(len(tracer.spans) for tracer in tracers)
    print(f"chrome trace: {path.relative_to(ROOT)} ({n_spans} spans)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the self-test"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.setup_probe:
        print(*setup_probe(args))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
