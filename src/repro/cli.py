"""Command-line interface.

Examples::

    repro rearrange --size 20 --seed 7 --render
    repro rearrange --size 50 --algorithm tetris
    repro figure 7a --trials 3
    repro figure all
    repro campaign --sizes 20 30 --fills 0.5 0.6 --algorithms qrm tetris \\
        --seeds 25 --workers 4 --csv campaign.csv
    repro campaign --spec my_campaign.json --workers 8
    repro campaign --seeds 100 --workers 4 --journal run.jsonl
    repro campaign --resume run.jsonl
    repro campaign --sizes 12 --seeds 10 --loss --cycles 3
    repro pipeline --size 12 --shots 4 --cycles 3 --loss --fpga
    repro worker --listen 0.0.0.0:7501      # one daemon per core
    repro campaign --workers host-a:7501,host-b:7501 --journal run.jsonl
    repro resources --size 90
    repro trace --size 10
    repro algorithms
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.experiments import (
    run_ablation,
    run_fig7a,
    run_fig7b,
    run_fig8,
    run_headline,
    run_loss_comparison,
    run_success_sweep,
    run_workflow_comparison,
)
from repro.analysis.feasibility import (
    minimum_fill_for_target,
    predict_compaction_fill,
)
from repro.aod.validator import validate_schedule
from repro.baselines.base import get_algorithm, list_algorithms
from repro.errors import ConfigurationError, ReproError
from repro.fpga.accelerator import QrmAccelerator
from repro.fpga.bitvec import BitVector
from repro.fpga.resources import ResourceModel
from repro.fpga.shift_kernel import PipelinedShiftKernel
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform
from repro.lattice.metrics import summarize
from repro.lattice.render import render_side_by_side


def _parse_mask(text: str, size: int):
    """A CLI mask spec string -> concrete ``TargetMask`` for ``size``."""
    from repro.campaign.spec import MaskSpec

    return MaskSpec.parse(text).build(size)


def _cmd_rearrange(args: argparse.Namespace) -> int:
    if args.mask is not None:
        geometry = ArrayGeometry.with_mask(
            args.size, args.size, _parse_mask(args.mask, args.size)
        )
    else:
        geometry = ArrayGeometry.square(args.size, args.target)
    array = load_uniform(geometry, args.fill, rng=args.seed)
    algorithm = get_algorithm(args.algorithm, geometry)
    result = algorithm.schedule(array)
    report = validate_schedule(array, result.schedule)

    print(result.summary())
    print(report.format())
    if args.fpga and args.algorithm == "qrm":
        run = QrmAccelerator(geometry).run(array)
        print(run.report.summary())
    if args.render:
        print()
        print(render_side_by_side(array, result.final))
    print()
    print(summarize(result.final).format())
    return 0 if report.ok else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    which = args.which
    trials = args.trials
    outputs = []
    if which in ("7a", "all"):
        outputs.append(run_fig7a(trials=trials).format_table())
    if which in ("7b", "all"):
        outputs.append(run_fig7b(trials=trials).format_table())
    if which in ("8", "all"):
        outputs.append(run_fig8().format_table())
    if which in ("headline", "all"):
        outputs.append(run_headline().format_table())
    if which in ("ablation", "all"):
        outputs.append(run_ablation(trials=trials).format_table())
    if which in ("success", "all"):
        outputs.append(run_success_sweep(trials=trials).format_table())
    if which in ("workflow", "all"):
        outputs.append(run_workflow_comparison().format_table())
    if which in ("loss", "all"):
        outputs.append(run_loss_comparison(trials=trials).format_table())
    if not outputs:
        print(f"unknown figure '{which}'", file=sys.stderr)
        return 2
    print("\n\n".join(outputs))
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    report = ResourceModel().estimate(args.size)
    print(report.format_table())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    geometry = ArrayGeometry.square(args.size)
    array = load_uniform(geometry, args.fill, rng=args.seed)
    frame = geometry.quadrant_frames()[0]
    local = frame.extract(array.grid)
    rows = [BitVector.from_array(local[u]) for u in range(local.shape[0])]
    kernel = PipelinedShiftKernel(qw=geometry.half_width)
    kernel.process(rows)
    for cycle in (3, geometry.half_width + 1):
        print(kernel.render_snapshot(cycle))
        print()
    return 0


def _cmd_algorithms(_: argparse.Namespace) -> int:
    for name in list_algorithms():
        print(name)
    return 0


def _cmd_feasibility(args: argparse.Namespace) -> int:
    geometry = ArrayGeometry.square(args.size, args.target)
    estimate = predict_compaction_fill(geometry, args.fill)
    print(estimate.format())
    threshold = minimum_fill_for_target(geometry)
    print(
        f"loading probability needed for >=99.9% fill without repair: "
        f"{threshold:.3f}"
    )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    geometry = ArrayGeometry.square(args.size)
    array = load_uniform(geometry, 0.5, rng=args.seed)
    accelerator = QrmAccelerator(geometry)
    trace = accelerator.trace_iteration(array, iteration=args.iteration)
    print(trace.render_timeline())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.perf import run_perf_suite
    from repro.analysis.perf_gate import TOLERANCE, check_schema, evaluate_gate

    if args.trials < 1:
        raise ConfigurationError(f"--trials must be >= 1, got {args.trials}")
    baseline = None
    if args.gate:
        try:
            baseline = json.loads(Path(args.gate).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read gate baseline {args.gate}: {exc}"
            ) from exc
        check_schema(baseline, args.gate)

    observer = None if args.quiet else (
        lambda label: print(f"[bench] {label}", file=sys.stderr)
    )
    report = run_perf_suite(
        size=args.speedup_size,
        trials=args.trials,
        master_seed=args.seed,
        observer=observer,
    )
    print(report.format_table())
    path = report.write_json(args.out)
    print(f"[written to {path}]")

    if baseline is not None:
        outcome = evaluate_gate(report.to_dict(), baseline)
        for notice in outcome.notices:
            print(f"[gate] skipped {notice}", file=sys.stderr)
        if not outcome.ok:
            print(outcome.message(), file=sys.stderr)
            return 1
        print(f"[gate] speedups within {TOLERANCE:.0%} of {args.gate}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import SchedulingService

    async def run() -> None:
        service = SchedulingService(
            host=args.host,
            port=args.port,
            batch_window=args.batch_window / 1000.0,
            max_batch_size=args.max_batch_size,
            cache_size=args.cache_size,
        )
        await service.start()
        if not args.quiet:
            host, port = service.address
            batching = (
                f"micro-batching up to {service.max_batch_size} requests "
                f"per {args.batch_window:g}ms window"
                if service.max_batch_size > 1
                else "batching off"
            )
            print(
                f"[serve] rearrangement service on {host}:{port} ({batching}; "
                f"pickle frames + JSON lines on the same port)",
                file=sys.stderr,
                flush=True,
            )
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()
            if not args.quiet:
                stats = service.snapshot_stats()
                print(f"[serve] stopped; stats: {stats}", file=sys.stderr)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        return 130
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.campaign.worker import run_worker

    if args.listen is None:
        raise ConfigurationError(
            "repro worker is a TCP daemon: pass --listen HOST:PORT and dial "
            "it with 'repro campaign --workers host:port[,host:port...]'; "
            "for a local process pool, run 'repro campaign --workers N' "
            "instead"
        )
    return run_worker(
        listen=args.listen,
        max_connections=args.max_connections,
        quiet=args.quiet,
    )


def _cmd_pipeline(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.physics.loss import LossModel
    from repro.pipeline import PipelineConfig, run_pipeline

    # --mask overrides --target, as on `repro rearrange`.
    mask = _parse_mask(args.mask, args.size) if args.mask is not None else None
    config = PipelineConfig(
        size=args.size,
        target=args.target if mask is None else None,
        fill=args.fill,
        algorithm=args.algorithm,
        shots=args.shots,
        cycles=args.cycles,
        master_seed=args.seed,
        loss=LossModel() if args.loss else None,
        fpga_timing=args.fpga,
        mask=mask,
    )
    result = run_pipeline(config)
    if not args.quiet:
        print(result.format_summary())
    if args.trace:
        Path(args.trace).write_text("\n".join(result.trace_lines()) + "\n")
        if not args.quiet:
            print(f"[trace written to {args.trace}]")
    if args.json:
        Path(args.json).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        if not args.quiet:
            print(f"[report written to {args.json}]")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.campaign import (
        CampaignSpec,
        CompositeObserver,
        ConsoleObserver,
        ExperimentCampaign,
        InterruptingObserver,
        NullObserver,
        RunJournal,
        TrialCache,
        make_executor,
    )

    if args.resume and (args.spec or args.journal):
        print(
            "--resume reconstructs the spec and journal path from the "
            "journal file; drop --spec/--journal",
            file=sys.stderr,
        )
        return 2

    journal = None
    if args.resume:
        journal_path = Path(args.resume)
        if not journal_path.is_file():
            print(f"journal file not found: {journal_path}", file=sys.stderr)
            return 2
        journal = RunJournal.resume(journal_path)
        spec = journal.replay.spec
        if spec is None:
            print(
                f"journal {journal_path} has no campaign_started record "
                f"to resume from",
                file=sys.stderr,
            )
            return 2
    elif args.spec:
        spec_path = Path(args.spec)
        if not spec_path.is_file():
            print(f"spec file not found: {spec_path}", file=sys.stderr)
            return 2
        try:
            spec = CampaignSpec.from_json(spec_path.read_text())
        except (ReproError, ValueError, TypeError, KeyError) as exc:
            raise ConfigurationError(
                f"invalid spec file {spec_path}: {exc}"
            ) from exc
    else:
        from repro.campaign.spec import MaskSpec
        from repro.physics.loss import LossModel

        masks: tuple = (None,)
        if args.mask:
            masks = tuple(
                None if text in ("none", "rect") else MaskSpec.parse(text)
                for text in args.mask
            )
        spec = CampaignSpec(
            name=args.name,
            algorithms=tuple(args.algorithms),
            sizes=tuple(args.sizes),
            fills=tuple(args.fills),
            n_seeds=args.seeds,
            master_seed=args.seed,
            fpga=args.fpga,
            timing=args.timing,
            cycles=args.cycles,
            loss_models=(LossModel(),) if args.loss else (None,),
            masks=masks,
            loading=args.loading,
        )
    if args.dump_spec:
        print(spec.to_json())
        return 0

    from repro.baselines.base import resolve_algorithms
    from repro.campaign.trial import cell_geometry
    from repro.errors import UnsupportedGeometryError

    try:
        resolve_algorithms(spec.algorithms)
        # Fail fast when a masked cell names a rect-only algorithm,
        # before any trial executes (one check per distinct geometry).
        checked: set = set()
        for cell in spec.expand():
            if cell.mask is None:
                continue
            signature = (cell.algorithm, cell.size, cell.mask)
            if signature in checked:
                continue
            checked.add(signature)
            resolve_algorithms((cell.algorithm,), cell_geometry(cell))
    except (KeyError, UnsupportedGeometryError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    # Built before the journal, so a bad --workers leaves no file.
    executor = make_executor(args.workers)

    if journal is None and args.journal:
        journal = RunJournal.fresh(args.journal)

    observer = NullObserver() if args.quiet else ConsoleObserver()
    if args.interrupt_after is not None:
        observer = CompositeObserver(
            [observer, InterruptingObserver(args.interrupt_after)]
        )

    cache = None if args.no_cache else TrialCache(args.cache_dir)
    campaign = ExperimentCampaign(
        spec,
        executor=executor,
        cache=cache,
        observer=observer,
        journal=journal,
        batch_size=args.batch_size,
    )
    try:
        result = campaign.run()
    except KeyboardInterrupt:
        # Both interrupt paths exit with the conventional SIGINT code
        # 130; only the journalled one leaves anything to resume from.
        if journal is not None:
            print(
                f"[campaign interrupted — resume with: "
                f"repro campaign --resume {journal.path}]",
                file=sys.stderr,
            )
        else:
            print(
                "[campaign interrupted — no journal was recorded, so "
                "partial progress is discarded; re-run with --journal "
                "to make runs resumable]",
                file=sys.stderr,
            )
        return 130
    finally:
        if journal is not None:
            journal.close()
    print(result.format_table(stats=args.stats))
    replayed = (
        f", {result.journal_replays} replayed from journal"
        if journal is not None
        else ""
    )
    print(
        f"[{result.cache_hits}/{result.n_trials} trials from cache"
        f"{replayed}, {result.duration_s:.2f}s]"
    )
    if args.csv:
        path = result.write_csv(args.csv, stats=args.stats)
        print(f"[written to {path}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the DATE 2025 FPGA neutral-atom rearrangement "
            "accelerator (QRM)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rearrange", help="run one rearrangement")
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--target", type=int, default=None)
    p.add_argument(
        "--mask",
        type=str,
        default=None,
        metavar="SPEC",
        help="non-rectangular target mask: kind[:key=value,...], e.g. "
        "'ring', 'ring:outer=6,inner=3', 'triangular:pitch=2', "
        "'sparse:sites=1-2+3-4' (overrides --target)",
    )
    p.add_argument("--fill", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", default="qrm", choices=list_algorithms())
    p.add_argument("--render", action="store_true")
    p.add_argument(
        "--fpga", action="store_true", help="also run the FPGA cycle model (qrm only)"
    )
    p.set_defaults(func=_cmd_rearrange)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument(
        "which",
        choices=[
            "7a",
            "7b",
            "8",
            "headline",
            "ablation",
            "success",
            "workflow",
            "loss",
            "all",
        ],
    )
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "feasibility",
        help="analytic compaction-fill prediction for a geometry",
    )
    p.add_argument("--size", type=int, default=50)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--fill", type=float, default=0.5)
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("timeline", help="FIFO-occupancy timeline of one iteration")
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iteration", type=int, default=0)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser(
        "campaign",
        help="run an experiment campaign over a scenario grid",
        description=(
            "Expand a scenario grid (algorithm x size x fill), run every "
            "seeded trial exactly once (parallel across processes with "
            "--workers), cache per-trial results on disk, and print the "
            "aggregate table."
        ),
    )
    p.add_argument(
        "--spec",
        type=str,
        default=None,
        help="load the campaign spec from this JSON file",
    )
    p.add_argument(
        "--journal",
        type=str,
        default=None,
        help="record an append-only JSONL run journal at this "
        "path (starts fresh; see --resume)",
    )
    p.add_argument(
        "--resume",
        type=str,
        default=None,
        help="resume an interrupted campaign from its journal: "
        "the spec is reconstructed from the journal, "
        "finished trials replay, and only the remainder "
        "executes (appends to the same journal)",
    )
    p.add_argument("--name", type=str, default="cli")
    p.add_argument("--algorithms", nargs="+", default=["qrm"], metavar="ALGO")
    p.add_argument("--sizes", type=int, nargs="+", default=[20])
    p.add_argument("--fills", type=float, nargs="+", default=[0.5])
    p.add_argument(
        "--mask",
        type=str,
        nargs="+",
        default=None,
        metavar="SPEC",
        help="target-mask grid axis: kind[:key=value,...] entries "
        "('ring', 'ring:outer=6,inner=3', 'triangular:pitch=2', "
        "'sparse:sites=1-2+3-4'); the literal 'none' keeps the "
        "rectangular --target leg alongside the masked ones",
    )
    p.add_argument(
        "--loading",
        type=str,
        default="uniform",
        choices=["uniform", "poisson"],
        help="stochastic loading model for the initial arrays "
        "(poisson = Thomas-process clustered loading)",
    )
    p.add_argument("--seeds", type=int, default=5, help="trials per grid cell")
    p.add_argument(
        "--seed", type=int, default=0, help="master seed for the per-trial RNG streams"
    )
    p.add_argument(
        "--fpga",
        action="store_true",
        help="add FPGA cycle-model metrics (qrm cells only)",
    )
    p.add_argument(
        "--timing",
        action="store_true",
        help="add measured Python wall-clock metrics "
        "(non-deterministic)",
    )
    p.add_argument(
        "--loss",
        action="store_true",
        help="replay schedules through the default atom-loss "
        "model",
    )
    p.add_argument(
        "--cycles",
        type=int,
        default=1,
        metavar="N",
        help="closed-loop cycles per trial: rearrange, apply "
        "losses, re-image, repair — up to N camera frames "
        "(1 = classic open-loop trial)",
    )
    p.add_argument(
        "--workers",
        type=str,
        default=None,
        help="where trials run (default: in-process; 0 or 1 "
        "also runs in-process): N > 1 fans them out over a local "
        "pool of N processes, and host:port[,host:port...] over "
        "running 'repro worker --listen' daemons, with "
        "health-checks and re-dispatch",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=1,
        help="consecutive same-cell trials per unit of work: one "
        "batched scheduling call, and one dispatch to a worker "
        "(1 = per-trial execution); batch-capable algorithms "
        "amortise analysis across the group, aggregates are "
        "identical either way",
    )
    p.add_argument(
        "--interrupt-after",
        type=int,
        default=None,
        metavar="N",
        help="(testing) raise KeyboardInterrupt after N "
        "executed trials — exercises the journal "
        "interrupt/resume path deterministically",
    )
    p.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="trial cache directory (default: "
        "$REPRO_CACHE_DIR or .repro-cache/campaigns)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="do not read or write the trial cache"
    )
    p.add_argument(
        "--csv",
        type=str,
        default=None,
        help="also write the aggregate table to this CSV file",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="expand every metric into mean/std/min/max columns",
    )
    p.add_argument(
        "--dump-spec",
        action="store_true",
        help="print the expanded spec as JSON and exit",
    )
    p.add_argument("--quiet", action="store_true", help="suppress progress output")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "pipeline",
        help="closed-loop camera -> detect -> schedule -> AWG pipeline",
        description=(
            "Stream camera frames through the full closed-loop data path "
            "(render -> detect occupancy -> schedule -> compile AWG "
            "waveforms -> replay with losses), one frame at a time, and "
            "report per-stage latency against the paper's hardware "
            "budget."
        ),
    )
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--target", type=int, default=None)
    p.add_argument(
        "--mask",
        type=str,
        default=None,
        metavar="SPEC",
        help="non-rectangular target mask (same syntax as "
        "'repro rearrange --mask'; overrides --target)",
    )
    p.add_argument("--fill", type=float, default=0.6)
    p.add_argument("--algorithm", default="qrm", choices=list_algorithms())
    p.add_argument("--shots", type=int, default=4, help="independent atom arrays")
    p.add_argument(
        "--cycles",
        type=int,
        default=1,
        metavar="N",
        help="closed-loop repair cycles per shot (re-image after replay)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--loss",
        action="store_true",
        help="replay through the default atom-loss model",
    )
    p.add_argument(
        "--fpga",
        action="store_true",
        help="also run the FPGA cycle model per frame and compare "
        "the measured stages against the paper's hardware "
        "budget (qrm only)",
    )
    p.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="write the canonical per-frame trace (JSONL) here — "
        "byte-identical across reruns",
    )
    p.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the full report (metrics + stage latencies) here",
    )
    p.add_argument("--quiet", action="store_true", help="suppress the summary")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser(
        "bench",
        help="gated speedup-ratio benchmark",
        description=(
            "Measure every gated speedup ratio at one array size (each "
            "vectorised path vs its reference oracle, batched vs single "
            "QRM, service batching on vs off), print them with the "
            "service latency table, and write the machine-readable "
            "BENCH_*.json record.  Per-case scheduler wall time is "
            "`repro campaign --timing --stats`."
        ),
    )
    p.add_argument(
        "--speedup-size",
        type=int,
        default=64,
        help="array width every ratio is measured at (default 64)",
    )
    p.add_argument(
        "--trials", type=int, default=3, help="seeded inputs per ratio (default 3)"
    )
    p.add_argument(
        "--seed", type=int, default=0, help="master seed for the per-trial loads"
    )
    p.add_argument(
        "--out",
        type=str,
        default="BENCH_qrm.json",
        help="output JSON path (default ./BENCH_qrm.json)",
    )
    p.add_argument(
        "--gate",
        type=str,
        default=None,
        metavar="BASELINE.json",
        help="fail (exit 1) when a measured speedup ratio slips more "
        "than 15%% below this committed bench report's; a report of "
        "another schema version is refused before measuring (exit 2)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-ratio progress on stderr"
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="run the rearrangement scheduling service",
        description=(
            "Start the long-lived scheduling server: clients submit "
            "occupancy frames over TCP (length-prefixed pickle frames or "
            "newline-delimited JSON on the same port) and stream back "
            "schedules; concurrent requests for the same geometry are "
            "micro-batched through the cross-trial engine and served from "
            "warm per-geometry caches."
        ),
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=7421,
        help="TCP port (0 picks a free port; default 7421)",
    )
    p.add_argument(
        "--batch-window",
        type=float,
        default=2.0,
        metavar="MS",
        help="milliseconds a wave stays open for concurrent "
        "requests to pile in (default 2.0; 0 disables the "
        "timer)",
    )
    p.add_argument(
        "--max-batch-size",
        type=int,
        default=32,
        help="requests per schedule_batch call (1 = batching off)",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=8,
        help="warm per-geometry scheduler LRU capacity",
    )
    p.add_argument("--quiet", action="store_true", help="suppress startup banner")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "worker",
        help="run a campaign worker daemon (TCP, --listen HOST:PORT)",
        description=(
            "Serve distributed campaign trials as a TCP daemon on "
            "--listen HOST:PORT: one connection at a time from "
            "'repro campaign --workers host:port[,...]', so run one "
            "daemon per core.  For local parallelism use 'repro "
            "campaign --workers N' instead."
        ),
    )
    p.add_argument(
        "--listen",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="(required) serve TCP connections on this address (port "
        "0 picks a free port; the bound address is announced on "
        "stderr)",
    )
    p.add_argument(
        "--max-connections",
        type=int,
        default=None,
        metavar="N",
        help="exit after serving N connections (default: serve forever)",
    )
    p.add_argument("--quiet", action="store_true", help="suppress status lines")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("resources", help="FPGA resource estimate")
    p.add_argument("--size", type=int, default=50)
    p.set_defaults(func=_cmd_resources)

    p = sub.add_parser("trace", help="Fig 6-style shift-kernel trace")
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--fill", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("algorithms", help="list registered algorithms")
    p.set_defaults(func=_cmd_algorithms)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
