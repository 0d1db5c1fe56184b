"""Parameterised runners for every evaluation artefact in the paper.

Each ``run_*`` function regenerates one figure (or claim set) and
returns a result object with ``rows`` plus a ``format_table()`` — the
benchmarks print these, the examples reuse them, and EXPERIMENTS.md
records their output against the paper's numbers.

The grid-shaped runners (Fig. 7(a), Fig. 7(b), the success sweep, and
the loss comparison) execute on the campaign engine
(:mod:`repro.campaign`): pass ``executor=`` to parallelise them across
processes, ``cache=`` to make re-runs incremental, and ``journal=``
(a :class:`repro.campaign.RunJournal`) to make long regenerations
resumable after an interruption.  Within one campaign every algorithm
sees identical loaded arrays (paired design), matching how the paper
compares algorithms.

Paper anchor values are kept here as module constants so the comparison
columns in every table come from one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import FillStats
from repro.analysis.tables import format_table, to_csv
from repro.baselines.cost_model import model_cpu_time_us
from repro.campaign.spec import CampaignSpec, ScenarioCell
from repro.config import QrmParameters, ScanMode
from repro.fpga.accelerator import QrmAccelerator
from repro.fpga.resources import ResourceModel
from repro.lattice.geometry import ArrayGeometry
from repro.lattice.loading import load_uniform
from repro.physics.loss import DEFAULT_LOSS_MODEL, LossModel
from repro.workflow.system import compare_architectures

#: Fig. 7(a) anchors: FPGA analysis latency (us) the paper reports.
PAPER_FIG7A_FPGA_US = {10: 0.8, 50: 1.0, 90: 1.9}
#: Fig. 7(b) anchors at 20x20, reconstructed from the quoted ratios
#: (QRM-FPGA 0.9 us; Tetris 120x that; PSCA 246x and MTA1 ~1000x QRM-CPU,
#: with QRM-CPU ~20x faster than Tetris).
PAPER_FIG7B_US = {
    "qrm-fpga": 0.9,
    "qrm-cpu": 5.4,
    "tetris": 108.0,
    "psca": 1328.0,
    "mta1": 5400.0,
}
#: Fig. 8 anchors at 90x90 (percent of the ZU49DR budget).
PAPER_FIG8_AT_90 = {"LUT": 6.31, "FF": 6.19}

DEFAULT_SIZES = (10, 30, 50, 70, 90)


def _run_campaign(spec: CampaignSpec, executor, cache, journal=None):
    """Run a campaign (deferred import: analysis <-> campaign cycle)."""
    from repro.campaign.engine import ExperimentCampaign

    return ExperimentCampaign(
        spec, executor=executor, cache=cache, journal=journal
    ).run()


# ---------------------------------------------------------------------------
# E1 — Fig. 7(a): QRM analysis time, CPU vs FPGA, across array sizes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig7aRow:
    size: int
    fpga_cycles: float
    fpga_us: float
    cpu_model_us: float
    cpu_measured_us: float
    speedup_model: float
    paper_fpga_us: float | None


@dataclass
class Fig7aResult:
    rows: list[Fig7aRow] = field(default_factory=list)

    def format_table(self) -> str:
        headers = [
            "size",
            "fpga_cycles",
            "fpga_us",
            "cpu_model_us",
            "cpu_python_us",
            "speedup(model)",
            "paper_fpga_us",
        ]
        body = [
            [
                r.size,
                r.fpga_cycles,
                r.fpga_us,
                r.cpu_model_us,
                r.cpu_measured_us,
                r.speedup_model,
                r.paper_fpga_us if r.paper_fpga_us is not None else "-",
            ]
            for r in self.rows
        ]
        return format_table(
            headers, body, title="Fig 7(a): QRM execution time, CPU vs FPGA"
        )

    def to_csv(self) -> str:
        headers = [
            "size",
            "fpga_cycles",
            "fpga_us",
            "cpu_model_us",
            "cpu_python_us",
            "speedup_model",
            "paper_fpga_us",
        ]
        body = [
            [
                r.size,
                r.fpga_cycles,
                r.fpga_us,
                r.cpu_model_us,
                r.cpu_measured_us,
                r.speedup_model,
                r.paper_fpga_us or "",
            ]
            for r in self.rows
        ]
        return to_csv(headers, body)


def run_fig7a(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    trials: int = 3,
    seed_base: int = 0,
    fill: float = 0.5,
    executor=None,
    cache=None,
    journal=None,
) -> Fig7aResult:
    """Regenerate Fig. 7(a): analysis latency vs array size."""
    spec = CampaignSpec(
        name="fig7a",
        algorithms=("qrm",),
        sizes=tuple(sizes),
        fills=(fill,),
        n_seeds=trials,
        master_seed=seed_base,
        fpga=True,
        timing=True,
    )
    campaign = _run_campaign(spec, executor, cache, journal=journal)

    result = Fig7aResult()
    for size in sizes:
        aggregate = campaign.aggregate_for(size=size)
        fpga_us = aggregate.mean("fpga_us")
        cpu_model = model_cpu_time_us("qrm", size)
        result.rows.append(
            Fig7aRow(
                size=size,
                fpga_cycles=aggregate.mean("fpga_cycles"),
                fpga_us=fpga_us,
                cpu_model_us=cpu_model,
                cpu_measured_us=aggregate.mean("cpu_us"),
                speedup_model=cpu_model / fpga_us,
                paper_fpga_us=PAPER_FIG7A_FPGA_US.get(size),
            )
        )
    return result


# ---------------------------------------------------------------------------
# E2 — Fig. 7(b): algorithm comparison at 20x20.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig7bRow:
    label: str
    model_us: float
    measured_python_us: float | None
    paper_us: float | None
    ratio_vs_qrm_cpu: float


@dataclass
class Fig7bResult:
    size: int = 20
    rows: list[Fig7bRow] = field(default_factory=list)

    def format_table(self) -> str:
        headers = [
            "algorithm",
            "model_us",
            "python_us",
            "paper_us",
            "x vs qrm-cpu",
        ]
        body = [
            [
                r.label,
                r.model_us,
                r.measured_python_us if r.measured_python_us is not None else "-",
                r.paper_us if r.paper_us is not None else "-",
                r.ratio_vs_qrm_cpu,
            ]
            for r in self.rows
        ]
        return format_table(
            headers,
            body,
            title=f"Fig 7(b): execution time on a {self.size}x{self.size} array",
        )


def run_fig7b(
    size: int = 20,
    trials: int = 3,
    seed_base: int = 0,
    fill: float = 0.5,
    executor=None,
    cache=None,
    journal=None,
) -> Fig7bResult:
    """Regenerate Fig. 7(b): QRM (FPGA+CPU) vs Tetris, PSCA, MTA1.

    One campaign cell per algorithm; the paired seeding of the engine
    guarantees all algorithms analyse identical loaded arrays, as in
    the paper's comparison.
    """
    algorithms = ("qrm", "tetris", "psca", "mta1")
    spec = CampaignSpec(
        name="fig7b",
        algorithms=algorithms,
        sizes=(size,),
        fills=(fill,),
        n_seeds=trials,
        master_seed=seed_base,
        fpga=True,
        timing=True,
    )
    campaign = _run_campaign(spec, executor, cache, journal=journal)

    result = Fig7bResult(size=size)
    qrm_cpu_model = model_cpu_time_us("qrm", size)
    fpga_us = campaign.aggregate_for(algorithm="qrm").mean("fpga_us")
    result.rows.append(
        Fig7bRow(
            label="qrm-fpga",
            model_us=fpga_us,
            measured_python_us=None,
            paper_us=PAPER_FIG7B_US.get("qrm-fpga"),
            ratio_vs_qrm_cpu=fpga_us / qrm_cpu_model,
        )
    )
    for name in algorithms:
        aggregate = campaign.aggregate_for(algorithm=name)
        model_us = model_cpu_time_us(name, size)
        label = "qrm-cpu" if name == "qrm" else name
        result.rows.append(
            Fig7bRow(
                label=label,
                model_us=model_us,
                measured_python_us=aggregate.mean("cpu_us"),
                paper_us=PAPER_FIG7B_US.get(label),
                ratio_vs_qrm_cpu=model_us / qrm_cpu_model,
            )
        )
    return result


# ---------------------------------------------------------------------------
# E3 — Fig. 8: resource utilisation vs array size.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig8Row:
    size: int
    lut_pct: float
    ff_pct: float
    bram_pct: float
    luts: int
    ffs: int
    brams: int


@dataclass
class Fig8Result:
    device: str = ""
    rows: list[Fig8Row] = field(default_factory=list)

    def format_table(self) -> str:
        headers = ["size", "LUT %", "FF %", "BRAM %", "LUTs", "FFs", "BRAM36"]
        body = [
            [r.size, r.lut_pct, r.ff_pct, r.bram_pct, r.luts, r.ffs, r.brams]
            for r in self.rows
        ]
        return format_table(
            headers,
            body,
            title=f"Fig 8: resource utilisation on {self.device}",
        )


def run_fig8(sizes: tuple[int, ...] = DEFAULT_SIZES) -> Fig8Result:
    """Regenerate Fig. 8: LUT/FF/BRAM utilisation across sizes."""
    model = ResourceModel()
    result = Fig8Result(device=model.device.name)
    for report in model.sweep(list(sizes)):
        util = report.utilisation()
        result.rows.append(
            Fig8Row(
                size=report.size,
                lut_pct=util["LUT"],
                ff_pct=util["FF"],
                bram_pct=util["BRAM"],
                luts=report.total_luts,
                ffs=report.total_ffs,
                brams=report.total_brams,
            )
        )
    return result


# ---------------------------------------------------------------------------
# E4 — headline claims of Sec. V-B.
# ---------------------------------------------------------------------------


@dataclass
class HeadlineResult:
    fpga_us_at_50: float = 0.0
    cpu_model_us_at_50: float = 0.0
    speedup_vs_cpu: float = 0.0
    tetris_model_us_at_50: float = 0.0
    speedup_vs_tetris: float = 0.0
    iterations_used: int = 0
    converged: bool = False
    paper_speedup_vs_cpu: float = 54.0
    paper_speedup_vs_tetris: float = 300.0
    paper_iterations: int = 4

    def format_table(self) -> str:
        headers = ["claim", "ours", "paper"]
        body = [
            ["FPGA analysis @50x50 (us)", self.fpga_us_at_50, 1.0],
            ["speedup vs CPU @50", self.speedup_vs_cpu, self.paper_speedup_vs_cpu],
            [
                "speedup vs Tetris @50",
                self.speedup_vs_tetris,
                self.paper_speedup_vs_tetris,
            ],
            ["iterations used", self.iterations_used, self.paper_iterations],
        ]
        return format_table(headers, body, title="Headline claims (Sec. V-B)")


def run_headline(seed: int = 0, fill: float = 0.5) -> HeadlineResult:
    """Check the paper's headline numbers at 50x50."""
    geometry = ArrayGeometry.square(50, 30)
    array = load_uniform(geometry, fill, rng=seed)
    run = QrmAccelerator(geometry).run(array)
    fpga_us = run.report.time_us
    cpu_us = model_cpu_time_us("qrm", 50)
    tetris_us = model_cpu_time_us("tetris", 50)
    return HeadlineResult(
        fpga_us_at_50=fpga_us,
        cpu_model_us_at_50=cpu_us,
        speedup_vs_cpu=cpu_us / fpga_us,
        tetris_model_us_at_50=tetris_us,
        speedup_vs_tetris=tetris_us / fpga_us,
        iterations_used=run.result.iterations_used,
        converged=run.result.converged,
    )


# ---------------------------------------------------------------------------
# E6 — ablation: pipelined (paper) vs fresh column-pass scan mode.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    mode: str
    merge: bool
    iterations: float
    moves: float
    target_fill: float
    skipped_stale: float
    fpga_us: float


@dataclass
class AblationResult:
    size: int = 50
    rows: list[AblationRow] = field(default_factory=list)

    def format_table(self) -> str:
        headers = [
            "scan mode",
            "merge",
            "iterations",
            "moves",
            "target fill",
            "stale skips",
            "fpga_us",
        ]
        body = [
            [
                r.mode,
                r.merge,
                r.iterations,
                r.moves,
                r.target_fill,
                r.skipped_stale,
                r.fpga_us,
            ]
            for r in self.rows
        ]
        return format_table(
            headers,
            body,
            title=f"Ablation: scan mode and mirror merge at {self.size}x{self.size}",
        )


def run_ablation(
    size: int = 50,
    trials: int = 3,
    seed_base: int = 0,
    fill: float = 0.5,
    executor=None,
    cache=None,
    journal=None,
) -> AblationResult:
    """Design-choice ablation for the column-pass staleness and merging.

    Runs on the campaign engine: every variant is one grid cell with a
    :class:`~repro.config.QrmParameters` override, so the
    paired seeding guarantees all variants analyse identical loaded
    arrays, and ``executor=``/``cache=`` add parallelism and incremental
    re-runs like every other grid-shaped experiment.
    """
    geometry = ArrayGeometry.square(size)
    variants = [
        ("pipelined", QrmParameters(scan_mode=ScanMode.PIPELINED)),
        ("fresh", QrmParameters(scan_mode=ScanMode.FRESH)),
        (
            "pipelined",
            QrmParameters(
                scan_mode=ScanMode.PIPELINED,
                merge_mirror_quadrants=False,
            ),
        ),
        (
            "pipelined+s_en",
            QrmParameters(
                scan_mode=ScanMode.PIPELINED,
                scan_limit=max(1, geometry.target_width // 2),
            ),
        ),
    ]
    spec = CampaignSpec(
        name="ablation",
        algorithms=(),
        sizes=(),
        n_seeds=trials,
        master_seed=seed_base,
        extra_cells=tuple(
            ScenarioCell(algorithm="qrm", size=size, fill=fill, fpga=True, qrm=qrm)
            for _, qrm in variants
        ),
    )
    campaign = _run_campaign(spec, executor, cache, journal=journal)

    result = AblationResult(size=size)
    for mode, qrm in variants:
        aggregate = campaign.aggregate_for(qrm=qrm)
        result.rows.append(
            AblationRow(
                mode=mode,
                merge=qrm.merge_mirror_quadrants,
                iterations=aggregate.mean("iterations"),
                moves=aggregate.mean("moves"),
                target_fill=aggregate.mean("target_fill"),
                skipped_stale=aggregate.mean("skipped_stale"),
                fpga_us=aggregate.mean("fpga_us"),
            )
        )
    return result


# ---------------------------------------------------------------------------
# E5 — success-probability sweep (extension beyond the paper).
# ---------------------------------------------------------------------------


@dataclass
class SuccessSweepResult:
    rows: list[FillStats] = field(default_factory=list)

    def format_table(self) -> str:
        headers = [
            "algorithm",
            "size",
            "load fill",
            "target fill",
            "P(success)",
            "moves",
            "trials",
        ]
        body = [
            [
                r.algorithm,
                r.size,
                r.fill,
                r.mean_target_fill,
                r.success_probability,
                r.mean_moves,
                r.trials,
            ]
            for r in self.rows
        ]
        return format_table(
            headers, body, title="Assembly quality vs loading probability"
        )


def run_success_sweep(
    fills: tuple[float, ...] = (0.5, 0.6, 0.7),
    size: int = 30,
    trials: int = 5,
    seed_base: int = 0,
    algorithms: tuple[str, ...] = ("qrm", "qrm-repair"),
    executor=None,
    cache=None,
    journal=None,
) -> SuccessSweepResult:
    """How assembly quality depends on the loading probability."""
    spec = CampaignSpec(
        name="success-sweep",
        algorithms=tuple(algorithms),
        sizes=(size,),
        fills=tuple(fills),
        n_seeds=trials,
        master_seed=seed_base,
    )
    campaign = _run_campaign(spec, executor, cache, journal=journal)
    result = SuccessSweepResult()
    result.rows = campaign.fill_stats()
    return result


# ---------------------------------------------------------------------------
# E8 — physical atom loss vs schedule structure (extension).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossRow:
    algorithm: str
    moves: float
    motion_ms: float
    survival: float
    target_fill_after_loss: float


@dataclass
class LossComparisonResult:
    size: int = 20
    rows: list[LossRow] = field(default_factory=list)

    def format_table(self) -> str:
        headers = [
            "algorithm",
            "moves",
            "motion_ms",
            "survival",
            "fill after loss",
        ]
        body = [
            [r.algorithm, r.moves, r.motion_ms, r.survival, r.target_fill_after_loss]
            for r in self.rows
        ]
        return format_table(
            headers,
            body,
            title=(
                f"Physical atom loss vs schedule structure, "
                f"{self.size}x{self.size} array"
            ),
        )


def run_loss_comparison(
    size: int = 20,
    trials: int = 3,
    seed_base: int = 0,
    algorithms: tuple[str, ...] = ("qrm", "tetris", "psca", "mta1"),
    fill: float = 0.5,
    loss: LossModel = DEFAULT_LOSS_MODEL,
    executor=None,
    cache=None,
    journal=None,
) -> LossComparisonResult:
    """How each algorithm's schedule length translates into atom loss."""
    spec = CampaignSpec(
        name="loss-comparison",
        algorithms=tuple(algorithms),
        sizes=(size,),
        fills=(fill,),
        n_seeds=trials,
        master_seed=seed_base,
        loss_models=(loss,),
    )
    campaign = _run_campaign(spec, executor, cache, journal=journal)
    result = LossComparisonResult(size=size)
    for name in algorithms:
        aggregate = campaign.aggregate_for(algorithm=name)
        result.rows.append(
            LossRow(
                algorithm=name,
                moves=aggregate.mean("moves"),
                motion_ms=aggregate.mean("motion_ms"),
                survival=aggregate.mean("survival"),
                target_fill_after_loss=aggregate.mean("fill_after_loss"),
            )
        )
    return result


# ---------------------------------------------------------------------------
# E7 — Fig. 2 motivation: architecture (a) vs (b) end-to-end budgets.
# ---------------------------------------------------------------------------


@dataclass
class WorkflowResult:
    size: int = 50
    budget_a: object = None
    budget_b: object = None

    def format_table(self) -> str:
        parts = [
            f"End-to-end control-loop budget, {self.size}x{self.size} array",
            self.budget_a.format(),
            self.budget_b.format(),
            (
                f"architecture (b) is "
                f"{self.budget_a.total_us / self.budget_b.total_us:.1f}x "
                f"faster end to end"
            ),
        ]
        return "\n".join(parts)


def run_workflow_comparison(size: int = 50, seed: int = 0) -> WorkflowResult:
    """Regenerate the Fig. 2 motivation numbers."""
    geometry = ArrayGeometry.square(size)
    array = load_uniform(geometry, 0.5, rng=seed)
    fpga_us = QrmAccelerator(geometry).run(array).report.time_us
    budgets = compare_architectures(size, fpga_us)
    return WorkflowResult(size=size, budget_a=budgets["a"], budget_b=budgets["b"])
