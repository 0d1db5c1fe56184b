"""Scalability study: Fig. 7(a) and Fig. 8 in one run.

Sweeps the initial array size as one campaign on the experiment
engine, reporting for each size the simulated FPGA analysis latency,
the calibrated CPU model, and the estimated resource utilisation — the
full scaling story of the paper's evaluation.  With ``--workers N``
the seeded trials fan out over a local process pool; with a cache
directory re-runs are incremental; with ``--journal`` the run records a
resumable JSONL journal, and an interrupted study picks up where it
left off on the next invocation with the same flag.

Run with::

    python examples/scalability_study.py [--sizes 10 30 50 70 90]
        [--trials 3] [--seed 1] [--workers 4]
        [--cache-dir .repro-cache] [--journal scalability.jsonl]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.tables import format_table
from repro.baselines import model_cpu_time_us
from repro.campaign import (
    CampaignSpec,
    ExperimentCampaign,
    RunJournal,
    TrialCache,
    make_executor,
)
from repro.fpga import ResourceModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 30, 50, 70, 90])
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cache-dir", type=str, default=None)
    parser.add_argument(
        "--journal",
        type=str,
        default=None,
        help="resumable run journal; rerun with the same path to resume",
    )
    args = parser.parse_args()

    spec = CampaignSpec(
        name="scalability-study",
        algorithms=("qrm",),
        sizes=tuple(args.sizes),
        fills=(0.5,),
        n_seeds=args.trials,
        master_seed=args.seed,
        fpga=True,
    )
    journal = None
    if args.journal:
        journal = (
            RunJournal.resume(args.journal)
            if Path(args.journal).exists()
            else RunJournal.fresh(args.journal)
        )
    campaign = ExperimentCampaign(
        spec,
        executor=make_executor(args.workers),
        cache=TrialCache(args.cache_dir) if args.cache_dir else None,
        journal=journal,
    ).run()
    if journal is not None:
        journal.close()

    resource_model = ResourceModel()
    latency_rows = []
    resource_rows = []
    for size in args.sizes:
        aggregate = campaign.aggregate_for(size=size)
        cpu_us = model_cpu_time_us("qrm", size)
        fpga_us = aggregate.mean("fpga_us")
        latency_rows.append(
            [
                size,
                aggregate.mean("fpga_cycles"),
                fpga_us,
                cpu_us,
                cpu_us / fpga_us,
                aggregate.mean("iterations"),
                aggregate.mean("target_fill"),
            ]
        )

        utilisation = resource_model.estimate(size).utilisation()
        resource_rows.append(
            [
                size,
                utilisation["LUT"],
                utilisation["FF"],
                utilisation["BRAM"],
            ]
        )

    print(
        format_table(
            [
                "size",
                "fpga_cycles",
                "fpga_us",
                "cpu_model_us",
                "speedup",
                "iters",
                "target fill",
            ],
            latency_rows,
            title="Analysis latency vs array size (Fig 7a)",
        )
    )
    print()
    print(
        format_table(
            ["size", "LUT %", "FF %", "BRAM %"],
            resource_rows,
            title=(f"Resource utilisation on {resource_model.device.name} (Fig 8)"),
        )
    )
    print()
    print(
        "Note how the FPGA latency grows by only ~4x across a 9x size\n"
        "sweep while the CPU model grows by ~300x — the scalability\n"
        "argument of the paper's conclusion."
    )


if __name__ == "__main__":
    main()
