"""repro — reproduction of the DATE 2025 FPGA neutral-atom rearrangement
accelerator (Quadrant-based Rearrangement Method, QRM).

Public API highlights
---------------------
``ArrayGeometry`` / ``AtomArray`` / ``load_uniform``
    the trap-array substrate;
``get_algorithm`` / ``schedule_batch``
    the algorithm registry (resolve any scheduler by name) and the
    batch-first dispatch that amortises analysis across trials;
``QrmScheduler``
    the paper's algorithm, emitting validated ``MoveSchedule`` objects
    (one engine: ``schedule`` is a batch of one, ``schedule_batch``
    stacks same-geometry arrays into one analysis);
``QrmAccelerator``
    the cycle-level FPGA model reporting latency at 250 MHz;
``validate_schedule``
    independent replay/validation of any schedule;
``run_fig7a`` / ``run_fig7b`` / ``run_fig8``
    regeneration of every evaluation figure in the paper
    (in :mod:`repro.analysis`);
``CampaignSpec`` / ``ExperimentCampaign``
    the parallel experiment-campaign engine: declarative scenario
    grids, seeded trials, process-pool execution, and an incremental
    on-disk trial cache (in :mod:`repro.campaign`).
"""

from repro.aod import (
    AodConstraints,
    LineShift,
    MoveSchedule,
    ParallelMove,
    execute_schedule,
    validate_schedule,
)
from repro.baselines import get_algorithm, schedule_batch
from repro.campaign import CampaignSpec, ExperimentCampaign, run_campaign
from repro.config import DEFAULT_QRM_PARAMETERS, QrmParameters, ScanMode
from repro.core import QrmScheduler, RearrangementResult, TypicalScheduler
from repro.lattice import (
    ArrayGeometry,
    AtomArray,
    Direction,
    Quadrant,
    Region,
    load_uniform,
    render_array,
    render_side_by_side,
)

__version__ = "1.0.0"

__all__ = [
    "AodConstraints",
    "ArrayGeometry",
    "AtomArray",
    "CampaignSpec",
    "DEFAULT_QRM_PARAMETERS",
    "ExperimentCampaign",
    "Direction",
    "LineShift",
    "MoveSchedule",
    "ParallelMove",
    "Quadrant",
    "QrmParameters",
    "QrmScheduler",
    "RearrangementResult",
    "Region",
    "ScanMode",
    "TypicalScheduler",
    "__version__",
    "execute_schedule",
    "get_algorithm",
    "load_uniform",
    "render_array",
    "run_campaign",
    "render_side_by_side",
    "schedule_batch",
    "validate_schedule",
]
