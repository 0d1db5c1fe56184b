"""Published baseline algorithms and the shared algorithm registry."""

from repro.baselines.base import (
    DEFAULT_ALGORITHMS,
    RearrangementAlgorithm,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    resolve_algorithms,
    schedule_batch,
    supports_geometry,
    unregister_algorithm,
)
from repro.baselines.cost_model import (
    COST_MODELS,
    MTA1_COST,
    PSCA_COST,
    PowerLawCost,
    QRM_CPU_COST,
    TETRIS_COST,
    model_cpu_time_us,
)
from repro.baselines.mta1 import Mta1Scheduler
from repro.baselines.psca import PscaScheduler
from repro.baselines.tetris import TetrisScheduler

__all__ = [
    "COST_MODELS",
    "DEFAULT_ALGORITHMS",
    "MTA1_COST",
    "Mta1Scheduler",
    "PSCA_COST",
    "PowerLawCost",
    "PscaScheduler",
    "QRM_CPU_COST",
    "RearrangementAlgorithm",
    "TETRIS_COST",
    "TetrisScheduler",
    "get_algorithm",
    "list_algorithms",
    "model_cpu_time_us",
    "register_algorithm",
    "resolve_algorithms",
    "schedule_batch",
    "supports_geometry",
    "unregister_algorithm",
]
