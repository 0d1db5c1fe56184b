"""QRM core: scan kernel, pass batching, schedulers, repair stage."""

from repro.core.passes import (
    Phase,
    PassOutcome,
    batch_order_key,
    run_pass,
    run_pass_reference,
)
from repro.core.qrm import QrmScheduler, QrmSchedulerReference
from repro.core.repair import RepairOutcome, repair_defects
from repro.core.result import IterationStats, RearrangementResult
from repro.core.scan import (
    LineScanResult,
    QuadrantScan,
    scan_axis,
    scan_line,
    scan_quadrant,
)
from repro.core.typical import TypicalScheduler

__all__ = [
    "IterationStats",
    "LineScanResult",
    "PassOutcome",
    "Phase",
    "QrmScheduler",
    "QrmSchedulerReference",
    "QuadrantScan",
    "RearrangementResult",
    "RepairOutcome",
    "TypicalScheduler",
    "batch_order_key",
    "repair_defects",
    "run_pass",
    "run_pass_reference",
    "scan_axis",
    "scan_line",
    "scan_quadrant",
]
