"""Crossed-AOD move model: primitives, constraints, execution, timing."""

from repro.aod.constraints import (
    AodConstraints,
    CROSS_PICKUP,
    DEFAULT_CONSTRAINTS,
    EMPTY_MOVE,
    LEAD_COLLISION,
    OUT_OF_BOUNDS,
    TONE_BUDGET,
    Violation,
    check_parallel_move,
)
from repro.aod.executor import (
    ExecutionReport,
    apply_parallel_move,
    execute_schedule,
)
from repro.aod.move import LineShift, ParallelMove
from repro.aod.schedule import MoveSchedule
from repro.aod.serialize import (
    loads as schedule_from_json,
    dumps as schedule_to_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.aod.table import ScheduleTable
from repro.aod.timing import DEFAULT_MOVE_TIMING, MoveTimingModel
from repro.aod.validator import ValidationReport, validate_schedule

__all__ = [
    "AodConstraints",
    "CROSS_PICKUP",
    "DEFAULT_CONSTRAINTS",
    "DEFAULT_MOVE_TIMING",
    "EMPTY_MOVE",
    "ExecutionReport",
    "LEAD_COLLISION",
    "LineShift",
    "MoveSchedule",
    "MoveTimingModel",
    "OUT_OF_BOUNDS",
    "ParallelMove",
    "ScheduleTable",
    "TONE_BUDGET",
    "ValidationReport",
    "Violation",
    "apply_parallel_move",
    "check_parallel_move",
    "execute_schedule",
    "schedule_from_dict",
    "schedule_from_json",
    "schedule_to_dict",
    "schedule_to_json",
    "validate_schedule",
]
