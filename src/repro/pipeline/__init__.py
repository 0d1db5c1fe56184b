"""Closed-loop camera -> detect -> schedule -> AWG -> replay pipeline.

The streaming data path of the paper's FPGA architecture, run to
completion frame by frame.  See :mod:`repro.pipeline.stages` for the
per-frame stage functions and :mod:`repro.pipeline.engine` for the
driver.
"""

from repro.pipeline.engine import PipelineResult, run_pipeline
from repro.pipeline.stages import (
    CycleRecord,
    PipelineConfig,
    ShotResult,
    run_shot,
    spawn_shot_streams,
)

__all__ = [
    "CycleRecord",
    "PipelineConfig",
    "PipelineResult",
    "ShotResult",
    "run_pipeline",
    "run_shot",
    "spawn_shot_streams",
]
