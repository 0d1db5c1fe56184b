"""Cycle-level synchronous dataflow simulation substrate.

The tick-by-tick core of :class:`repro.fpga.QrmAccelerator`'s cycle
model: the oracle its closed-form iteration cost is tested against, the
engine behind its cycle traces, and the path for iterations that
back-pressure.  Modules tick once per clock cycle in dataflow order and
exchange tokens through bounded FIFOs with back-pressure, mirroring the
paper's Fig. 5 HLS block diagram (LDM / QPM / Row Combination / OCM
connected by stream channels).  Time is integer *clock cycles* throughout — the
accelerator converts to microseconds via its configured clock — which
is what lets the closed-loop pipeline quote modelled hardware analysis
latency next to measured software stage times.
"""

from repro.fpga.sim.fifo import Fifo, FifoStats
from repro.fpga.sim.module import (
    Module,
    PipelineModule,
    RateConsumerModule,
    SourceModule,
)
from repro.fpga.sim.simulator import SimulationResult, Simulator
from repro.fpga.sim.trace import SimulationTrace, TraceSample

__all__ = [
    "Fifo",
    "FifoStats",
    "Module",
    "PipelineModule",
    "RateConsumerModule",
    "SimulationResult",
    "SimulationTrace",
    "Simulator",
    "SourceModule",
    "TraceSample",
]
