"""Configuration and calibration constants of the FPGA accelerator model.

The structural parameters (packet width, record width) come straight
from the paper; the small cycle constants (pipeline depth beyond the
bit-serial scan, hand-off cycles, control overhead) are calibration
values chosen so the simulated latency curve lands in the neighbourhood
of the paper's reported points (~0.8 us @ W=10, ~1.0 us @ W=50,
~1.9 us @ W=90 at 250 MHz).  EXPERIMENTS.md gives how near: the cycle
budget term by term, the residual against those points (-26%/+60%/+38%
at W=10/50/90), and the term behind the slope gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FpgaConfig:
    """Clock, bus and micro-architecture parameters.

    Attributes
    ----------
    clock_mhz:
        PL clock; the paper deploys at 250 MHz.
    packet_bits:
        DDR transfer packing ("we pack 1024-bit data into one packet").
    record_bits:
        Width of one movement record.  The recording unit writes each
        line shift as one word, LSB first: 2-bit direction (N, S, E, W),
        6-bit step count (1-63), then three 8-bit coordinates (line, span
        start, exclusive span stop), which cover arrays up to 256x256.
        The cycle model charges this width per record.
    kernel_pipeline_depth_extra:
        Register stages of the shift kernel beyond the ``Qw`` bit-serial
        scan stages.
    recorder_latency:
        Movement-recording unit latency per command word.
    combiner_per_cycle:
        Command streams the Row Combination Unit drains per cycle ("all
        four command buffers are processed at the same time").
    axi_setup_cycles:
        Burst setup for each DDR read/write.
    control_overhead_cycles:
        One-off PS-side trigger/flag handling per invocation.
    inter_pass_cycles:
        Hand-off bubbles between the row pass and column pass and
        between iterations.
    fifo_depth:
        Capacity of the inter-module stream channels.
    """

    clock_mhz: float = 250.0
    packet_bits: int = 1024
    record_bits: int = 32
    kernel_pipeline_depth_extra: int = 3
    recorder_latency: int = 1
    combiner_per_cycle: int = 4
    axi_setup_cycles: int = 16
    control_overhead_cycles: int = 24
    inter_pass_cycles: int = 1
    fifo_depth: int = 64

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ConfigurationError("clock_mhz must be positive")
        for name in (
            "packet_bits",
            "record_bits",
            "recorder_latency",
            "combiner_per_cycle",
            "fifo_depth",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        for name in (
            "kernel_pipeline_depth_extra",
            "axi_setup_cycles",
            "control_overhead_cycles",
            "inter_pass_cycles",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


DEFAULT_FPGA_CONFIG = FpgaConfig()
