"""Cycle-level model of the FPGA rearrangement accelerator (paper Sec. IV)."""

from repro.fpga.accelerator import (
    AcceleratorReport,
    AcceleratorRun,
    QrmAccelerator,
)
from repro.fpga.axi import AxiTransferModel
from repro.fpga.bitvec import BitVector
from repro.fpga.config import DEFAULT_FPGA_CONFIG, FpgaConfig
from repro.fpga.device import DEFAULT_DEVICE, ZU49DR, FpgaDevice
from repro.fpga.packets import packets_needed
from repro.fpga.resources import ModuleResources, ResourceModel, ResourceReport
from repro.fpga.shift_kernel import (
    PipelinedShiftKernel,
    RowScanTrace,
    ShiftKernelLane,
)

__all__ = [
    "AcceleratorReport",
    "AcceleratorRun",
    "AxiTransferModel",
    "BitVector",
    "DEFAULT_DEVICE",
    "DEFAULT_FPGA_CONFIG",
    "FpgaConfig",
    "FpgaDevice",
    "ModuleResources",
    "PipelinedShiftKernel",
    "QrmAccelerator",
    "ResourceModel",
    "ResourceReport",
    "RowScanTrace",
    "ShiftKernelLane",
    "ZU49DR",
    "packets_needed",
]
