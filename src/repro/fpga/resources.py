"""FPGA resource-utilisation model (paper Fig. 8).

Per-module parametric estimates of LUT/FF/BRAM consumption.  The paper
reports linear LUT/FF growth with array size (6.31 % LUT and 6.19 % FF
at 90x90 on the ZU49DR) and flat BRAM; it also notes that roughly half
the logic sits in the four QPMs and the other half in the output
integration logic.  The linear coefficients below are calibrated to
those anchors and split across modules accordingly; BRAM counts follow
from buffer geometry (a quadrant line buffer of Qw^2 bits fits one
36 kb BRAM for every size the paper sweeps, hence the flat curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.fpga.device import DEFAULT_DEVICE, FpgaDevice

#: Calibration anchors: total LUT/FF at W = 10 and W = 90 (Fig. 8).
_LUT_ANCHORS = ((10, 4253.0), (90, 26835.0))  # 1.0 % and 6.31 % of ZU49DR
_FF_ANCHORS = ((10, 7655.0), (90, 52650.0))  # 0.9 % and 6.19 %

#: Fraction of the logic attributed to each block (Sec. V-C: the four
#: QPMs take about half, output integration most of the rest).
_MODULE_SPLIT = {
    "load_data": 0.12,
    "quadrant_processors": 0.50,
    "row_combination": 0.18,
    "output_concat": 0.12,
    "axi_control": 0.08,
}

_BRAM36_BITS = 36 * 1024


def _linear(anchors: tuple[tuple[int, float], ...], size: int) -> float:
    (w1, y1), (w2, y2) = anchors
    slope = (y2 - y1) / (w2 - w1)
    return y1 + slope * (size - w1)


@dataclass(frozen=True)
class ModuleResources:
    """Estimated resources of one hardware block."""

    name: str
    luts: int
    flip_flops: int
    bram_36k: int


@dataclass
class ResourceReport:
    """Estimated utilisation of the whole accelerator at one array size."""

    size: int
    device: FpgaDevice
    modules: list[ModuleResources] = field(default_factory=list)

    @property
    def total_luts(self) -> int:
        return sum(m.luts for m in self.modules)

    @property
    def total_ffs(self) -> int:
        return sum(m.flip_flops for m in self.modules)

    @property
    def total_brams(self) -> int:
        return sum(m.bram_36k for m in self.modules)

    def utilisation(self) -> dict[str, float]:
        return self.device.utilisation(
            self.total_luts, self.total_ffs, self.total_brams
        )

    def format_table(self) -> str:
        lines = [
            f"resource estimate, {self.size}x{self.size} array on "
            f"{self.device.name}",
            f"{'module':<22}{'LUT':>10}{'FF':>10}{'BRAM36':>8}",
        ]
        for module in self.modules:
            lines.append(
                f"{module.name:<22}{module.luts:>10}{module.flip_flops:>10}"
                f"{module.bram_36k:>8}"
            )
        util = self.utilisation()
        lines.append(
            f"{'total':<22}{self.total_luts:>10}{self.total_ffs:>10}"
            f"{self.total_brams:>8}"
        )
        lines.append(
            f"{'utilisation %':<22}{util['LUT']:>10.2f}{util['FF']:>10.2f}"
            f"{util['BRAM']:>8.2f}"
        )
        return "\n".join(lines)


class ResourceModel:
    """Parametric resource estimator for the QRM accelerator."""

    def __init__(self, device: FpgaDevice = DEFAULT_DEVICE):
        self.device = device

    def _bram_per_quadrant(self, size: int) -> int:
        """Column buffer + command buffer + line FIFO per quadrant."""
        qw = size // 2
        line_buffer_bits = qw * qw
        per_buffer = max(1, math.ceil(line_buffer_bits / _BRAM36_BITS))
        return 2 * per_buffer + 1

    def estimate(self, size: int) -> ResourceReport:
        """Estimate the accelerator's resources for a ``size x size`` array."""
        if size < 2 or size % 2:
            raise ConfigurationError(f"array size must be even and >= 2, got {size}")
        total_luts = _linear(_LUT_ANCHORS, size)
        total_ffs = _linear(_FF_ANCHORS, size)

        modules: list[ModuleResources] = []
        bram_map = {
            "load_data": 4,  # one input line buffer per Load Vector unit
            "quadrant_processors": 4 * self._bram_per_quadrant(size),
            "row_combination": 4,  # the four command FIFOs
            "output_concat": 8,  # packet assembly double buffers
            "axi_control": 4,
        }
        for name, fraction in _MODULE_SPLIT.items():
            modules.append(
                ModuleResources(
                    name=name,
                    luts=int(round(total_luts * fraction)),
                    flip_flops=int(round(total_ffs * fraction)),
                    bram_36k=bram_map[name],
                )
            )
        return ResourceReport(size=size, device=self.device, modules=modules)

    def sweep(self, sizes: list[int]) -> list[ResourceReport]:
        return [self.estimate(size) for size in sizes]
