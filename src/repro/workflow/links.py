"""Interconnect models for the control-system architectures (paper Fig. 2).

Each link charges a fixed per-transfer latency plus a bandwidth-limited
streaming time.  The values are representative datasheet numbers; the
comparison between architectures (a) and (b) depends on their orders of
magnitude, not their third digit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LinkModel:
    """A point-to-point interconnect."""

    name: str
    bandwidth_gbps: float
    latency_us: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConfigurationError("bandwidth_gbps must be positive")
        if self.latency_us < 0:
            raise ConfigurationError("latency_us must be >= 0")

    def transfer_us(self, n_bits: int | float) -> float:
        """Time to move ``n_bits`` across the link."""
        if n_bits < 0:
            raise ConfigurationError("n_bits must be >= 0")
        return self.latency_us + n_bits / (self.bandwidth_gbps * 1e3)


#: CoaXPress CXP-12, camera to frame-grabber FPGA.
COAXPRESS_12 = LinkModel("coaxpress-12", bandwidth_gbps=12.5, latency_us=5.0)

#: PCIe Gen3 x8, frame-grabber to host memory (effective).
PCIE_GEN3_X8 = LinkModel("pcie-gen3-x8", bandwidth_gbps=52.0, latency_us=2.0)

#: On-chip AXI to DDR (PL <-> PS of the RFSoC).
AXI_DDR = LinkModel("axi-ddr", bandwidth_gbps=128.0, latency_us=0.1)
