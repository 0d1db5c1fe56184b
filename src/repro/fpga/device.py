"""FPGA device catalogue for the resource-utilisation model.

The paper deploys on a Zynq UltraScale+ RFSoC ZCU216 evaluation board,
whose XCZU49DR device provides the resource budget against which Fig. 8
reports percentages.  Another part's budget is one more
:class:`FpgaDevice` passed to the resource model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FpgaDevice:
    """Resource budget of one FPGA part."""

    name: str
    luts: int
    flip_flops: int
    bram_36k: int
    dsp_slices: int

    def __post_init__(self) -> None:
        for field_name in ("luts", "flip_flops", "bram_36k", "dsp_slices"):
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(f"{field_name} must be positive")

    def utilisation(self, luts: float, ffs: float, brams: float) -> dict[str, float]:
        """Percent utilisation of each resource class."""
        return {
            "LUT": 100.0 * luts / self.luts,
            "FF": 100.0 * ffs / self.flip_flops,
            "BRAM": 100.0 * brams / self.bram_36k,
        }


#: XCZU49DR — the RFSoC on the ZCU216 board used in the paper.
ZU49DR = FpgaDevice(
    name="xczu49dr",
    luts=425_280,
    flip_flops=850_560,
    bram_36k=1080,
    dsp_slices=4272,
)

DEFAULT_DEVICE = ZU49DR
