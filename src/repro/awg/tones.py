"""RF tone maps: lattice coordinates <-> AOD drive frequencies.

Each axis of the 2-D AOD deflects in proportion to its drive frequency,
so a lattice row/column index maps linearly onto an RF tone.  Moving the
tweezer grid by one site means chirping every active tone on the moving
axis by one ``spacing_mhz`` step.  All frequencies are in MHz; row
index 0 maps to ``base_mhz`` and indices increase towards higher
frequency on both axes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WaveformError


@dataclass(frozen=True)
class ToneMap:
    """Linear index-to-frequency map for one AOD axis."""

    base_mhz: float = 75.0
    spacing_mhz: float = 0.5
    n_sites: int = 256

    def __post_init__(self) -> None:
        if self.spacing_mhz <= 0:
            raise WaveformError("spacing_mhz must be positive")
        if self.n_sites < 1:
            raise WaveformError("n_sites must be >= 1")

    def frequency(self, index: int) -> float:
        """Drive frequency (MHz) for lattice index ``index``."""
        if not 0 <= index < self.n_sites:
            raise WaveformError(
                f"index {index} outside tone map range [0, {self.n_sites})"
            )
        return self.base_mhz + index * self.spacing_mhz

    def frequencies(self, indices: list[int]) -> list[float]:
        return [self.frequency(i) for i in indices]


@dataclass(frozen=True)
class AodToneConfig:
    """Tone maps for both AOD axes."""

    rows: ToneMap = ToneMap(base_mhz=75.0)
    cols: ToneMap = ToneMap(base_mhz=110.0)
