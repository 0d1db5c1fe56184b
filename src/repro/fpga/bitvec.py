"""Fixed-width bit vectors for the register-level hardware models.

The HLS design manipulates rows as ``ap_uint<Qw>`` registers; this class
mirrors that behaviour (integer-backed, fixed width, LSB = index 0 = the
site closest to the array centre) so the register-level shift-kernel
model reads like the hardware it describes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import SimulationError


class BitVector:
    """An immutable fixed-width bit vector (LSB first)."""

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int = 0):
        if width < 0:
            raise SimulationError(f"width must be >= 0, got {width}")
        if value < 0:
            raise SimulationError("BitVector value must be non-negative")
        self.width = width
        self.value = value & ((1 << width) - 1 if width else 0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bits(cls, bits: Iterable[bool]) -> "BitVector":
        value = 0
        width = 0
        for i, bit in enumerate(bits):
            if bit:
                value |= 1 << i
            width = i + 1
        return cls(width, value)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "BitVector":
        return cls.from_bits(bool(b) for b in np.asarray(array, dtype=bool))

    # -- queries -----------------------------------------------------------

    def get(self, index: int) -> bool:
        self._check_index(index)
        return bool((self.value >> index) & 1)

    @property
    def lsb(self) -> bool:
        if self.width == 0:
            raise SimulationError("empty BitVector has no LSB")
        return bool(self.value & 1)

    def any(self) -> bool:
        return self.value != 0

    def to_bools(self) -> list[bool]:
        return [bool((self.value >> i) & 1) for i in range(self.width)]

    # -- transforms (all return new vectors) --------------------------------

    def set(self, index: int, bit: bool) -> "BitVector":
        self._check_index(index)
        if bit:
            return BitVector(self.width, self.value | (1 << index))
        return BitVector(self.width, self.value & ~(1 << index))

    def shift_right(self, n: int = 1) -> "BitVector":
        """Drop the ``n`` lowest bits (the hardware's scan shift)."""
        return BitVector(self.width, self.value >> n)

    def reversed(self) -> "BitVector":
        return BitVector.from_bits(reversed(self.to_bools()))

    def concat(self, other: "BitVector") -> "BitVector":
        """``other`` becomes the high bits: result = other:self."""
        return BitVector(
            self.width + other.width, self.value | (other.value << self.width)
        )

    def slice(self, start: int, stop: int) -> "BitVector":
        if not 0 <= start <= stop <= self.width:
            raise SimulationError(f"slice [{start}:{stop}] outside width {self.width}")
        mask = (1 << (stop - start)) - 1
        return BitVector(stop - start, (self.value >> start) & mask)

    # -- dunders -------------------------------------------------------------

    def __iter__(self) -> Iterator[bool]:
        return iter(self.to_bools())

    def __len__(self) -> int:
        return self.width

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.width == other.width and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.width, self.value))

    def __repr__(self) -> str:
        bits = "".join("1" if b else "0" for b in self.to_bools())
        return f"BitVector({bits or '<empty>'})"

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.width:
            raise SimulationError(f"bit index {index} outside width {self.width}")
