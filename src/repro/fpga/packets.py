"""1024-bit DDR packet counts, as used on the accelerator's AXI link.

"To enhance data transmission efficiency, we pack 1024-bit data into one
packet to move the data from DDR memory into our accelerator" — the
cycle model charges the occupancy bitfield (input side) and the
movement records (output side) by the packets they fill.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError


def packets_needed(n_bits: int, packet_bits: int = 1024) -> int:
    """Number of fixed-width packets needed for ``n_bits`` of payload."""
    if packet_bits < 1:
        raise SimulationError(f"packet_bits must be >= 1, got {packet_bits}")
    return max(1, math.ceil(n_bits / packet_bits)) if n_bits else 0
