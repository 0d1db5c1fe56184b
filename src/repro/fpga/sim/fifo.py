"""Bounded FIFOs with occupancy statistics for the dataflow simulator.

These model the HLS stream channels between the accelerator's modules;
bounded capacity gives back-pressure, whose effects (pipeline stalls)
show up directly in the cycle counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import SimulationError


@dataclass
class FifoStats:
    total_pushed: int = 0
    total_popped: int = 0
    max_occupancy: int = 0
    stall_cycles: int = 0


class Fifo:
    """A bounded first-in-first-out channel between two modules."""

    def __init__(self, name: str, capacity: int = 64):
        if capacity < 1:
            raise SimulationError(f"fifo '{name}' needs capacity >= 1")
        self.name = name
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self.stats = FifoStats()

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item: Any) -> bool:
        """Append ``item``; returns False (and records a stall) when full."""
        if self.full:
            self.stats.stall_cycles += 1
            return False
        self._items.append(item)
        self.stats.total_pushed += 1
        self.stats.max_occupancy = max(self.stats.max_occupancy, len(self._items))
        return True

    def pop(self) -> Any:
        """Remove and return the head item; None when empty."""
        if not self._items:
            return None
        self.stats.total_popped += 1
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Fifo({self.name}, {len(self._items)}/{self.capacity})"
