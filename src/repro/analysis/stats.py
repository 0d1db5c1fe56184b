"""Multi-trial aggregation helpers for the experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Mean/std/min/max of a sample."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if not values:
            return cls(math.nan, math.nan, math.nan, math.nan, 0)
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        return cls(mean, math.sqrt(var), min(values), max(values), n)


@dataclass(frozen=True)
class FillStats:
    """Assembly quality of one algorithm at one operating point."""

    algorithm: str
    size: int
    fill: float
    mean_target_fill: float
    success_probability: float
    mean_moves: float
    trials: int

