"""Timing models and measurement helpers."""

from repro.timing.latency import measure_wall

__all__ = ["measure_wall"]
