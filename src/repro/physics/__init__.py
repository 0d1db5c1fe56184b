"""Physical loss models for the rearrangement process."""

from repro.physics.loss import (
    DEFAULT_LOSS_MODEL,
    LossModel,
    LossReport,
    simulate_losses,
)

__all__ = [
    "DEFAULT_LOSS_MODEL",
    "LossModel",
    "LossReport",
    "simulate_losses",
]
