"""Physical motion-time model for executed schedules.

The paper accelerates the *analysis* step (computing the schedule), but a
full control-loop budget also needs the time the atoms spend moving:
tweezer pick-up, frequency-ramped transport, and hand-off back to the
static trap.  The defaults below follow the orders of magnitude quoted in
the multi-tweezer literature (hundreds of microseconds per elementary
move) — they make the point the paper's introduction makes: moving atoms
is slow, so the analysis must not add to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aod.schedule import MoveSchedule
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MoveTimingModel:
    """Per-move physical timing parameters (microseconds).

    Attributes
    ----------
    pickup_us / drop_us:
        Amplitude ramp to transfer atoms between static (SLM) traps and
        the mobile AOD tweezers.
    transfer_us_per_site:
        Frequency-ramp time to translate the tweezer grid by one lattice
        site.
    settle_us:
        Dead time between consecutive parallel moves.
    """

    pickup_us: float = 300.0
    drop_us: float = 300.0
    transfer_us_per_site: float = 50.0
    settle_us: float = 20.0

    def __post_init__(self) -> None:
        for name in ("pickup_us", "drop_us", "transfer_us_per_site", "settle_us"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    def steps_duration_us(self, steps: int) -> float:
        """Duration of one parallel move of ``steps`` sites."""
        return self.pickup_us + steps * self.transfer_us_per_site + self.drop_us

    def schedule_motion_us(self, schedule: MoveSchedule) -> float:
        """Total wall time for the atoms to execute ``schedule``.

        Read off the schedule's table; summed move by move in order.
        """
        if not len(schedule):
            return 0.0
        steps = schedule.table().steps.tolist()
        total = sum(map(self.steps_duration_us, steps))
        total += self.settle_us * (len(schedule) - 1)
        return total


DEFAULT_MOVE_TIMING = MoveTimingModel()
