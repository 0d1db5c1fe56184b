"""Cycle-by-cycle tracing of a dataflow simulation.

Attach a :class:`SimulationTrace` to a :class:`~repro.fpga.sim.Simulator`
before running and it records, per cycle, every FIFO's occupancy and
every module's cumulative busy count.  The text timeline rendering shows
where the pipeline fills, stalls and drains — the cheap cousin of a
waveform viewer for this repository's Fig. 5 model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceSample:
    """State snapshot at the end of one cycle."""

    cycle: int
    fifo_occupancy: dict[str, int]
    module_busy: dict[str, int]


@dataclass
class SimulationTrace:
    """Recorded samples of one simulation run."""

    every: int = 1
    samples: list[TraceSample] = field(default_factory=list)

    def record(self, cycle: int, fifos, modules) -> None:
        if cycle % self.every:
            return
        self.samples.append(
            TraceSample(
                cycle=cycle,
                fifo_occupancy={f.name: f.occupancy for f in fifos},
                module_busy={m.name: m.busy_cycles for m in modules},
            )
        )

    def occupancy_series(self, fifo_name: str) -> list[int]:
        """Occupancy of one FIFO over the sampled cycles."""
        return [s.fifo_occupancy.get(fifo_name, 0) for s in self.samples]

    def render_timeline(self, max_width: int = 72) -> str:
        """A text occupancy timeline, one row per FIFO.

        Each column is one sampled cycle (subsampled to ``max_width``);
        glyphs encode occupancy: '.' empty, digits 1-9, '#' for 10+.
        """
        if not self.samples:
            return "(empty trace)"
        names = sorted(self.samples[0].fifo_occupancy)
        stride = max(1, len(self.samples) // max_width)
        label_width = max(len(n) for n in names)
        lines = [
            f"{'cycle':<{label_width}}  0 .. {self.samples[-1].cycle} "
            f"(one column = {stride} sample(s))"
        ]
        for name in names:
            series = self.occupancy_series(name)[::stride]
            glyphs = []
            for value in series:
                if value <= 0:
                    glyphs.append(".")
                elif value < 10:
                    glyphs.append(str(value))
                else:
                    glyphs.append("#")
            lines.append(f"{name:<{label_width}}  {''.join(glyphs)}")
        return "\n".join(lines)
