"""Register-transfer-level model of the Shift Kernel (paper Fig. 6).

One kernel lane scans a quadrant-local row bit by bit: every cycle the
row register's LSB is inspected, the pre-shift bit is streamed into the
matching column buffer (the row-to-column transpose of Fig. 6), a shift
command bit is latched ('1' when the inspected site is an atom-backed
hole), and the register shifts right so the next bit reaches the LSB in
the next stage.  An ``s_en`` mask can block stages far from the centre
from ever issuing shifts — the paper's manual-control mechanism.

The pipelined wrapper staggers several rows through the stages (one new
row per cycle, as in Fig. 6(a) where three rows are in flight after
three cycles) purely to reproduce and visualise the pipeline occupancy;
the per-row semantics are identical.

Unit tests assert that the command bits produced here match the
vectorised functional scan (:func:`repro.core.scan.scan_line`) for every
input — this is the bit-exactness link between the hardware model and
the golden scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.fpga.bitvec import BitVector


@dataclass(frozen=True)
class StageTrace:
    """State of one scan stage for one row (for Fig. 6-style rendering)."""

    stage: int
    register_before: BitVector
    lsb: bool
    command: bool
    register_after: BitVector


@dataclass
class RowScanTrace:
    """Full per-stage trace of one row through the kernel."""

    row: int
    input_bits: BitVector
    stages: list[StageTrace] = field(default_factory=list)

    def hole_positions(self) -> tuple[int, ...]:
        return tuple(stage.stage for stage in self.stages if stage.command)


class ShiftKernelLane:
    """Scans rows of width ``qw``, one bit per stage."""

    def __init__(self, qw: int, s_en_mask: BitVector | None = None):
        if qw < 1:
            raise SimulationError(f"kernel width must be >= 1, got {qw}")
        self.qw = qw
        if s_en_mask is None:
            s_en_mask = BitVector(qw, (1 << qw) - 1)
        if s_en_mask.width != qw:
            raise SimulationError(
                f"s_en mask width {s_en_mask.width} != kernel width {qw}"
            )
        self.s_en_mask = s_en_mask
        self.column_buffers: list[list[bool]] = [[] for _ in range(qw)]

    def reset_buffers(self) -> None:
        self.column_buffers = [[] for _ in range(self.qw)]

    def scan_row(self, bits: BitVector, row: int = 0) -> RowScanTrace:
        """Scan one row and return its per-stage trace.

        Side effect: appends the pre-shift bit of each stage to the
        matching column buffer (the transpose stream).
        """
        if bits.width != self.qw:
            raise SimulationError(f"row width {bits.width} != kernel width {self.qw}")
        trace = RowScanTrace(row=row, input_bits=bits)
        register = bits
        for stage in range(self.qw):
            lsb = register.lsb
            # An atom-backed hole: LSB clear while atoms remain outboard.
            atoms_outboard = register.shift_right(1).any()
            command = (not lsb) and atoms_outboard and self.s_en_mask.get(stage)
            self.column_buffers[stage].append(lsb)
            after = register.shift_right(1)
            trace.stages.append(
                StageTrace(
                    stage=stage,
                    register_before=register,
                    lsb=lsb,
                    command=command,
                    register_after=after,
                )
            )
            register = after
        return trace

    def column_stream(self) -> list[BitVector]:
        """Column buffers as bit vectors (column v across scanned rows)."""
        return [BitVector.from_bits(buf) for buf in self.column_buffers]


@dataclass(frozen=True)
class PipelineSnapshot:
    """Which row occupies which stage at one cycle (Fig. 6 rendering)."""

    cycle: int
    occupancy: tuple[tuple[int, int], ...]  # (row, stage) pairs in flight
    completed_rows: tuple[int, ...]


class PipelinedShiftKernel:
    """Staggered multi-row view of one kernel lane (II = 1).

    Row ``r`` enters at cycle ``r`` and occupies stage ``c - r`` at cycle
    ``c``; it completes after ``qw`` stages.  Used by tests and the
    Fig. 6 trace example; cycle accounting in the accelerator model uses
    the same depth figure.
    """

    def __init__(self, qw: int):
        self.lane = ShiftKernelLane(qw)
        self.qw = qw
        self.traces: list[RowScanTrace] = []

    def process(self, rows: list[BitVector]) -> list[RowScanTrace]:
        self.lane.reset_buffers()
        self.traces = [
            self.lane.scan_row(bits, row=index) for index, bits in enumerate(rows)
        ]
        return self.traces

    def latency_cycles(self, n_rows: int, extra_depth: int = 0) -> int:
        """Cycles from first row entering to last row leaving."""
        if n_rows <= 0:
            return 0
        return (n_rows - 1) + self.qw + extra_depth

    def snapshot(self, cycle: int) -> PipelineSnapshot:
        """Pipeline occupancy at ``cycle`` for the last processed batch."""
        in_flight = []
        completed = []
        for row in range(len(self.traces)):
            stage = cycle - row
            if stage < 0:
                continue
            if stage >= self.qw:
                completed.append(row)
            else:
                in_flight.append((row, stage))
        return PipelineSnapshot(
            cycle=cycle,
            occupancy=tuple(in_flight),
            completed_rows=tuple(completed),
        )

    def render_snapshot(self, cycle: int) -> str:
        """Fig. 6-style text rendering of the pipeline at ``cycle``."""
        snap = self.snapshot(cycle)
        lines = [f"cycle {cycle}: rows in flight {len(snap.occupancy)}"]
        for row, stage in snap.occupancy:
            trace = self.traces[row]
            state = trace.stages[stage]
            reg = "".join("1" if b else "0" for b in state.register_before.to_bools())
            cmds = "".join("1" if s.command else "0" for s in trace.stages[: stage + 1])
            lines.append(
                f"  row {row}: stage {stage}, register {reg}, "
                f"commands so far {cmds or '-'}"
            )
        if snap.completed_rows:
            lines.append(
                "  completed rows: " + ", ".join(str(r) for r in snap.completed_rows)
            )
        return "\n".join(lines)
