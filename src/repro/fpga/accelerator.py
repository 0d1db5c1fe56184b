"""Top-level QRM accelerator model (paper Fig. 5).

Layering:

* **function** — the movement schedule is produced by the same code path
  as the pure-Python golden scheduler (:class:`~repro.core.qrm.QrmScheduler`
  with the paper's pipelined parameters), so the accelerator's output is
  bit-identical to the golden model by construction.  The hardware-truth
  link is tested separately: the register-level shift kernel
  (:mod:`repro.fpga.shift_kernel`) is asserted bit-exact against the
  functional scan.
* **cycles** — the Fig. 5 pipeline (4x Load Vector -> 4x Shift Kernel
  -> 4x Recorder -> Row Combination -> Output Concatenation -> AXI) is
  costed per iteration in closed form from the two passes' per-line
  command counts (:meth:`QrmAccelerator._closed_form_iteration`); its
  cycle count, plus the AXI/DDR transfer and PS-control overheads, gives
  the reported latency at the configured 250 MHz clock.  The closed form
  holds while no stream channel back-pressures, which the default
  config guarantees; an iteration it cannot vouch for (a combiner
  draining fewer than four lanes per cycle, or a merged FIFO that would
  overflow) runs on the tick-by-tick dataflow simulation with real FIFOs
  (:meth:`QrmAccelerator._simulate_iteration_reference`).  That
  simulation is also the closed form's test oracle and drives
  :meth:`QrmAccelerator.trace_iteration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.config import DEFAULT_QRM_PARAMETERS, QrmParameters
from repro.core.passes import PassOutcome, Phase
from repro.core.qrm import QrmScheduler
from repro.core.result import RearrangementResult
from repro.errors import SimulationError
from repro.fpga.axi import AxiTransferModel
from repro.fpga.config import DEFAULT_FPGA_CONFIG, FpgaConfig
from repro.fpga.output_concat import AxiWriteSink, OutputConcatUnit
from repro.fpga.packets import packets_needed
from repro.fpga.quadrant_processor import build_lane, iteration_tokens
from repro.fpga.row_combination import RowCombinationUnit
from repro.fpga.sim import Simulator
from repro.lattice.array import AtomArray
from repro.lattice.geometry import ArrayGeometry, Quadrant


@dataclass
class AcceleratorReport:
    """Cycle-level accounting of one accelerator invocation."""

    size: int
    clock_mhz: float
    control_cycles: int
    load_cycles: int
    iteration_cycles: list[int] = field(default_factory=list)
    writeback_cycles: int = 0
    n_input_packets: int = 0
    n_output_packets: int = 0
    n_records: int = 0
    module_busy: dict[str, int] = field(default_factory=dict)
    fifo_stats: dict[str, dict] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return (
            self.control_cycles
            + self.load_cycles
            + sum(self.iteration_cycles)
            + self.writeback_cycles
        )

    @property
    def time_us(self) -> float:
        return self.total_cycles / self.clock_mhz

    def summary(self) -> str:
        iters = " + ".join(str(c) for c in self.iteration_cycles)
        return (
            f"{self.size}x{self.size}: {self.total_cycles} cycles "
            f"({self.time_us:.2f} us @ {self.clock_mhz:.0f} MHz) = "
            f"ctrl {self.control_cycles} + load {self.load_cycles} + "
            f"iters [{iters}] + writeback {self.writeback_cycles}; "
            f"{self.n_input_packets} pkts in, {self.n_output_packets} pkts out"
        )


class IterationStats(NamedTuple):
    """Cycle accounting of one iteration (row pass, then column pass)."""

    cycles: int
    module_busy: dict[str, int]
    fifo_stats: dict[str, dict]
    records: int
    packets: int


@dataclass
class AcceleratorRun:
    """Functional result plus the cycle-level report."""

    result: RearrangementResult
    report: AcceleratorReport

    @property
    def schedule(self):
        return self.result.schedule


class QrmAccelerator:
    """Cycle-level model of the FPGA rearrangement accelerator."""

    def __init__(
        self,
        geometry: ArrayGeometry,
        params: QrmParameters = DEFAULT_QRM_PARAMETERS,
        config: FpgaConfig = DEFAULT_FPGA_CONFIG,
    ):
        if geometry.width != geometry.height:
            raise SimulationError("the accelerator model assumes a square array")
        self.geometry = geometry
        self.params = params
        self.config = config
        self.scheduler = QrmScheduler(geometry, params)
        self.axi = AxiTransferModel(setup_cycles=config.axi_setup_cycles)

    # -- cycle model -------------------------------------------------------

    def _closed_form_iteration(self, row_pass, col_pass) -> IterationStats | None:
        """One iteration's cycle accounting, computed without ticking.

        With every lane scanning ``Qw`` rows then ``Qw`` columns and
        nothing stalling, the four lanes run in lockstep: token ``i``
        leaves every recorder at cycle ``Qw + extra + recorder_latency +
        i`` and the combiner pushes merged token ``i`` one cycle later,
        carrying one record per lane whose line emitted a command.  The
        packer pops merged token ``k`` only after emitting every full
        packet the tokens before it filled, ``E_k = bits_before_k //
        packet_bits`` of them, so ``k + E_k`` cycles after the first
        push; the merged FIFO holds what was pushed and not yet popped.
        The iteration ends one cycle after the last packet leaves.

        Returns None, leaving the iteration to
        :meth:`_simulate_iteration_reference`, when the combiner drains
        fewer than the four lanes per cycle or the merged FIFO would
        overflow (back-pressure); both invalidate the lockstep timing.
        """
        config = self.config
        if config.combiner_per_cycle < len(Quadrant):
            return None
        qw = self.geometry.half_width
        idle = [0] * qw
        rows, cols = row_pass.line_commands, col_pass.line_commands
        lines = np.array([[rows.get(q, idle), cols.get(q, idle)] for q in Quadrant])
        records = np.count_nonzero(lines.reshape(len(Quadrant), -1), axis=0)
        n_tokens = records.size
        bits_before = (np.cumsum(records) - records) * config.record_bits
        # Merged token k is pushed k cycles after the first push and
        # popped k + E_k cycles after it.  Occupancy right after push k
        # is k + 1 minus the pops of earlier cycles (a pop in push k's
        # own cycle comes after it).
        pushes = np.arange(n_tokens)
        pops = pushes + bits_before // config.packet_bits
        peak = int(np.max(pushes + 1 - np.searchsorted(pops, pushes)))
        if peak > config.fifo_depth:
            return None

        n_records = int(records.sum())
        n_packets = -(-n_records * config.record_bits // config.packet_bits)
        first_push = (
            qw + config.kernel_pipeline_depth_extra + config.recorder_latency + 1
        )
        module_busy: dict[str, int] = {}
        fifo_stats: dict[str, dict] = {}
        for quadrant in Quadrant:
            name = quadrant.value.lower()
            for stage in ("load_vector", "shift_kernel", "recorder"):
                module_busy[f"{name}.{stage}"] = n_tokens
            for channel in ("to_kernel", "to_recorder", "records"):
                fifo_stats[f"{name}.{channel}"] = _fifo_stats(n_tokens, 1)
        module_busy["row_combination"] = n_tokens
        module_busy["ocm"] = n_tokens + n_packets
        module_busy["axi_write"] = n_packets
        fifo_stats["merged"] = _fifo_stats(n_tokens, peak)
        fifo_stats["out_packets"] = _fifo_stats(n_packets, min(n_packets, 1))
        return IterationStats(
            cycles=first_push + n_tokens + n_packets,
            module_busy=module_busy,
            fifo_stats=fifo_stats,
            records=n_records,
            packets=n_packets,
        )

    def _simulate_iteration_reference(
        self, row_pass, col_pass, trace_every: int | None = None
    ):
        """Tick the Fig. 5 dataflow through one iteration.

        Returns the iteration's :class:`IterationStats` and, with
        ``trace_every`` set, the cycle trace (else None).
        """
        config = self.config
        qw = self.geometry.half_width
        sim = Simulator()
        trace = sim.attach_trace(trace_every) if trace_every else None

        lanes = []
        for quadrant in Quadrant:
            tokens = iteration_tokens(quadrant, row_pass, col_pass, qw)
            lanes.append(build_lane(sim, quadrant, tokens, qw, config))

        merged = sim.new_fifo("merged", config.fifo_depth)
        packets = sim.new_fifo("out_packets", config.fifo_depth)

        combiner = RowCombinationUnit(
            "row_combination",
            lanes=[lane.out for lane in lanes],
            out=merged,
            per_cycle=config.combiner_per_cycle,
        )
        combiner.set_upstream_done(lambda: all(lane.recorder.done for lane in lanes))
        packer = OutputConcatUnit(
            "ocm",
            inp=merged,
            out=packets,
            record_bits=config.record_bits,
            packet_bits=config.packet_bits,
        )
        packer.set_upstream_done(lambda: combiner.done)
        sink = AxiWriteSink("axi_write", packets)
        sink.set_upstream_done(lambda: packer.done)

        sim.add_module(combiner)
        sim.add_module(packer)
        sim.add_module(sink)

        outcome = sim.run()
        stats = IterationStats(
            cycles=outcome.cycles,
            module_busy=outcome.module_busy,
            fifo_stats=outcome.fifo_stats,
            records=packer.records_packed,
            packets=packer.packets_emitted,
        )
        return stats, trace

    def _hardware_passes(self, result: RearrangementResult) -> list[PassOutcome]:
        """The schedule's passes as the hardware runs them, row/column pairs.

        The PL schedule is static: the hardware always runs the configured
        iteration count, scanning every line even when the algorithm has
        already converged.  Converged-early runs are padded with empty
        passes so the cycle count reflects the fixed hardware schedule.
        """
        passes = list(result.pass_outcomes)
        while len(passes) < 2 * self.params.n_iterations:
            passes.append(PassOutcome(phase=Phase.ROW))
            passes.append(PassOutcome(phase=Phase.COLUMN))
        return passes

    # -- public API ----------------------------------------------------------

    def run(self, array: AtomArray) -> AcceleratorRun:
        """Analyse ``array``: golden-function schedule + cycle report."""
        if array.geometry != self.geometry:
            raise SimulationError(
                "array geometry does not match the accelerator's geometry"
            )
        result = self.scheduler.schedule(array)
        passes = self._hardware_passes(result)

        config = self.config
        n_input_packets = packets_needed(self.geometry.n_sites, config.packet_bits)
        # Load: one AXI burst plus the four Load Vector flip pipelines
        # (2-stage) running at one packet per cycle.
        load_cycles = self.axi.transfer_cycles(n_input_packets) + 2

        report = AcceleratorReport(
            size=self.geometry.width,
            clock_mhz=config.clock_mhz,
            control_cycles=config.control_overhead_cycles,
            load_cycles=load_cycles,
            n_input_packets=n_input_packets,
        )

        for index in range(0, len(passes), 2):
            row_pass = passes[index]
            col_pass = passes[index + 1]
            stats = self._closed_form_iteration(row_pass, col_pass)
            if stats is None:
                stats, _ = self._simulate_iteration_reference(row_pass, col_pass)
            report.iteration_cycles.append(stats.cycles + config.inter_pass_cycles)
            report.n_records += stats.records
            report.n_output_packets += stats.packets
            for name, value in stats.module_busy.items():
                report.module_busy[name] = report.module_busy.get(name, 0) + value
            # Channel totals over the run: pushes and stalls add up, the
            # peak is the highest any iteration reached.
            for name, fifo in stats.fifo_stats.items():
                total = report.fifo_stats.setdefault(name, dict.fromkeys(fifo, 0))
                total["pushed"] += fifo["pushed"]
                total["stalls"] += fifo["stalls"]
                total["max_occupancy"] = max(
                    total["max_occupancy"], fifo["max_occupancy"]
                )

        # Final matrix write-back shares the output AXI channel.
        matrix_packets = packets_needed(self.geometry.n_sites, config.packet_bits)
        report.writeback_cycles = self.axi.transfer_cycles(matrix_packets)

        return AcceleratorRun(result=result, report=report)

    def latency_us(self, array: AtomArray) -> float:
        """Convenience: just the simulated analysis latency."""
        return self.run(array).report.time_us

    def trace_iteration(self, array: AtomArray, iteration: int = 0, every: int = 1):
        """Cycle trace of one iteration's dataflow (for inspection).

        Returns a :class:`~repro.fpga.sim.SimulationTrace` whose
        ``render_timeline()`` shows the FIFO occupancies of the Fig. 5
        pipeline filling and draining.
        """
        passes = self._hardware_passes(self.scheduler.schedule(array))
        index = 2 * iteration
        if not 0 <= index < len(passes):
            raise SimulationError(
                f"iteration {iteration} out of range "
                f"(run has {len(passes) // 2} iterations)"
            )
        _, trace = self._simulate_iteration_reference(
            passes[index], passes[index + 1], trace_every=every
        )
        return trace


def _fifo_stats(pushed: int, max_occupancy: int) -> dict:
    """A stall-free channel's statistics, in the simulator's layout."""
    return {"pushed": pushed, "max_occupancy": max_occupancy, "stalls": 0}
