"""Tests for the simulation trace and the accelerator timeline."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.fpga.accelerator import QrmAccelerator
from repro.fpga.sim import (
    RateConsumerModule,
    SimulationTrace,
    Simulator,
    SourceModule,
)
from repro.lattice.loading import load_uniform


def _traced_run(n_tokens=5, every=1):
    sim = Simulator()
    trace = sim.attach_trace(every)
    inp = sim.new_fifo("in", 8)
    source = SourceModule("src", inp)
    source.load([(0, i) for i in range(n_tokens)])
    sink = RateConsumerModule("sink", inp, out=None)
    sink.set_upstream_done(lambda: source.done)
    sim.add_module(source)
    sim.add_module(sink)
    result = sim.run()
    return trace, result


class TestSimulationTrace:
    def test_samples_every_cycle(self):
        trace, result = _traced_run(n_tokens=5)
        assert [s.cycle for s in trace.samples] == list(range(result.cycles))

    def test_subsampling(self):
        trace, result = _traced_run(n_tokens=8, every=2)
        assert len(trace.samples) == -(-result.cycles // 2)

    def test_occupancy_series_bounded(self):
        trace, _ = _traced_run(n_tokens=5)
        series = trace.occupancy_series("in")
        assert all(0 <= v <= 8 for v in series)

    def test_unknown_fifo_gives_zeros(self):
        trace, _ = _traced_run()
        assert set(trace.occupancy_series("nope")) == {0}

    def test_timeline_rendering(self):
        trace, _ = _traced_run(n_tokens=5)
        text = trace.render_timeline()
        assert "in" in text
        assert "cycle" in text

    def test_empty_trace_renders(self):
        assert "empty" in SimulationTrace().render_timeline()

    def test_module_busy_monotone(self):
        trace, _ = _traced_run(n_tokens=6)
        busy = [s.module_busy["src"] for s in trace.samples]
        assert busy == sorted(busy)


class TestAcceleratorTimeline:
    def test_trace_iteration(self, array20):
        accelerator = QrmAccelerator(array20.geometry)
        trace = accelerator.trace_iteration(array20, iteration=0)
        assert trace is not None
        assert trace.samples
        # The merged-record queue must actually see traffic.
        assert max(trace.occupancy_series("merged")) > 0
        text = trace.render_timeline()
        assert "merged" in text

    def test_trace_last_padded_iteration(self, geo8):
        from repro.lattice.array import AtomArray

        accelerator = QrmAccelerator(geo8)
        trace = accelerator.trace_iteration(AtomArray(geo8), iteration=3)
        assert trace.samples

    def test_iteration_out_of_range(self, array20):
        accelerator = QrmAccelerator(array20.geometry)
        with pytest.raises(SimulationError):
            accelerator.trace_iteration(array20, iteration=99)

    def test_trace_does_not_change_latency(self, geo20):
        array = load_uniform(geo20, 0.5, rng=3)
        base = QrmAccelerator(geo20).run(array).report.total_cycles
        accelerator = QrmAccelerator(geo20)
        accelerator.trace_iteration(array)
        again = accelerator.run(array).report.total_cycles
        assert base == again
