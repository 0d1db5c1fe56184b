"""Tests for the dataflow simulation substrate."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.fpga.sim import (
    Fifo,
    PipelineModule,
    RateConsumerModule,
    Simulator,
    SourceModule,
)


class TestFifo:
    def test_push_pop_order(self):
        fifo = Fifo("f", 4)
        for i in range(3):
            assert fifo.push(i)
        assert [fifo.pop(), fifo.pop(), fifo.pop()] == [0, 1, 2]

    def test_capacity_and_stall_stats(self):
        fifo = Fifo("f", 2)
        assert fifo.push(1) and fifo.push(2)
        assert not fifo.push(3)
        assert fifo.stats.stall_cycles == 1
        assert fifo.full

    def test_pop_empty_returns_none(self):
        assert Fifo("f", 1).pop() is None

    def test_occupancy_stats(self):
        fifo = Fifo("f", 8)
        for i in range(5):
            fifo.push(i)
        fifo.pop()
        assert fifo.stats.max_occupancy == 5
        assert fifo.stats.total_popped == 1

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Fifo("f", 0)


class TestSourceModule:
    def test_respects_ready_times(self):
        out = Fifo("out", 8)
        source = SourceModule("src", out)
        source.load([(0, "a"), (3, "b")])
        sim = Simulator()
        sim.add_module(source)
        sim.add_fifo(out)
        result = sim.run()
        # 'b' cannot be emitted before cycle 3; run ends after cycle 3.
        assert result.cycles == 4
        assert out.pop() == "a"
        assert out.pop() == "b"

    def test_one_token_per_cycle(self):
        out = Fifo("out", 8)
        source = SourceModule("src", out)
        source.load([(0, i) for i in range(5)])
        sim = Simulator()
        sim.add_module(source)
        result = sim.run()
        assert result.cycles == 5


class TestPipelineModule:
    def _build(self, n_tokens, depth):
        sim = Simulator()
        inp = sim.new_fifo("in", 64)
        out = sim.new_fifo("out", 64)
        source = SourceModule("src", inp)
        source.load([(0, i) for i in range(n_tokens)])
        pipe = PipelineModule("pipe", inp, out, depth)
        pipe.set_upstream_done(lambda: source.done)
        sim.add_module(source)
        sim.add_module(pipe)
        return sim, out, pipe

    def test_latency_is_depth_plus_stream(self):
        sim, out, _ = self._build(n_tokens=10, depth=5)
        result = sim.run()
        # Last token enters at ~cycle 10, leaves depth cycles later.
        assert 14 <= result.cycles <= 17
        assert len(out) == 10

    def test_single_token_latency(self):
        sim, out, _ = self._build(n_tokens=1, depth=7)
        result = sim.run()
        assert 7 <= result.cycles <= 9

    def test_transform_applied(self):
        sim = Simulator()
        inp = sim.new_fifo("in", 8)
        out = sim.new_fifo("out", 8)
        source = SourceModule("src", inp)
        source.load([(0, 2), (0, 3)])
        pipe = PipelineModule("pipe", inp, out, 2, transform=lambda x: x * 10)
        pipe.set_upstream_done(lambda: source.done)
        sim.add_module(source)
        sim.add_module(pipe)
        sim.run()
        assert out.pop() == 20
        assert out.pop() == 30


class TestRateConsumer:
    def test_consumes_everything(self):
        sim = Simulator()
        inp = sim.new_fifo("in", 64)
        source = SourceModule("src", inp)
        source.load([(0, i) for i in range(6)])
        consumer = RateConsumerModule("sink", inp, out=None)
        consumer.set_upstream_done(lambda: source.done)
        sim.add_module(source)
        sim.add_module(consumer)
        sim.run()
        assert consumer.consumed == 6

    def test_forwards_downstream(self):
        sim = Simulator()
        inp = sim.new_fifo("in", 8)
        out = sim.new_fifo("out", 8)
        source = SourceModule("src", inp)
        source.load([(0, "x")])
        consumer = RateConsumerModule("mid", inp, out, latency=2)
        consumer.set_upstream_done(lambda: source.done)
        sim.add_module(source)
        sim.add_module(consumer)
        sim.run()
        assert out.pop() == "x"


class TestSimulator:
    def test_empty_simulation_finishes(self):
        assert Simulator().run().cycles == 0

    def test_deadlock_detection(self):
        sim = Simulator(max_cycles=100)
        inp = sim.new_fifo("in", 1)
        consumer = RateConsumerModule("sink", inp, out=None)
        consumer.set_upstream_done(lambda: False)  # never done
        sim.add_module(consumer)
        with pytest.raises(DeadlockError):
            sim.run()

    def test_module_busy_stats(self):
        sim = Simulator()
        inp = sim.new_fifo("in", 8)
        source = SourceModule("src", inp)
        source.load([(0, 1), (0, 2)])
        consumer = RateConsumerModule("sink", inp, out=None)
        consumer.set_upstream_done(lambda: source.done)
        sim.add_module(source)
        sim.add_module(consumer)
        result = sim.run()
        assert result.module_busy["src"] == 2
        assert "in" in result.fifo_stats
