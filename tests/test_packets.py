"""Tests for the DDR packet count."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.fpga.packets import packets_needed


class TestPacketsNeeded:
    def test_exact_fit(self):
        assert packets_needed(1024) == 1
        assert packets_needed(2048) == 2

    def test_partial_packet(self):
        assert packets_needed(1025) == 2
        assert packets_needed(1) == 1

    def test_zero_bits(self):
        assert packets_needed(0) == 0

    def test_paper_sizes(self):
        assert packets_needed(50 * 50) == 3
        assert packets_needed(90 * 90) == 8
        assert packets_needed(10 * 10) == 1

    def test_invalid_packet_width(self):
        with pytest.raises(SimulationError):
            packets_needed(10, packet_bits=0)
