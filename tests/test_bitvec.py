"""Tests for the fixed-width bit vectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.fpga.bitvec import BitVector


class TestConstruction:
    def test_from_bits_lsb_first(self):
        vec = BitVector.from_bits([True, False, True])
        assert vec.width == 3
        assert vec.value == 0b101

    def test_from_array(self):
        vec = BitVector.from_array(np.array([0, 1, 1], dtype=bool))
        assert vec.value == 0b110

    def test_value_masked_to_width(self):
        assert BitVector(2, 0b111).value == 0b11

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            BitVector(4, -1)

    def test_negative_width_rejected(self):
        with pytest.raises(SimulationError):
            BitVector(-1, 0)


class TestQueries:
    def test_get_and_lsb(self):
        vec = BitVector(4, 0b0110)
        assert not vec.get(0)
        assert vec.get(1)
        assert not vec.lsb

    def test_lsb_of_empty_raises(self):
        with pytest.raises(SimulationError):
            BitVector(0, 0).lsb

    def test_get_out_of_range(self):
        with pytest.raises(SimulationError):
            BitVector(4, 0).get(4)

    def test_any(self):
        assert BitVector(8, 0).any() is False
        assert BitVector(8, 1).any() is True

    def test_round_trips(self):
        bits = [True, False, False, True, True]
        vec = BitVector.from_bits(bits)
        assert vec.to_bools() == bits
        assert list(vec) == bits
        assert len(vec) == 5


class TestTransforms:
    def test_set_bit(self):
        vec = BitVector(4, 0b0001).set(2, True)
        assert vec.value == 0b0101
        vec = vec.set(0, False)
        assert vec.value == 0b0100

    def test_shift_right_drops_lsb(self):
        assert BitVector(4, 0b1011).shift_right().value == 0b101

    def test_reversed(self):
        assert BitVector.from_bits([True, False, False]).reversed().value == 0b100

    def test_concat_other_high(self):
        low = BitVector(2, 0b01)
        high = BitVector(2, 0b11)
        combined = low.concat(high)
        assert combined.width == 4
        assert combined.value == 0b1101

    def test_slice(self):
        vec = BitVector(6, 0b110100)
        assert vec.slice(2, 5).value == 0b101

    def test_slice_bounds(self):
        with pytest.raises(SimulationError):
            BitVector(4, 0).slice(1, 6)

    def test_immutability(self):
        vec = BitVector(4, 0b0001)
        vec.set(3, True)
        assert vec.value == 0b0001


class TestDunders:
    def test_equality_and_hash(self):
        a = BitVector(4, 5)
        b = BitVector(4, 5)
        c = BitVector(5, 5)
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_repr_shows_bits(self):
        assert "101" in repr(BitVector(3, 0b101))
