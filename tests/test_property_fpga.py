"""Property tests for the register-level bit vectors."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.fpga.bitvec import BitVector

bit_lists = st.lists(st.booleans(), min_size=1, max_size=80)


@given(bit_lists)
def test_bitvector_round_trip(bits):
    vec = BitVector.from_bits(bits)
    assert vec.to_bools() == bits


@given(bit_lists)
def test_bitvector_reverse_involution(bits):
    vec = BitVector.from_bits(bits)
    assert vec.reversed().reversed() == vec


@given(bit_lists, st.integers(0, 10))
def test_shift_right_drops_low_bits(bits, n):
    vec = BitVector.from_bits(bits)
    shifted = vec.shift_right(n)
    expected = bits[n:] + [False] * min(n, len(bits))
    assert shifted.to_bools() == expected


@given(bit_lists, bit_lists)
def test_concat_width_and_content(low_bits, high_bits):
    low = BitVector.from_bits(low_bits)
    high = BitVector.from_bits(high_bits)
    combined = low.concat(high)
    assert combined.width == low.width + high.width
    assert combined.to_bools() == low_bits + high_bits
