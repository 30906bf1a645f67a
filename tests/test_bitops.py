"""Unit and property tests for repro.utils.bitops."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import PackingError, ParameterError
from repro.utils import bitops


class TestBits:
    def test_int_to_bits_little_endian(self):
        assert bitops.int_to_bits(6, 4) == [0, 1, 1, 0]

    def test_int_to_bits_reduces_modulo_width(self):
        assert bitops.int_to_bits(17, 4) == [1, 0, 0, 0]

    def test_bits_to_int_rejects_non_bits(self):
        with pytest.raises(ParameterError):
            bitops.bits_to_int([0, 2, 1])

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=64, max_value=80))
    def test_roundtrip_property(self, value, width):
        assert bitops.bits_to_int(bitops.int_to_bits(value, width)) == value

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200))
    def test_bits_bytes_roundtrip(self, bits):
        assert bitops.bytes_to_bits(bitops.bits_to_bytes(bits), len(bits)) == bits


class TestFieldPacking:
    def test_pack_then_unpack(self):
        values = [3, 0, 7, 5]
        packed = bitops.pack_fields(values, 3)
        assert bitops.unpack_fields(packed, 3, 4) == values

    def test_pack_rejects_overflowing_value(self):
        with pytest.raises(PackingError):
            bitops.pack_fields([8], 3)

    def test_unpack_extra_slots_are_zero(self):
        packed = bitops.pack_fields([5], 4)
        assert bitops.unpack_fields(packed, 4, 3) == [5, 0, 0]

    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(st.integers(min_value=0, max_value=2**width - 1), min_size=1, max_size=20),
            )
        )
    )
    def test_roundtrip_property(self, width_and_values):
        width, values = width_and_values
        packed = bitops.pack_fields(values, width)
        assert bitops.unpack_fields(packed, width, len(values)) == values


class TestXorBytes:
    def test_xor_is_involution(self):
        left, right = b"abcdef", b"zyxwvu"
        assert bitops.xor_bytes(bitops.xor_bytes(left, right), right) == left

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            bitops.xor_bytes(b"ab", b"abc")
