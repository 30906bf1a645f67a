"""Tests for the canonical protocol-message serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ParameterError
from repro.utils.serialization import canonical_dumps, canonical_loads


SIMPLE_VALUES = [
    None,
    True,
    False,
    0,
    -1,
    12345678901234567890,
    -(2**200),
    b"",
    b"\x00\xff bytes",
    "",
    "unicode κείμενο",
    3.14159,
    [],
    [1, "two", b"three", None],
    {},
    {"a": 1, "b": [2, 3], "c": {"nested": True}},
]


class TestRoundtrip:
    @pytest.mark.parametrize("value", SIMPLE_VALUES)
    def test_known_values(self, value):
        assert canonical_loads(canonical_dumps(value)) == value

    def test_tuples_become_lists(self):
        assert canonical_loads(canonical_dumps((1, 2))) == [1, 2]

    def test_dict_key_order_is_canonical(self):
        a = canonical_dumps({"x": 1, "y": 2})
        b = canonical_dumps({"y": 2, "x": 1})
        assert a == b

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.binary(max_size=64),
                st.text(max_size=32),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=5),
                st.dictionaries(st.text(max_size=8), children, max_size=5),
            ),
            max_leaves=20,
        )
    )
    def test_roundtrip_property(self, value):
        assert canonical_loads(canonical_dumps(value)) == value


class TestErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(ParameterError):
            canonical_dumps(object())

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(ParameterError):
            canonical_dumps({1: "x"})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ParameterError):
            canonical_loads(canonical_dumps(1) + b"junk")

    def test_truncated_input_rejected(self):
        encoded = canonical_dumps([1, 2, 3])
        with pytest.raises(ParameterError):
            canonical_loads(encoded[:-2])

    def test_unknown_tag_rejected(self):
        with pytest.raises(ParameterError):
            canonical_loads(b"Z")


