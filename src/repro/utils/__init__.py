"""Shared utilities: bit manipulation, deterministic randomness, timing, serialization."""

from repro.utils.bitops import (
    bits_to_int,
    int_to_bits,
    pack_fields,
    unpack_fields,
)
from repro.utils.rand import DeterministicRandom, secure_randbelow, secure_randbits
from repro.utils.serialization import canonical_dumps, canonical_loads

__all__ = [
    "bits_to_int",
    "int_to_bits",
    "pack_fields",
    "unpack_fields",
    "DeterministicRandom",
    "secure_randbelow",
    "secure_randbits",
    "canonical_dumps",
    "canonical_loads",
]
