"""Bit- and byte-level helpers used throughout the crypto and packing layers.

The packing scheme of §4.2 of the paper treats an AHE plaintext as a sequence
of fixed-width fields; :func:`pack_fields` / :func:`unpack_fields` implement
that layout over Python integers.  The garbled-circuit layer uses
:func:`int_to_bits` / :func:`bits_to_int` to move between integers and the
little-endian bit lists that circuits consume.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PackingError, ParameterError


def int_to_bits(value: int, width: int) -> list[int]:
    """Little-endian bit decomposition of *value*, exactly *width* bits.

    Values are reduced modulo ``2**width``; this is the convention that the
    boolean-circuit layer expects (arithmetic mod 2^width).
    """
    if width <= 0:
        raise ParameterError("width must be positive")
    value %= 1 << width
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: list[int]) -> int:
    """Inverse of :func:`int_to_bits` (little-endian bit list to integer)."""
    result = 0
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ParameterError(f"bit at index {index} is not 0/1: {bit!r}")
        result |= bit << index
    return result


def pack_fields(values: list[int], field_bits: int) -> int:
    """Pack non-negative field values into one integer, field 0 least significant.

    Each value must fit in *field_bits* bits.  This is the single-ciphertext
    layout used by the GLLM packing optimisation (§4.2): slot ``i`` occupies
    bits ``[i*field_bits, (i+1)*field_bits)``.
    """
    if field_bits <= 0:
        raise ParameterError("field_bits must be positive")
    packed = 0
    limit = 1 << field_bits
    for index, value in enumerate(values):
        if not 0 <= value < limit:
            raise PackingError(
                f"value {value} at slot {index} does not fit in {field_bits} bits"
            )
        packed |= value << (index * field_bits)
    return packed


def unpack_fields(packed: int, field_bits: int, count: int) -> list[int]:
    """Unpack *count* fields of *field_bits* bits each from an integer."""
    if field_bits <= 0:
        raise ParameterError("field_bits must be positive")
    if count < 0:
        raise ParameterError("count must be non-negative")
    mask = (1 << field_bits) - 1
    return [(packed >> (index * field_bits)) & mask for index in range(count)]


def bits_to_bytes(bits: list[int]) -> bytes:
    """Pack a little-endian bit list into bytes (final byte zero-padded)."""
    return np.packbits(np.asarray(bits, dtype=bool), bitorder="little").tobytes()


def bytes_to_bits(data: bytes, count: int | None = None) -> list[int]:
    """Expand bytes into a little-endian bit list, optionally truncated to *count*."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    if count is not None:
        if count > len(bits):
            raise ParameterError("requested more bits than the data contains")
        bits = bits[:count]
    return bits.tolist()


def xor_bytes(left: bytes, right: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(left) != len(right):
        raise ParameterError(
            f"xor_bytes operands differ in length: {len(left)} vs {len(right)}"
        )
    return (int.from_bytes(left, "big") ^ int.from_bytes(right, "big")).to_bytes(len(left), "big")
