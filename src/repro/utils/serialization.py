"""Canonical serialization for protocol messages.

Two-party protocol messages must have a well-defined byte size so the
benchmark harness can account for network transfers exactly as the paper does
(Figs. 3, 11, and the per-email overheads quoted in §6.1/§6.3).  We use a
small, self-contained tagged binary format rather than ``pickle`` so that the
byte counts are stable across Python versions and so that deserialization
never executes arbitrary code (these messages cross a trust boundary).

Supported value types: ``None``, ``bool``, ``int`` (arbitrary precision),
``bytes``, ``str``, ``float``, ``list``/``tuple`` and ``dict`` with string
keys.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable

from repro.exceptions import ParameterError, WireFormatError

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_NEGINT = b"J"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_FLOAT = b"D"
_TAG_LIST = b"L"
_TAG_DICT = b"M"


def _encode_length(length: int) -> bytes:
    return struct.pack(">Q", length)


def _encode(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        magnitude = abs(value)
        payload = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        out += _TAG_NEGINT if value < 0 else _TAG_INT
        out += _encode_length(len(payload))
        out += payload
    elif isinstance(value, bytes):
        out += _TAG_BYTES
        out += _encode_length(len(value))
        out += value
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out += _TAG_STR
        out += _encode_length(len(payload))
        out += payload
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += struct.pack(">d", value)
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST
        out += _encode_length(len(value))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        out += _TAG_DICT
        out += _encode_length(len(value))
        for key in sorted(value):
            if not isinstance(key, str):
                raise ParameterError("dict keys must be strings for canonical encoding")
            _encode(key, out)
            _encode(value[key], out)
    else:
        raise ParameterError(f"unsupported type for canonical encoding: {type(value)!r}")


def canonical_dumps(value: Any) -> bytes:
    """Serialize *value* into canonical bytes."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise ParameterError("truncated canonical encoding")
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def take_length(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]


def _decode(reader: _Reader) -> Any:
    tag = reader.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag in (_TAG_INT, _TAG_NEGINT):
        length = reader.take_length()
        magnitude = int.from_bytes(reader.take(length), "big")
        return -magnitude if tag == _TAG_NEGINT else magnitude
    if tag == _TAG_BYTES:
        return reader.take(reader.take_length())
    if tag == _TAG_STR:
        return reader.take(reader.take_length()).decode("utf-8")
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if tag == _TAG_LIST:
        count = reader.take_length()
        return [_decode(reader) for _ in range(count)]
    if tag == _TAG_DICT:
        count = reader.take_length()
        result = {}
        for _ in range(count):
            key = _decode(reader)
            result[key] = _decode(reader)
        return result
    raise ParameterError(f"unknown tag in canonical encoding: {tag!r}")


def canonical_loads(data: bytes) -> Any:
    """Deserialize canonical bytes produced by :func:`canonical_dumps`."""
    reader = _Reader(data)
    value = _decode(reader)
    if reader.offset != len(data):
        raise ParameterError("trailing bytes after canonical encoding")
    return value


# ---------------------------------------------------------------------------
# Fixed-width wire primitives
#
# The protocol frames of :mod:`repro.twopc.wire` need a tighter encoding than
# the tagged canonical format above (no per-value tags, 1/2/4-byte lengths
# instead of 8), so the frame codecs are built on these two helpers.  Both are
# deliberately dumb: big-endian fixed-width integers, length-prefixed blobs,
# and length-prefixed unsigned big integers.  Truncation always raises
# :class:`~repro.exceptions.WireFormatError` rather than returning short data.
# ---------------------------------------------------------------------------


class ByteWriter:
    """Append-only builder for fixed-width wire encodings."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def u8(self, value: int) -> "ByteWriter":
        self._check_range(value, 1 << 8)
        self._buffer += struct.pack(">B", value)
        return self

    def u16(self, value: int) -> "ByteWriter":
        self._check_range(value, 1 << 16)
        self._buffer += struct.pack(">H", value)
        return self

    def u32(self, value: int) -> "ByteWriter":
        self._check_range(value, 1 << 32)
        self._buffer += struct.pack(">I", value)
        return self

    def raw(self, data: bytes) -> "ByteWriter":
        """Append bytes verbatim (fixed-width fields whose size both sides know)."""
        self._buffer += data
        return self

    def blob(self, data: bytes) -> "ByteWriter":
        """Append a u32-length-prefixed byte string."""
        self.u32(len(data))
        self._buffer += data
        return self

    def blobs(self, items: Iterable[bytes]) -> "ByteWriter":
        """Append every item as :meth:`blob` would, in one pass over the buffer."""
        buffer = self._buffer
        try:
            for data in items:
                buffer += len(data).to_bytes(4, "big")
                buffer += data
        except OverflowError:
            raise ParameterError("blob too long for a u32 wire length") from None
        return self

    def big_uint(self, value: int) -> "ByteWriter":
        """Append a u32-length-prefixed big-endian non-negative integer."""
        if value < 0:
            raise ParameterError("big_uint cannot encode negative integers")
        payload = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        return self.blob(payload)

    @staticmethod
    def _check_range(value: int, bound: int) -> None:
        if not 0 <= value < bound:
            raise ParameterError(f"integer {value} outside [0, {bound}) for wire field")

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class ByteReader:
    """Sequential reader matching :class:`ByteWriter`'s encodings."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def raw(self, count: int) -> bytes:
        if count < 0 or self.offset + count > len(self.data):
            raise WireFormatError("truncated wire encoding")
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u8(self) -> int:
        return struct.unpack(">B", self.raw(1))[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.raw(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.raw(4))[0]

    def blob(self) -> bytes:
        return self.raw(self.u32())

    def blobs(self, count: int) -> list[bytes]:
        """Read *count* length-prefixed blobs (what *count* :meth:`blob` calls return)."""
        data, offset, end = self.data, self.offset, len(self.data)
        items = []
        for _ in range(count):
            start = offset + 4
            offset = start + int.from_bytes(data[offset:start], "big")
            if offset > end or start > end:
                raise WireFormatError("truncated wire encoding")
            items.append(data[start:offset])
        self.offset = offset
        return items

    def records(self, count: int, size: int) -> list[bytes]:
        """Read *count* fixed-width records of *size* bytes each."""
        body = self.raw(count * size)
        return [body[at : at + size] for at in range(0, len(body), size)]

    def big_uint(self) -> int:
        return int.from_bytes(self.blob(), "big")

    def expect_end(self) -> None:
        if self.offset != len(self.data):
            raise WireFormatError("trailing bytes after wire encoding")
