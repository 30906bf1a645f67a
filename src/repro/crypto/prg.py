"""Pseudorandom generation: HMAC-DRBG style PRG and a simple PRF.

The BV cryptosystem samples its noise and its uniform polynomials from a
seeded PRG so that ciphertexts can be regenerated deterministically in tests;
the base OT pads its messages with the PRF.  (The IKNP extension and the
garbler expand their seeds through SHAKE-256 directly, see
:mod:`repro.crypto.ot` and :mod:`repro.crypto.garbled`.)
"""

from __future__ import annotations

import hashlib
import hmac

from repro.exceptions import ParameterError


class Prg:
    """Deterministic byte stream from a seed (HMAC-SHA256 in counter mode)."""

    def __init__(self, seed: bytes, domain: bytes = b"repro-prg") -> None:
        if not seed:
            raise ParameterError("PRG seed must be non-empty")
        self._key = hmac.new(domain, seed, hashlib.sha256).digest()
        self._counter = 0
        self._buffer = b""

    def read(self, length: int) -> bytes:
        """Return the next *length* pseudorandom bytes."""
        if length < 0:
            raise ParameterError("length must be non-negative")
        if len(self._buffer) < length:
            # hmac.digest is a one-shot C path (~3x faster than hmac.new) and
            # the block list avoids quadratic bytes concatenation; the output
            # stream is identical.
            blocks = [self._buffer]
            produced = len(self._buffer)
            while produced < length:
                block = hmac.digest(
                    self._key, self._counter.to_bytes(8, "big"), hashlib.sha256
                )
                self._counter += 1
                blocks.append(block)
                produced += len(block)
            self._buffer = b"".join(blocks)
        out, self._buffer = self._buffer[:length], self._buffer[length:]
        return out


def prf(key: bytes, message: bytes, length: int = 32) -> bytes:
    """``HMAC(key, message || counter)`` blocks for counter 0, 1, ... cut to *length*."""
    if length <= 0:
        raise ParameterError("length must be positive")
    if length <= 32:  # one block: every label- and seed-sized pad
        return hmac.digest(key, message + bytes(4), "sha256")[:length]
    blocks = [
        hmac.digest(key, message + counter.to_bytes(4, "big"), "sha256")
        for counter in range(-(-length // 32))
    ]
    return b"".join(blocks)[:length]
