"""Randomness helpers.

Two flavours are provided:

* ``secure_*`` functions draw from :mod:`secrets` and are used by the actual
  cryptographic code (key generation, blinding noise, wire labels).
* :class:`DeterministicRandom` is a seeded, reproducible source used by the
  synthetic corpus generators and by tests/benchmarks that need repeatable
  workloads.  It is *never* used for key material.
"""

from __future__ import annotations

import hashlib
import random
import secrets

import numpy as np

from repro.exceptions import ParameterError


def secure_randbits(bits: int) -> int:
    """Uniform random integer with at most *bits* bits (cryptographic source)."""
    if bits <= 0:
        raise ParameterError("bits must be positive")
    return secrets.randbits(bits)


def secure_randbelow(upper: int) -> int:
    """Uniform random integer in ``[0, upper)`` (cryptographic source)."""
    if upper <= 0:
        raise ParameterError("upper bound must be positive")
    return secrets.randbelow(upper)


def secure_bytes(length: int) -> bytes:
    """Cryptographically random byte string of the given length."""
    if length < 0:
        raise ParameterError("length must be non-negative")
    return secrets.token_bytes(length)


def secure_uniform_array(upper: int, count: int, prg=None) -> np.ndarray:
    """*count* independent uniform integers in ``[0, upper)``, as an int64 ndarray.

    Only power-of-two bounds up to 2^63 are supported (the blinding bounds
    are always powers of two): each value is the top bits of one
    little-endian 8-byte read, so there is no rejection.  *prg* (any object
    with a ``read(num_bytes) -> bytes`` method, e.g.
    :class:`repro.crypto.prg.Prg`) replaces :mod:`secrets` as the byte
    source, so batched and sequential draws from one stream agree value for
    value; the tests check that against the list form in ``tests/oracles.py``.
    """
    if upper <= 0:
        raise ParameterError("upper bound must be positive")
    if count < 0:
        raise ParameterError("count must be non-negative")
    bits = upper.bit_length() - 1
    if upper != 1 << bits or bits >= 64:
        raise ParameterError("vectorised uniform draws require a power-of-two bound < 2^64")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if bits == 0:
        return np.zeros(count, dtype=np.int64)
    raw_bytes = secrets.token_bytes(8 * count) if prg is None else prg.read(8 * count)
    raw = np.frombuffer(raw_bytes, dtype="<u8")
    return (raw >> np.uint64(64 - bits)).astype(np.int64)


class DeterministicRandom(random.Random):
    """Seedable randomness for workload generation.

    A thin subclass of :class:`random.Random` that derives its seed from an
    arbitrary string label, so that independent generators (e.g. "spam-corpus"
    vs "topic-corpus") do not share a stream even when given the same integer
    seed by the caller.
    """

    def __init__(self, seed: int = 0, label: str = "") -> None:
        digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
        super().__init__(int.from_bytes(digest[:8], "big"))
        self._seed = seed
        self._label = label

    def fork(self, sublabel: str) -> "DeterministicRandom":
        """Derive an independent stream for a sub-component."""
        return DeterministicRandom(self._seed, f"{self._label}/{sublabel}")

    def zipf_index(self, size: int, exponent: float = 1.1) -> int:
        """Sample an index in ``[0, size)`` with a Zipf-like distribution.

        Word frequencies in natural language are approximately Zipfian; the
        synthetic corpora use this to get realistic feature sparsity.
        """
        if size <= 0:
            raise ParameterError("size must be positive")
        # Inverse-CDF sampling over a truncated zeta distribution would require
        # the normalisation constant; a rejection-free approximation that is
        # good enough for workload generation is to transform a uniform draw.
        u = self.random()
        # Map u in (0,1) to a rank with density ~ rank^-exponent.
        rank = int(size * (u ** exponent))
        return min(size - 1, rank)
