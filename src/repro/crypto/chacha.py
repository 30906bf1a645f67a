"""ChaCha20 stream cipher (RFC 8439), implemented from scratch.

The e2e module (§2.2 of the paper uses GPG; see DESIGN.md for the
substitution) encrypts email bodies with ChaCha20 under a per-message key
derived from an ElGamal KEM, then authenticates with HMAC-SHA256
(encrypt-then-MAC).  ChaCha20 is a pure ARX design, so a faithful and
reasonably fast pure-Python implementation is practical.
"""

from __future__ import annotations

import os

import numpy as np

from repro.crypto.hashes import constant_time_equal, hkdf, hmac_sha256
from repro.exceptions import IntegrityError, ParameterError

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def _quarter_round_vec(state: np.ndarray, a: int, b: int, c: int, d: int) -> None:
    """The ARX quarter round over a (16, blocks) uint32 state matrix.

    uint32 arithmetic wraps mod 2**32 natively, so the scalar masking
    disappears; rotations are two shifts and an OR.
    """
    state[a] += state[b]
    x = state[d] ^ state[a]
    state[d] = (x << np.uint32(16)) | (x >> np.uint32(16))
    state[c] += state[d]
    x = state[b] ^ state[c]
    state[b] = (x << np.uint32(12)) | (x >> np.uint32(20))
    state[a] += state[b]
    x = state[d] ^ state[a]
    state[d] = (x << np.uint32(8)) | (x >> np.uint32(24))
    state[c] += state[d]
    x = state[b] ^ state[c]
    state[b] = (x << np.uint32(7)) | (x >> np.uint32(25))


def _keystream(key: bytes, nonce: bytes, initial_counter: int, block_count: int) -> bytes:
    """*block_count* consecutive keystream blocks, all rounds vectorized.

    Every block shares the same 20 rounds, so the whole run is 16 uint32
    lanes of length *block_count* — the same batched-transform trick the NTT
    uses.  Output is bit-identical, block by block, to the scalar RFC 8439
    block function the tests keep in ``tests/oracles.py``.
    """
    state = np.empty((16, block_count), dtype=np.uint32)
    state[:4] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    state[4:12] = np.frombuffer(key, dtype="<u4").astype(np.uint32)[:, None]
    state[12] = np.arange(initial_counter, initial_counter + block_count, dtype=np.uint64).astype(
        np.uint32
    )
    state[13:] = np.frombuffer(nonce, dtype="<u4").astype(np.uint32)[:, None]
    working = state.copy()
    for _ in range(10):
        # Column rounds.
        _quarter_round_vec(working, 0, 4, 8, 12)
        _quarter_round_vec(working, 1, 5, 9, 13)
        _quarter_round_vec(working, 2, 6, 10, 14)
        _quarter_round_vec(working, 3, 7, 11, 15)
        # Diagonal rounds.
        _quarter_round_vec(working, 0, 5, 10, 15)
        _quarter_round_vec(working, 1, 6, 11, 12)
        _quarter_round_vec(working, 2, 7, 8, 13)
        _quarter_round_vec(working, 3, 4, 9, 14)
    working += state
    # Serialize block-major: block i is its 16 words, each little-endian.
    return working.T.astype("<u4").tobytes()


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, initial_counter: int = 1) -> bytes:
    """Encrypt or decrypt *data* with the ChaCha20 keystream (XOR is symmetric)."""
    if len(key) != 32:
        raise ParameterError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ParameterError("ChaCha20 nonce must be 12 bytes")
    if not data:
        return b""
    block_count = (len(data) + 63) // 64
    if not (0 <= initial_counter and initial_counter + block_count <= 2**32):
        raise ParameterError("ChaCha20 block counter out of range")
    keystream = np.frombuffer(
        _keystream(key, nonce, initial_counter, block_count), dtype=np.uint8
    )
    plain = np.frombuffer(data, dtype=np.uint8)
    return (plain ^ keystream[: len(data)]).tobytes()


# ---------------------------------------------------------------------------
# A minimal sealed-blob AEAD (encrypt-then-MAC), for data at rest
# ---------------------------------------------------------------------------
#: First byte of every sealed blob.  Anything else — in particular the first
#: byte of a legacy plaintext checkpoint — is refused outright, never
#: misparsed as ciphertext.
SEALED_VERSION = 1
_NONCE_BYTES = 12
_TAG_BYTES = 32


def seal(key: bytes, plaintext: bytes, info: bytes = b"pretzel-sealed-blob") -> bytes:
    """Authenticated encryption of *plaintext* under *key* (32 bytes).

    The same encrypt-then-MAC construction the e2e mail layer uses, packaged
    for data at rest (checkpoint files): independent ChaCha20 and
    HMAC-SHA256 keys are derived from *key* via HKDF with *info* as the
    domain separator, and the blob is ``version | nonce | ciphertext | tag``
    with the version byte and nonce under the MAC.
    """
    if len(key) != 32:
        raise ParameterError("seal key must be 32 bytes")
    nonce = os.urandom(_NONCE_BYTES)
    encryption_key = hkdf(key, info + b"-enc", 32)
    mac_key = hkdf(key, info + b"-mac", 32)
    ciphertext = chacha20_xor(encryption_key, nonce, plaintext)
    tag = hmac_sha256(mac_key, bytes([SEALED_VERSION]), nonce, ciphertext)
    return bytes([SEALED_VERSION]) + nonce + ciphertext + tag


def open_sealed(key: bytes, blob: bytes, info: bytes = b"pretzel-sealed-blob") -> bytes:
    """Verify and decrypt a :func:`seal` blob; raises on any damage.

    Raises :class:`~repro.exceptions.IntegrityError` when the blob is too
    short, carries an unknown version byte (e.g. it is a legacy plaintext
    file), or fails MAC verification — the caller never sees unauthenticated
    plaintext.
    """
    if len(key) != 32:
        raise ParameterError("seal key must be 32 bytes")
    if len(blob) < 1 + _NONCE_BYTES + _TAG_BYTES:
        raise IntegrityError(f"sealed blob truncated at {len(blob)} bytes")
    if blob[0] != SEALED_VERSION:
        raise IntegrityError(
            f"unknown sealed-blob version {blob[0]} (a plaintext legacy blob is refused)"
        )
    nonce = blob[1 : 1 + _NONCE_BYTES]
    ciphertext = blob[1 + _NONCE_BYTES : -_TAG_BYTES]
    tag = blob[-_TAG_BYTES:]
    mac_key = hkdf(key, info + b"-mac", 32)
    expected = hmac_sha256(mac_key, blob[:1], nonce, ciphertext)
    if not constant_time_equal(tag, expected):
        raise IntegrityError("sealed blob failed authentication")
    encryption_key = hkdf(key, info + b"-enc", 32)
    return chacha20_xor(encryption_key, nonce, ciphertext)
