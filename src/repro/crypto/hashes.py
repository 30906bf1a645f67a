"""Hashing, HMAC, key-derivation helpers and the fixed-key permutation.

The e2e module derives symmetric keys through HKDF; the replay-defence, the
base OT and the garbler's output decode table use SHA-256 and HMAC from the
standard library.  The garbled-circuit gate pads and the IKNP pads are
hashes built from one fixed-key block cipher (:func:`fixed_key_permutation`,
AES-128 from the ``cryptography`` package), so a whole batch of them is one
C call.
"""

from __future__ import annotations

import hashlib
import hmac
import threading
from typing import Callable

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.exceptions import ParameterError

HASH_BYTES = 32

# The permutation's key is public and the same everywhere: the security of the
# hashes built on it rests on AES-128 under this key behaving as a random
# permutation, not on the key being secret.
FIXED_KEY = b"pretzel-fixedkey"
_contexts = threading.local()


def fixed_key_permutation() -> Callable[[bytes], bytes]:
    """π on every 16-byte block of its argument: AES-128 under :data:`FIXED_KEY`.

    Returns this thread's ECB encryptor's ``update``.  Building one costs far
    more than a block (the first in a process loads the library's cipher
    tables), and a context is not safe to share between threads, so each
    thread builds its own once.  Callers pass whole blocks only: ECB holds a
    partial block back, which would shift every later output of the context.
    """
    update = getattr(_contexts, "update", None)
    if update is None:
        encryptor = Cipher(algorithms.AES(FIXED_KEY), modes.ECB()).encryptor()
        update = _contexts.update = encryptor.update
    return update


def sha256(*parts: bytes) -> bytes:
    """SHA-256 over the concatenation of *parts*."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def sha256_int(*parts: bytes) -> int:
    """SHA-256 interpreted as a big-endian integer (used for Fiat–Shamir challenges)."""
    return int.from_bytes(sha256(*parts), "big")


def hmac_sha256(key: bytes, *parts: bytes) -> bytes:
    """HMAC-SHA-256 over the concatenation of *parts*."""
    mac = hmac.new(key, digestmod=hashlib.sha256)
    for part in parts:
        mac.update(part)
    return mac.digest()


def constant_time_equal(left: bytes, right: bytes) -> bool:
    """Constant-time comparison for MACs and tags."""
    return hmac.compare_digest(left, right)


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract (RFC 5869) with SHA-256."""
    if not salt:
        salt = b"\x00" * HASH_BYTES
    return hmac_sha256(salt, input_key_material)


def hkdf_expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand (RFC 5869) with SHA-256."""
    if length <= 0 or length > 255 * HASH_BYTES:
        raise ParameterError("requested HKDF output length out of range")
    blocks = []
    previous = b""
    counter = 1
    while sum(len(block) for block in blocks) < length:
        previous = hmac_sha256(pseudo_random_key, previous, info, bytes([counter]))
        blocks.append(previous)
        counter += 1
    return b"".join(blocks)[:length]


def hkdf(input_key_material: bytes, info: bytes, length: int, salt: bytes = b"") -> bytes:
    """One-shot HKDF (extract-then-expand)."""
    return hkdf_expand(hkdf_extract(salt, input_key_material), info, length)


def hash_to_group_element(data: bytes, modulus: int) -> int:
    """Hash arbitrary bytes to an integer in ``[1, modulus)``.

    Used by the oblivious-transfer protocol to derive one-time pads from
    Diffie–Hellman shared values and by the DH parameter-agreement step
    (§3.3 footnote 3) to turn a joint transcript into group parameters.
    """
    if modulus <= 2:
        raise ParameterError("modulus too small")
    counter = 0
    needed_bytes = (modulus.bit_length() + 7) // 8 + 8
    stream = b""
    while len(stream) < needed_bytes:
        stream += sha256(data, counter.to_bytes(4, "big"))
        counter += 1
    return 1 + int.from_bytes(stream[:needed_bytes], "big") % (modulus - 1)
