"""The Paillier cryptosystem — the baseline AHE of §3.3.

Paillier [96 in the paper] is the additively homomorphic scheme used by the
prior Yao+GLLM systems the paper builds on.  Pretzel replaces it with the
Ring-LWE scheme of §4.1; we keep both so the benchmark harness can reproduce
the Baseline vs Pretzel comparisons of Figures 6–12.

Plaintexts are integers modulo ``N``; slots are fixed-width bit fields packed
inside that integer (the GLLM packing of §4.2).  Slot shifts are not
supported: the baseline only ever packs within a matrix row, which never
requires realigning rows (§4.2, "Prior work").

Decryption uses the CRT speed-up (decrypt modulo ``p**2`` and ``q**2``
separately) — the same optimisation real deployments use, so the
Paillier-vs-XPIR-BV microbenchmark comparison (Fig. 6) is fair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.ahe import (
    AHECiphertext,
    AHEKeyPair,
    AHEPublicKey,
    AHEScheme,
    AHESecretKey,
)
from repro.crypto.numtheory import crt_pair, generate_distinct_primes, invmod
from repro.exceptions import DecryptionError, ParameterError, WireFormatError
from repro.utils.bitops import pack_fields, unpack_fields
from repro.utils.rand import secure_randbelow


@dataclass
class PaillierPublic:
    n: int
    n_squared: int
    generator: int  # fixed to n + 1


@dataclass
class PaillierSecret:
    p: int
    q: int
    # Precomputed CRT values.
    p_squared: int
    q_squared: int
    hp: int  # L_p(g^{p-1} mod p^2)^{-1} mod p
    hq: int


class PaillierScheme(AHEScheme):
    """Textbook Paillier with CRT decryption and slot packing."""

    name = "paillier"

    def __init__(self, modulus_bits: int = 1024, slot_bits: int = 40) -> None:
        if modulus_bits < 64:
            raise ParameterError("Paillier modulus must be at least 64 bits")
        if slot_bits <= 0 or slot_bits >= modulus_bits - 2:
            raise ParameterError("slot_bits must be positive and smaller than the modulus")
        self._modulus_bits = modulus_bits
        self._slot_bits = slot_bits
        # Leave two guard bits so packed values can never reach N even when a
        # slot carries into the next position due to caller error.
        self._num_slots = max(1, (modulus_bits - 2) // slot_bits)

    # -- AHEScheme properties --------------------------------------------
    @property
    def slot_bits(self) -> int:
        return self._slot_bits

    @property
    def num_slots(self) -> int:
        return self._num_slots

    @property
    def supports_slot_shift(self) -> bool:
        return False

    # -- key management ---------------------------------------------------
    def generate_keypair(self) -> AHEKeyPair:
        """Generate a Paillier key pair from fresh local randomness."""
        half_bits = self._modulus_bits // 2
        p, q = generate_distinct_primes(half_bits)
        n = p * q
        n_squared = n * n
        public = PaillierPublic(n=n, n_squared=n_squared, generator=n + 1)
        p_squared = p * p
        q_squared = q * q
        hp = invmod(self._l_function(pow(public.generator, p - 1, p_squared), p), p)
        hq = invmod(self._l_function(pow(public.generator, q - 1, q_squared), q), q)
        secret = PaillierSecret(p=p, q=q, p_squared=p_squared, q_squared=q_squared, hp=hp, hq=hq)
        public_size = (n.bit_length() + 7) // 8
        return AHEKeyPair(
            public=AHEPublicKey(self.name, public, public_size),
            secret=AHESecretKey(self.name, secret),
        )

    @staticmethod
    def _l_function(value: int, modulus: int) -> int:
        return (value - 1) // modulus

    # -- encryption / decryption ------------------------------------------
    def _encrypt_integer(self, public: PaillierPublic, message: int) -> int:
        if not 0 <= message < public.n:
            raise ParameterError("Paillier plaintext out of range")
        while True:
            r = secure_randbelow(public.n)
            if r != 0 and math.gcd(r, public.n) == 1:
                break
        # (1 + n)^m = 1 + n*m (mod n^2): avoids one full-width modexp.
        g_m = (1 + public.n * message) % public.n_squared
        return (g_m * pow(r, public.n, public.n_squared)) % public.n_squared

    def _decrypt_integer(self, public: PaillierPublic, secret: PaillierSecret, ciphertext: int) -> int:
        if not 0 <= ciphertext < public.n_squared:
            raise DecryptionError("Paillier ciphertext out of range")
        mp = (
            self._l_function(pow(ciphertext, secret.p - 1, secret.p_squared), secret.p)
            * secret.hp
        ) % secret.p
        mq = (
            self._l_function(pow(ciphertext, secret.q - 1, secret.q_squared), secret.q)
            * secret.hq
        ) % secret.q
        return crt_pair(mp, secret.p, mq, secret.q)

    def encrypt_slots(self, public_key: AHEPublicKey, values: Sequence[int]) -> AHECiphertext:
        public: PaillierPublic = public_key.payload
        checked = self._check_slot_values(values)
        message = pack_fields(checked, self._slot_bits)
        ciphertext = self._encrypt_integer(public, message)
        return AHECiphertext(self.name, (ciphertext, public), self.ciphertext_size_bytes())

    def decrypt_slots(self, keypair: AHEKeyPair, ciphertext: AHECiphertext) -> list[int]:
        public: PaillierPublic = keypair.public.payload
        secret: PaillierSecret = keypair.secret.payload
        value, _ = ciphertext.payload
        message = self._decrypt_integer(public, secret, value)
        return unpack_fields(message, self._slot_bits, self._num_slots)

    # -- homomorphic operations --------------------------------------------
    def add(self, left: AHECiphertext, right: AHECiphertext) -> AHECiphertext:
        left_value, public = left.payload
        right_value, other_public = right.payload
        if public.n != other_public.n:
            raise ParameterError("cannot add Paillier ciphertexts under different keys")
        combined = (left_value * right_value) % public.n_squared
        return AHECiphertext(self.name, (combined, public), self.ciphertext_size_bytes())

    def scalar_mul(self, ciphertext: AHECiphertext, scalar: int) -> AHECiphertext:
        if scalar < 0:
            raise ParameterError("scalar must be non-negative")
        value, public = ciphertext.payload
        result = pow(value, scalar, public.n_squared)
        return AHECiphertext(self.name, (result, public), self.ciphertext_size_bytes())

    # -- wire codec ----------------------------------------------------------
    def serialize_ciphertext(self, ciphertext: AHECiphertext) -> bytes:
        """Exact wire bytes: the Z_{N^2} element, fixed-width big-endian."""
        if ciphertext.scheme_name != self.name:
            raise ParameterError(f"cannot serialize a {ciphertext.scheme_name!r} ciphertext")
        value, _ = ciphertext.payload
        return value.to_bytes(self._element_bytes(), "big")

    def deserialize_ciphertext(
        self, data: bytes, public_key: AHEPublicKey | None = None
    ) -> AHECiphertext:
        if public_key is None:
            raise WireFormatError("Paillier ciphertext decoding needs the public key")
        if len(data) != self._element_bytes():
            raise WireFormatError(
                f"Paillier ciphertext frame is {len(data)} bytes, expected "
                f"{self._element_bytes()}"
            )
        public: PaillierPublic = public_key.payload
        value = int.from_bytes(data, "big")
        if value >= public.n_squared:
            raise WireFormatError("Paillier ciphertext exceeds N^2")
        return AHECiphertext(self.name, (value, public), self.ciphertext_size_bytes())

    # -- sizes ---------------------------------------------------------------
    def _element_bytes(self) -> int:
        # A Paillier ciphertext is an element of Z_{N^2}: 2·modulus_bits wide.
        return (2 * self._modulus_bits + 7) // 8

    def ciphertext_size_bytes(self) -> int:
        return self._element_bytes()
