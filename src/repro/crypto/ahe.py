"""Common interface for additively homomorphic encryption (AHE) with slots.

The paper's protocols (Figures 2 and 5) are written against an abstract AHE
scheme ``(Gen, Enc, Dec)`` supporting addition of ciphertexts and
multiplication of a ciphertext by a plaintext constant.  Pretzel's packing
optimisation (§4.2) additionally treats the plaintext space as an array of
fixed-width *slots* and needs the ability to shift slots around.

This module defines that contract once so the baseline cryptosystem
(Paillier, §3.3) and Pretzel's cryptosystem (Ring-LWE "XPIR-BV", §4.1) are
interchangeable in every protocol:

* a plaintext is a list of non-negative integers, one per slot, each smaller
  than ``2**slot_bits``;
* ``add`` adds ciphertexts slot-wise;
* ``scalar_mul`` multiplies every slot by the same non-negative constant;
* ``shift_up`` moves slot ``i`` to slot ``i + k``; whatever enters the vacated
  low slots is unspecified (callers must treat those slots as garbage and
  blind them before revealing a ciphertext).

Slot arithmetic is *not* modular from the caller's perspective: protocols
choose ``slot_bits`` large enough (``log2 L + bin + fin`` plus blinding guard
bits, Fig. 3) that sums never overflow a slot, exactly as the paper requires
("the individual sums cannot overflow b bits", §4.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ParameterError


@dataclass
class AHECiphertext:
    """An opaque ciphertext produced by an :class:`AHEScheme`.

    ``payload`` is scheme-specific.  ``size_bytes`` is the serialized size on
    the wire, which the benchmark harness uses for network accounting.
    """

    scheme_name: str
    payload: Any
    size_bytes: int


@dataclass
class AHEPublicKey:
    scheme_name: str
    payload: Any
    size_bytes: int


@dataclass
class AHESecretKey:
    scheme_name: str
    payload: Any


@dataclass
class AHEKeyPair:
    public: AHEPublicKey
    secret: AHESecretKey


class AHEScheme(ABC):
    """Abstract additively homomorphic scheme with slotted plaintexts."""

    #: human-readable scheme name ("paillier", "xpir-bv")
    name: str = "abstract"

    @property
    @abstractmethod
    def slot_bits(self) -> int:
        """Width of each plaintext slot in bits."""

    @property
    @abstractmethod
    def num_slots(self) -> int:
        """Number of slots available in a single ciphertext."""

    @property
    def slot_modulus(self) -> int:
        """Upper bound (exclusive) on a slot value: ``2**slot_bits``."""
        return 1 << self.slot_bits

    @property
    @abstractmethod
    def supports_slot_shift(self) -> bool:
        """Whether :meth:`shift_up` is available (needed by §4.2 across-row packing)."""

    # -- key management -------------------------------------------------
    @abstractmethod
    def generate_keypair(self, seed: bytes | None = None) -> AHEKeyPair:
        """Generate a key pair; *seed* (if given) injects joint randomness (§3.3 fn. 3)."""

    # -- core operations -------------------------------------------------
    @abstractmethod
    def encrypt_slots(self, public_key: AHEPublicKey, values: Sequence[int]) -> AHECiphertext:
        """Encrypt up to :attr:`num_slots` slot values (slot 0 first, rest zero)."""

    def encrypt_slots_many(
        self, public_key: AHEPublicKey, vectors: Sequence[Sequence[int]]
    ) -> list[AHECiphertext]:
        """Encrypt a batch of slot vectors; schemes may override with a batched path.

        The ciphertext fabrication hot paths (blinding noise, model packing)
        call this so that schemes with array ciphertexts (XPIR-BV) can run one
        stacked transform pass and one vectorised randomness draw for the
        whole batch.  *vectors* may also be a ``(B, slots)`` integer ndarray.
        The default is the per-vector loop (Paillier).
        """
        rows = vectors.tolist() if isinstance(vectors, np.ndarray) else vectors
        return [self.encrypt_slots(public_key, vector) for vector in rows]

    @abstractmethod
    def decrypt_slots(self, keypair: AHEKeyPair, ciphertext: AHECiphertext) -> list[int]:
        """Decrypt and return the slot values of :meth:`ciphertext_run` (all of them,
        unless *ciphertext* is a score sample)."""

    def decrypt_slots_many(
        self, keypair: AHEKeyPair, ciphertexts: Sequence[AHECiphertext]
    ) -> list[list[int]]:
        """Decrypt a batch of ciphertexts; schemes may override with a vectorised path."""
        return [self.decrypt_slots(keypair, ciphertext) for ciphertext in ciphertexts]

    @abstractmethod
    def add(self, left: AHECiphertext, right: AHECiphertext) -> AHECiphertext:
        """Slot-wise homomorphic addition."""

    @abstractmethod
    def scalar_mul(self, ciphertext: AHECiphertext, scalar: int) -> AHECiphertext:
        """Multiply every slot by a non-negative plaintext constant."""

    def shift_up(self, ciphertext: AHECiphertext, positions: int) -> AHECiphertext:
        """Move slot ``i`` to slot ``i + positions`` (low slots become garbage)."""
        raise ParameterError(f"{self.name} does not support slot shifts")

    def add_many(
        self, lefts: Sequence[AHECiphertext], rights: Sequence[AHECiphertext]
    ) -> list[AHECiphertext]:
        """Pairwise :meth:`add` over two equal-length batches.

        Schemes with array ciphertexts may override with one stacked addition;
        the override must stay bit-identical to this loop.
        """
        if len(lefts) != len(rights):
            raise ParameterError("add_many requires equal-length batches")
        return [self.add(left, right) for left, right in zip(lefts, rights)]

    def blind_samples(
        self,
        public_key: AHEPublicKey,
        ciphertexts: Sequence[AHECiphertext],
        sources: Sequence[int],
        shifts: Sequence[int],
        runs: Sequence[tuple[int, int]],
        noise: np.ndarray,
        prg=None,
    ) -> list[AHECiphertext]:
        """Blinded *score samples* — what a slot-shifting scheme sends the provider.

        Sample ``k`` opens only the slot run ``runs[k] = (start, length)`` of
        ``shift_up(ciphertexts[sources[k]], shifts[k])`` plus a fresh
        encryption of *noise* (one value per run slot, flat, in sample order);
        the other slots are neither computed nor sent.  This is the
        candidate-extraction primitive of §4.3 and the blinding step of Fig. 2
        in one call; schemes without slot shifts send whole ciphertexts.
        *prg* (tests only) replaces the encryption randomness with a stream.
        """
        raise ParameterError(f"{self.name} does not support slot shifts")

    def ciphertext_run(self, ciphertext: AHECiphertext) -> tuple[int, int]:
        """The ``(start, length)`` slot run *ciphertext* decrypts to: every slot,
        unless it is a score sample (:meth:`blind_samples`) or a dot product
        computed on a run (:meth:`combine_windows`)."""
        return 0, self.num_slots

    # -- batched accumulation (optional fast path) -------------------------
    @property
    def supports_batched_accumulation(self) -> bool:
        """Whether the stacked linear-combination fast path below is available.

        Schemes whose ciphertexts are fixed-shape integer arrays (XPIR-BV)
        can stack an encrypted model once and evaluate every per-email
        homomorphic dot product as one vectorised sum, instead of a
        Python-level ``scalar_mul``/``shift_up``/``add`` chain.
        """
        return False

    def stack_ciphertexts(self, ciphertexts: Sequence[AHECiphertext]) -> Any:
        """Pack ciphertexts into a scheme-specific dense batch for repeated use."""
        raise ParameterError(f"{self.name} does not support batched accumulation")

    def combine_windows(
        self,
        stack: Any,
        rows: Sequence[int],
        scalars: Sequence[int],
        shifts: Sequence[int],
        run: tuple[int, int],
    ) -> AHECiphertext:
        """Homomorphically compute ``Σ_i scalars[i] · x^shifts[i] · stack[rows[i]]``;
        the result need answer only on the slot run ``(start, length)`` the
        caller opens (:meth:`ciphertext_run`)."""
        raise ParameterError(f"{self.name} does not support batched accumulation")

    # -- wire codecs -------------------------------------------------------
    @abstractmethod
    def serialize_ciphertext(self, ciphertext: AHECiphertext) -> bytes:
        """Encode a ciphertext into its exact wire bytes.

        The protocol frames of :mod:`repro.twopc.wire` call this for every
        ciphertext that crosses parties, so ``len(serialize_ciphertext(ct))``
        — not an estimate — is what network accounting charges.  The encoding
        must round-trip bit-identically through :meth:`deserialize_ciphertext`
        and must have length :meth:`ciphertext_size_bytes` for every
        ciphertext under a fixed parameter set.
        """

    @abstractmethod
    def deserialize_ciphertext(
        self, data: bytes, public_key: AHEPublicKey | None = None
    ) -> AHECiphertext:
        """Decode wire bytes produced by :meth:`serialize_ciphertext`.

        Schemes whose ciphertext payloads carry key material (Paillier) need
        *public_key* to reattach it; schemes with self-contained ciphertexts
        (XPIR-BV) ignore it.
        """

    # -- sizes -----------------------------------------------------------
    @abstractmethod
    def ciphertext_size_bytes(self) -> int:
        """Serialized size of one ciphertext (constant for a fixed parameter set)."""

    # -- helpers shared by implementations --------------------------------
    def _check_slot_values(self, values: Sequence[int]) -> list[int]:
        if len(values) > self.num_slots:
            raise ParameterError(
                f"{len(values)} slot values exceed capacity {self.num_slots}"
            )
        limit = self.slot_modulus
        checked = list(values)
        if not checked:
            return checked
        # Vectorised fast path: slot vectors are often num_slots long (blinding
        # noise), so a Python-level per-value loop is measurable per email.
        # The exact-type scan keeps the strict typing of the slow path (bools
        # and numpy scalars are rejected there); huge ints fall through too.
        if limit <= 1 << 63 and all(type(value) is int for value in checked):
            try:
                array = np.asarray(checked, dtype=np.int64)
            except OverflowError:
                array = None
            if array is not None:
                if array.min() < 0 or array.max() >= limit:
                    raise ParameterError(f"slot value outside [0, 2^{self.slot_bits})")
                return checked
        for index, value in enumerate(checked):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"slot {index} value must be an int, got {type(value)!r}")
            if not 0 <= value < limit:
                raise ParameterError(
                    f"slot {index} value {value} outside [0, 2^{self.slot_bits})"
                )
        return checked

    def encrypt_single(self, public_key: AHEPublicKey, value: int) -> AHECiphertext:
        """Convenience: encrypt a single value in slot 0."""
        return self.encrypt_slots(public_key, [value])

    def decrypt_single(self, keypair: AHEKeyPair, ciphertext: AHECiphertext) -> int:
        """Convenience: decrypt slot 0."""
        return self.decrypt_slots(keypair, ciphertext)[0]
