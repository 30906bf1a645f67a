"""The additively homomorphic Ring-LWE cryptosystem ("XPIR-BV", §4.1).

Pretzel replaces Paillier with the Brakerski–Vaikuntanathan scheme as
implemented in the XPIR library.  We implement the additive-only variant over
``R_q = Z_q[x]/(x^n + 1)`` with plaintext modulus ``t = 2**slot_bits``:

* secret key ``s`` — ternary ring element;
* public key ``(p0, p1)`` with ``p1`` uniform and ``p0 = -(p1·s) + t·e``;
* ``Enc(m) = (p0·u + t·e1 + m,  p1·u + t·e2)`` for ternary ``u`` and small
  noise ``e1, e2``;
* ``Dec(c0, c1) = ((c0 + c1·s) mod q, centered) mod t``.

The ``n`` plaintext polynomial coefficients are the packing *slots* of §4.2:
ciphertext addition adds slot-wise, multiplication by an integer constant
scales every slot, and multiplication by the monomial ``x^k`` shifts slots —
this last operation is what the across-row packing and the candidate-topic
protocol (Fig. 5) use to realign and extract dot products.

Performance model (the client hot path of Figs. 6–7): ciphertexts are kept
resident in the **evaluation (NTT) domain**.  Key material is transformed
once at key generation, encryption batches the fresh samples through one
vectorised forward pass per prime and finishes with pointwise products, and
every homomorphic operation — addition, scalar multiplication, slot shifts,
and the batched dot-product accumulator behind
:meth:`BVScheme.combine_stacked` — is pointwise on int64 arrays with lazy
modular reduction.  Only the decryption of a *whole* ciphertext runs an
inverse transform, followed by one vectorised CRT reconstruction.

**Score samples (LWE sample extraction).**  ``Dec(c0, c1)[j] = c0[j] +
(c1·s)[j]``: opening slot ``j`` takes all of ``c1`` but *one coefficient* of
``c0``.  What a client sends the provider to open is therefore not a
ciphertext but a :class:`BVSamplePayload` — ``c1``'s spectra plus the ``c0``
coefficients of the one contiguous slot run the protocol reads
(:meth:`BVScheme.blind_samples`).  Coefficient ``j`` of an inverse transform
is an inner product with ``n⁻¹`` times the spectrum of ``x^{-j} = -x^{n-j}``
(:meth:`~repro.crypto.ringlwe.RingContext.coefficient_run`), so the client
computes ``c0[j]`` without ever forming the polynomial — one forward
transform over ``(u, t·e2)``, ``e1`` and the message at the run only — and
the provider decrypts ``c0[j] + ⟨ĉ1, ŝ ⊙ row_j⟩`` per prime with no inverse
transform and a CRT over the run alone.  The provider's view (``c1`` in full,
the run of ``c0``) is a strict subset of the blinded whole ciphertext it
replaces, with ``(u, e1, e2)`` fresh per sample, so no assumption is added;
the slots that never leave need no noise.  Caches: per ring, the plan's
monomial spectra (one ``(primes, n)`` row per distinct shift or opened slot,
at most ``2n`` rows, shared by every scheme over the same primes); per scheme,
two residue tables of ``3`` and ``2·noise_bound + 1`` columns; per key pair,
nothing (``ŝ ⊙ row_j`` is ``n`` multiplications, recomputed per batch).

Ciphertext size with the default parameters (n = 1024, two 31-bit RNS primes)
is ~16 KB, matching the 16 KB XPIR-BV ciphertexts reported in §4.1; a score
sample of run length ``r`` is ``13 + 4·primes·(n + r)`` bytes — 8 213 for one
extracted candidate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.crypto.ahe import (
    AHECiphertext,
    AHEKeyPair,
    AHEPublicKey,
    AHEScheme,
    AHESecretKey,
)
from repro.crypto.prg import Prg
from repro.crypto.ringlwe import RingContext, RingPolynomial
from repro.exceptions import NoiseBudgetExceeded, ParameterError, WireFormatError
from repro.utils.rand import secure_bytes
from typing import Sequence


@dataclass(frozen=True)
class BVParameters:
    """Public parameters of the XPIR-BV scheme."""

    ring_degree: int = 1024
    prime_bits: int = 31
    prime_count: int = 2
    slot_bits: int = 32
    noise_bound: int = 4

    def __post_init__(self) -> None:
        if self.ring_degree <= 1 or self.ring_degree & (self.ring_degree - 1):
            raise ParameterError("ring_degree must be a power of two > 1")
        if self.slot_bits <= 0:
            raise ParameterError("slot_bits must be positive")
        total_q_bits = self.prime_bits * self.prime_count
        if self.slot_bits >= total_q_bits - 8:
            raise ParameterError(
                "slot_bits leaves no room for noise under the ciphertext modulus"
            )

    @classmethod
    def test_parameters(cls) -> "BVParameters":
        """Small, fast parameters for unit tests (reduced ring degree)."""
        return cls(ring_degree=256, prime_bits=31, prime_count=2, slot_bits=32, noise_bound=4)


@dataclass
class BVPublic:
    p0: RingPolynomial
    p1: RingPolynomial


@dataclass
class BVSecret:
    s: RingPolynomial


@dataclass
class BVCiphertextPayload:
    c0: RingPolynomial
    c1: RingPolynomial


@dataclass
class BVSamplePayload:
    """A *score sample*: all of ``c1`` and the ``c0`` coefficients of one slot run.

    ``Dec(c0, c1)[j] = c0[j] + (c1·s)[j]``, so whoever opens only slots
    ``start .. start + length - 1`` needs nothing else of ``c0`` (LWE sample
    extraction).  ``c1`` is evaluation-domain, shape ``(primes, n)``; ``c0``
    is coefficient-domain, shape ``(primes, length)``.
    """

    c1: np.ndarray
    start: int
    c0: np.ndarray

    @property
    def run(self) -> tuple[int, int]:
        return self.start, self.c0.shape[-1]


@dataclass
class BVCiphertextStack:
    """A batch of ciphertexts as dense evaluation-domain int64 arrays.

    ``c0``/``c1`` have shape ``(count, num_primes, n)``; rows are the stacked
    spectra of the individual ciphertexts, in order.  This is the layout the
    vectorised dot-product accumulator indexes per email.
    """

    c0: np.ndarray
    c1: np.ndarray


class BVScheme(AHEScheme):
    """Additive Ring-LWE AHE with coefficient-slot packing."""

    name = "xpir-bv"

    def __init__(self, parameters: BVParameters | None = None) -> None:
        self.parameters = parameters or BVParameters()
        self.ring = RingContext.create(
            ring_degree=self.parameters.ring_degree,
            prime_bits=self.parameters.prime_bits,
            prime_count=self.parameters.prime_count,
        )
        self._plain_modulus = 1 << self.parameters.slot_bits
        # t reduced per prime, shaped for broadcasting against (primes, n).
        self._t_column = self.ring.reduce_scalar(self._plain_modulus)
        # Residues of the few values fresh randomness takes, shape (primes, ·):
        # ternary u in {-1, 0, 1} and t·e for e in [-bound, bound], indexed by
        # the raw draw — a gather instead of `%` passes over whole polynomials.
        bound = self.parameters.noise_bound
        self._ternary_residues = np.arange(-1, 2) % self.ring.primes_column
        self._scaled_noise_residues = (
            self._t_column * (np.arange(-bound, bound + 1) % self.ring.primes_column)
            % self.ring.primes_column
        )

    # -- AHEScheme properties ------------------------------------------------
    @property
    def slot_bits(self) -> int:
        return self.parameters.slot_bits

    @property
    def num_slots(self) -> int:
        return self.parameters.ring_degree

    @property
    def supports_slot_shift(self) -> bool:
        return True

    @property
    def supports_batched_accumulation(self) -> bool:
        return True

    # -- key management --------------------------------------------------------
    def generate_keypair(self, seed: bytes | None = None) -> AHEKeyPair:
        """Generate a key pair.

        When *seed* is supplied, the public uniform element ``p1`` is derived
        from it deterministically, implementing the jointly-randomised
        parameter generation of §3.3 footnote 3 (both parties contribute to
        the seed via DH, so neither controls ``p1``).  The secret key and the
        noise are always drawn from fresh local randomness.
        """
        t = self._plain_modulus
        if seed is None:
            p1 = RingPolynomial.sample_uniform(self.ring)
        else:
            p1 = RingPolynomial.sample_uniform(self.ring, Prg(seed, domain=b"bv-public-a"))
        s = RingPolynomial.sample_ternary(self.ring)
        noise = RingPolynomial.sample_noise(self.ring, self.parameters.noise_bound)
        p0 = p1.multiply(s).negate().add(noise.scalar_multiply(t))
        # Pin the evaluation-domain forms now: every later encryption and
        # decryption reuses these spectra instead of re-running forward NTTs.
        p0.spectra
        p1.spectra
        s.spectra
        public = BVPublic(p0=p0, p1=p1)
        public_size = 2 * p0.serialized_size_bytes()
        return AHEKeyPair(
            public=AHEPublicKey(self.name, public, public_size),
            secret=AHESecretKey(self.name, BVSecret(s=s)),
        )

    # -- encryption / decryption ------------------------------------------------
    def encrypt_slots(
        self, public_key: AHEPublicKey, values: Sequence[int], prg: Prg | None = None
    ) -> AHECiphertext:
        """Encrypt one slot vector.

        When *prg* is supplied, the encryption randomness is drawn from that
        shared stream in a fixed order — ``n`` bytes of ternary ``u``, then
        ``2n`` bytes each for ``e1`` and ``e2`` — which is exactly the
        per-ciphertext chunk layout of :meth:`encrypt_slots_many`; the batched
        path is pinned bit-identical to a loop over this method on the same
        stream.  With ``prg=None`` each sample draws fresh local randomness.
        """
        public: BVPublic = public_key.payload
        checked = self._check_slot_values(values)
        ring = self.ring
        primes_column = ring.primes_column
        # from_int_coefficients vectorises the per-prime reduction and falls
        # back to exact Python arithmetic for slot values beyond int64.
        message = RingPolynomial.from_int_coefficients(ring, checked).residues
        u = RingPolynomial.sample_ternary(ring, prg)
        e1 = RingPolynomial.sample_noise(ring, self.parameters.noise_bound, prg)
        e2 = RingPolynomial.sample_noise(ring, self.parameters.noise_bound, prg)
        # The NTT is linear mod each prime, so ``t·e1 + m`` and ``t·e2`` fold
        # in the coefficient domain first: one batched forward pass over
        # *three* fresh polynomials instead of four, identical output.
        t_column = self._t_column
        a = (t_column * e1.residues % primes_column + message) % primes_column
        b = t_column * e2.residues % primes_column
        stacked = np.stack([u.residues, a, b])
        u_s, a_s, b_s = ring.forward_transform(stacked)
        c0 = (public.p0.spectra * u_s % primes_column + a_s) % primes_column
        c1 = (public.p1.spectra * u_s % primes_column + b_s) % primes_column
        payload = BVCiphertextPayload(
            c0=RingPolynomial.from_spectra(ring, c0),
            c1=RingPolynomial.from_spectra(ring, c1),
        )
        return AHECiphertext(self.name, payload, self.ciphertext_size_bytes())

    def encrypt_slots_many(
        self,
        public_key: AHEPublicKey,
        vectors: Sequence[Sequence[int]],
        prg: Prg | None = None,
    ) -> list[AHECiphertext]:
        """Encrypt ``B`` slot vectors with one stacked ``(3B, primes, n)`` NTT pass.

        This is the ciphertext-fabrication analogue of the batched decrypt:
        all randomness for the batch is one bulk read (per-ciphertext chunks
        of ``5n`` bytes: ``n`` ternary + ``2n`` + ``2n`` noise, matching
        :meth:`encrypt_slots` on a shared stream byte for byte), the ternary
        and noise interpretation is one vectorised pass over the whole block,
        and the fresh polynomials of the batch go through a single stacked
        forward transform.  *vectors* may be a ``(B, ≤n)`` integer ndarray —
        the fabrication hot paths pass their noise matrices directly, skipping
        per-value Python validation.  The per-ciphertext outputs are
        bit-identical to an :meth:`encrypt_slots` loop on the same stream.
        """
        if len(vectors) == 0:
            return []
        public: BVPublic = public_key.payload
        ring = self.ring
        n = ring.n
        batch = len(vectors)
        primes_column = ring.primes_column
        messages = self._message_residues_many(vectors)
        # One randomness block for the whole batch; chunk b serves ciphertext
        # b.  Without a caller stream the bytes come straight from the OS
        # CSPRNG (one cheap bulk read); a caller-supplied PRG replays the
        # exact per-ciphertext layout of :meth:`encrypt_slots`.
        chunk = 5 * n
        raw = secure_bytes(chunk * batch) if prg is None else prg.read(chunk * batch)
        block = np.frombuffer(raw, dtype=np.uint8).reshape(batch, chunk)
        bound = self.parameters.noise_bound
        spread = np.uint16(2 * bound + 1)
        u_signed = (block[:, :n] % np.uint8(3)).astype(np.int64) - 1
        e1_raw = np.ascontiguousarray(block[:, n : 3 * n]).view(">u2")
        e2_raw = np.ascontiguousarray(block[:, 3 * n :]).view(">u2")
        e1_signed = (e1_raw % spread).astype(np.int64) - bound
        e2_signed = (e2_raw % spread).astype(np.int64) - bound
        # (B, n) signed vectors -> (B, primes, n) residues.  ``t·e + m`` folds
        # in the coefficient domain (the NTT is linear mod each prime), so the
        # stacked forward pass covers 3B fresh polynomials, not 4B.
        t_column = self._t_column
        e1_res = e1_signed[:, None, :] % primes_column
        e2_res = e2_signed[:, None, :] % primes_column
        stacked = np.concatenate(
            [
                u_signed[:, None, :] % primes_column,
                (t_column * e1_res % primes_column + messages) % primes_column,
                t_column * e2_res % primes_column,
            ]
        )
        transformed = ring.forward_transform(stacked)
        u_s = transformed[:batch]
        a_s = transformed[batch : 2 * batch]
        b_s = transformed[2 * batch :]
        c0 = (public.p0.spectra * u_s % primes_column + a_s) % primes_column
        c1 = (public.p1.spectra * u_s % primes_column + b_s) % primes_column
        size = self.ciphertext_size_bytes()
        return [
            AHECiphertext(
                self.name,
                BVCiphertextPayload(
                    c0=RingPolynomial.from_spectra(ring, c0[b]),
                    c1=RingPolynomial.from_spectra(ring, c1[b]),
                ),
                size,
            )
            for b in range(batch)
        ]

    def _message_residues_many(self, vectors) -> np.ndarray:
        """Per-prime message residues for a batch, shape ``(B, primes, n)``.

        A ``(B, ≤n)`` integer ndarray takes a fully vectorised path (one range
        check, one broadcast reduction); anything else runs the per-vector
        validation and reduction of :meth:`encrypt_slots`.
        """
        ring = self.ring
        if isinstance(vectors, np.ndarray):
            if vectors.ndim != 2 or vectors.shape[1] > ring.n:
                raise ParameterError(
                    f"slot matrix of shape {vectors.shape} does not fit "
                    f"(batch, <= {ring.n}) slots"
                )
            if not np.issubdtype(vectors.dtype, np.integer):
                raise ParameterError("slot matrix must have an integer dtype")
            if vectors.size and (
                int(vectors.min()) < 0 or int(vectors.max()) >= self.slot_modulus
            ):
                raise ParameterError(f"slot value outside [0, 2^{self.slot_bits})")
            width = vectors.shape[1]
            residues = np.zeros((len(vectors), len(ring.primes), ring.n), dtype=np.int64)
            residues[:, :, :width] = vectors.astype(np.int64)[:, None, :] % ring.primes_column
            return residues
        return np.stack(
            [
                RingPolynomial.from_int_coefficients(ring, self._check_slot_values(v)).residues
                for v in vectors
            ]
        )

    def _phase_slots(self, phase_residues: np.ndarray) -> list:
        """CRT-reconstruct decryption phases (shape ``(..., primes, n)``) to slots."""
        t = self._plain_modulus
        centered = self.ring.crt_reconstruct_array(phase_residues)
        budget = self.ring.modulus // 2
        if (np.abs(centered) >= budget).any():
            raise NoiseBudgetExceeded("BV ciphertext noise exceeded q/2 during decryption")
        return (centered % t).tolist()

    def decrypt_slots(self, keypair: AHEKeyPair, ciphertext: AHECiphertext) -> list[int]:
        """All ``n`` slots of a full ciphertext; the run's values of a score sample."""
        return self.decrypt_slots_many(keypair, [ciphertext])[0]

    def decrypt_slots_many(
        self, keypair: AHEKeyPair, ciphertexts: Sequence[AHECiphertext]
    ) -> list[list[int]]:
        """Decrypt a batch in one vectorised pass (provider hot path, Figs. 7/10).

        Score samples of one run decrypt together as
        ``c0[j] + (c1·s)[j]`` — inner products, no inverse transform and a CRT
        over the run only — and yield the run's values; full ciphertexts
        yield all ``n`` slots.
        """
        secret: BVSecret = keypair.secret.payload
        ring = self.ring
        primes_column = ring.primes_column
        # One vectorised pass per payload form: None = full, else the run.
        forms: dict[tuple[int, int] | None, list[int]] = {}
        for position, ciphertext in enumerate(ciphertexts):
            payload = ciphertext.payload
            run = payload.run if isinstance(payload, BVSamplePayload) else None
            forms.setdefault(run, []).append(position)
        slot_lists: list[list[int]] = [[]] * len(ciphertexts)
        for run, positions in forms.items():
            members = [ciphertexts[position] for position in positions]
            if run is None:
                stack = self.stack_ciphertexts(members)
                phases = ring.inverse_transform(
                    (stack.c0 + stack.c1 * secret.s.spectra % primes_column) % primes_column
                )
            else:
                c0 = np.stack([member.payload.c0 for member in members])
                c1 = np.stack([member.payload.c1 for member in members])
                phases = (
                    c0 + ring.coefficient_run(c1, *run, weight=secret.s.spectra)
                ) % primes_column
            for position, slots in zip(positions, self._phase_slots(phases)):
                slot_lists[position] = slots
        return slot_lists

    # -- homomorphic operations ----------------------------------------------------
    def add(self, left: AHECiphertext, right: AHECiphertext) -> AHECiphertext:
        lp: BVCiphertextPayload = left.payload
        rp: BVCiphertextPayload = right.payload
        payload = BVCiphertextPayload(c0=lp.c0.add(rp.c0), c1=lp.c1.add(rp.c1))
        return AHECiphertext(self.name, payload, self.ciphertext_size_bytes())

    def scalar_mul(self, ciphertext: AHECiphertext, scalar: int) -> AHECiphertext:
        if scalar < 0:
            raise ParameterError("scalar must be non-negative")
        payload: BVCiphertextPayload = ciphertext.payload
        result = BVCiphertextPayload(
            c0=payload.c0.scalar_multiply(scalar),
            c1=payload.c1.scalar_multiply(scalar),
        )
        return AHECiphertext(self.name, result, self.ciphertext_size_bytes())

    def add_many(
        self, lefts: Sequence[AHECiphertext], rights: Sequence[AHECiphertext]
    ) -> list[AHECiphertext]:
        """Pairwise addition as one stacked ``(B, primes, n)`` array pass."""
        if len(lefts) != len(rights):
            raise ParameterError("add_many requires equal-length batches")
        if not lefts:
            return []
        left_stack = self.stack_ciphertexts(lefts)
        right_stack = self.stack_ciphertexts(rights)
        primes_column = self.ring.primes_column
        c0 = (left_stack.c0 + right_stack.c0) % primes_column
        c1 = (left_stack.c1 + right_stack.c1) % primes_column
        return [self._wrap_spectra(c0[b], c1[b]) for b in range(len(lefts))]

    def blind_samples(
        self,
        public_key: AHEPublicKey,
        ciphertexts: Sequence[AHECiphertext],
        sources: Sequence[int],
        shifts: Sequence[int],
        runs: Sequence[tuple[int, int]],
        noise: np.ndarray,
        prg: Prg | None = None,
    ) -> list[AHECiphertext]:
        """Sample ``k`` = slots ``runs[k]`` of ``x^shifts[k] · ciphertexts[sources[k]] + Enc(noise)``.

        *noise* holds one slot value per run slot, flat, in sample order; it
        is the message of a fresh encryption added to the shifted source, of
        which only ``c1`` and the run of ``c0`` are ever computed:

        * one forward transform over ``(u, t·e2)`` — ``2·len(sources)``
          polynomials; ``e1`` and the message exist at the run only;
        * ``c1 = x^shift·c1_src + p1·u + t·e2``, pointwise in the evaluation
          domain;
        * ``c0[j] = (x^shift·c0_src + p0·u)[j] + t·e1[j] + noise[j]`` for ``j``
          in the run, each an inner product
          (:meth:`~repro.crypto.ringlwe.RingContext.coefficient_run`).

        Randomness is one bulk read: per sample ``n`` bytes of ternary ``u``
        then ``2n`` of ``e2``, for all samples, followed by two bytes of
        ``e1`` per run slot in sample order.
        """
        count = len(sources)
        if not count == len(shifts) == len(runs):
            raise ParameterError("blind_samples requires equal-length sources/shifts/runs")
        if not count:
            return []
        public: BVPublic = public_key.payload
        ring = self.ring
        n = ring.n
        primes_column = ring.primes_column
        if min(shifts) < 0:
            raise ParameterError("shift amount must be non-negative")
        for start, length in runs:
            if not 0 <= start < start + length <= n:
                raise ParameterError(f"slot run ({start}, {length}) outside [0, {n})")
        ends = np.cumsum([length for _, length in runs])
        noise = np.asarray(noise)
        if noise.shape != (ends[-1],) or noise.dtype.kind not in "iu":
            raise ParameterError("blinding noise must be one integer per run slot")
        if int(noise.min()) < 0 or int(noise.max()) >= self.slot_modulus:
            raise ParameterError(f"slot value outside [0, 2^{self.slot_bits})")
        head = 3 * n * count
        size = head + 2 * int(ends[-1])
        raw = secure_bytes(size) if prg is None else prg.read(size)
        block = np.frombuffer(raw, dtype=np.uint8, count=head).reshape(count, 3 * n)
        spread = np.uint16(2 * self.parameters.noise_bound + 1)
        e2_raw = np.ascontiguousarray(block[:, n:]).view(">u2")
        e1_raw = np.frombuffer(raw, dtype=">u2", offset=head)
        # (primes, 2·count, n): u then t·e2, handed to the transform batch-major.
        fresh = ring.forward_transform(
            np.concatenate(
                [
                    self._ternary_residues[:, block[:, :n] % np.uint8(3)],
                    self._scaled_noise_residues[:, e2_raw % spread],
                ],
                axis=1,
            ).swapaxes(0, 1)
        )
        u_s, b_s = fresh[:count], fresh[count:]
        mono = ring.monomial_spectra_many(list(shifts))
        shifted = self.stack_ciphertexts([ciphertexts[source] for source in sources])
        # Two products of residues plus a residue stay below 2^63: one `%` each.
        c1 = (shifted.c1 * mono + public.p1.spectra * u_s + b_s) % primes_column
        c0 = (shifted.c0 * mono + public.p0.spectra * u_s) % primes_column
        # What is fresh at the run itself: t·e1 + noise, shape (primes, Σ length).
        at_run = self._scaled_noise_residues[:, e1_raw % spread] + noise
        samples: list[AHECiphertext | None] = [None] * count
        by_run: dict[tuple[int, int], list[int]] = {}
        for position, run in enumerate(runs):
            by_run.setdefault(tuple(run), []).append(position)
        for (start, length), positions in by_run.items():
            coefficients = ring.coefficient_run(c0[positions], start, length)
            for row, position in zip(coefficients, positions):
                end = ends[position]
                run_c0 = (row + at_run[:, end - length : end]) % primes_column
                payload = BVSamplePayload(c1=c1[position], start=start, c0=run_c0)
                samples[position] = AHECiphertext(
                    self.name, payload, self.sample_size_bytes(length)
                )
        return samples

    def ciphertext_run(self, ciphertext: AHECiphertext) -> tuple[int, int]:
        payload = ciphertext.payload
        if isinstance(payload, BVSamplePayload):
            return payload.run
        return 0, self.ring.n

    def shift_up(self, ciphertext: AHECiphertext, positions: int) -> AHECiphertext:
        """Move slot ``i`` to slot ``i + positions`` via multiplication by ``x^positions``.

        Slots pushed past the top wrap to the bottom *negated* (``x^n = -1``);
        callers must treat the low slots as garbage after a shift, exactly as
        the across-row packing protocol does (§4.2).
        """
        if positions < 0:
            raise ParameterError("shift amount must be non-negative")
        payload: BVCiphertextPayload = ciphertext.payload
        result = BVCiphertextPayload(
            c0=payload.c0.monomial_multiply(positions),
            c1=payload.c1.monomial_multiply(positions),
        )
        return AHECiphertext(self.name, result, self.ciphertext_size_bytes())

    # -- batched accumulation (the client dot-product hot path, §4.2) ------------
    def stack_ciphertexts(self, ciphertexts: Sequence[AHECiphertext]) -> BVCiphertextStack:
        """Stack ciphertext spectra into ``(count, primes, n)`` arrays."""
        c0 = np.stack([ct.payload.c0.spectra for ct in ciphertexts])
        c1 = np.stack([ct.payload.c1.spectra for ct in ciphertexts])
        return BVCiphertextStack(c0=c0, c1=c1)

    def _wrap_spectra(self, c0: np.ndarray, c1: np.ndarray) -> AHECiphertext:
        payload = BVCiphertextPayload(
            c0=RingPolynomial.from_spectra(self.ring, c0),
            c1=RingPolynomial.from_spectra(self.ring, c1),
        )
        return AHECiphertext(self.name, payload, self.ciphertext_size_bytes())

    def combine_stacked(
        self, stack: BVCiphertextStack, rows: Sequence[int], scalars: Sequence[int]
    ) -> AHECiphertext:
        """Compute ``Σ_i scalars[i] · stack[rows[i]]`` in one vectorised pass.

        Scalars are reduced per prime once; the accumulation then runs in raw
        int64 with *lazy* modular reduction — partial sums are reduced only
        when another chunk could overflow 63 bits, which for the small
        frequencies of Fig. 3's quantisation means exactly once, at the end.
        """
        if len(rows) != len(scalars):
            raise ParameterError("rows and scalars must have equal length")
        primes_column = self.ring.primes_column
        num_primes, n = len(self.ring.primes), self.ring.n
        if not rows:
            zeros = np.zeros((num_primes, n), dtype=np.int64)
            return self._wrap_spectra(zeros, zeros.copy())
        row_index = np.asarray(rows, dtype=np.intp)
        # (terms, primes): each scalar reduced modulo each prime.
        reduced = np.asarray(
            [[scalar % prime for prime in self.ring.primes] for scalar in scalars],
            dtype=np.int64,
        )
        # Largest unreduced per-term product; spectra values are < 2^31.
        per_term = int(reduced.max(initial=0)) * ((1 << 31) - 1)
        chunk = max(1, ((1 << 62) - 1) // max(1, per_term))
        acc0 = np.zeros((num_primes, n), dtype=np.int64)
        acc1 = np.zeros((num_primes, n), dtype=np.int64)
        for start in range(0, len(rows), chunk):
            idx = row_index[start : start + chunk]
            weights = reduced[start : start + chunk]
            acc0 = (acc0 + np.einsum("mkn,mk->kn", stack.c0[idx], weights)) % primes_column
            acc1 = (acc1 + np.einsum("mkn,mk->kn", stack.c1[idx], weights)) % primes_column
        return self._wrap_spectra(acc0, acc1)

    def combine_stacked_shifted(
        self, stack: BVCiphertextStack, terms: Sequence[tuple[int, int, int]]
    ) -> AHECiphertext:
        """Compute ``Σ scalar · x^shift · stack[row]`` for ``(row, scalar, shift)`` terms.

        All terms hitting the same stacked ciphertext ``C`` are folded into a
        single combining polynomial ``P(x) = Σ scalar · x^shift``, so the whole
        shift-and-add chain of §4.2 collapses to one spectrum-domain product
        ``C · P`` per distinct ciphertext.  Lone monomials use the plan's cached
        spectra; every multi-term ``P`` is stacked into one ``(k, primes, n)``
        forward NTT, and all products accumulate in one fancy-indexed pass.
        """
        primes_column = self.ring.primes_column
        num_primes, n = len(self.ring.primes), self.ring.n
        combining: dict[int, dict[int, int]] = {}
        for row, scalar, shift in terms:
            if not 0 <= shift < n:
                raise ParameterError("combining shifts must lie in [0, ring degree)")
            poly = combining.setdefault(row, {})
            poly[shift] = poly.get(shift, 0) + scalar
        if not combining:
            zeros = np.zeros((num_primes, n), dtype=np.int64)
            return self._wrap_spectra(zeros, zeros.copy())
        spectra = np.empty((len(combining), num_primes, n), dtype=np.int64)
        dense: list[int] = []  # positions of the multi-term polynomials
        entries: list[tuple[int, int, int]] = []  # their (dense slot, shift, scalar) coefficients
        for at, poly in enumerate(combining.values()):
            if len(poly) == 1:
                ((shift, scalar),) = poly.items()
                mono = self.ring.monomial_spectra(shift)
                spectra[at] = mono * self.ring.reduce_scalar(scalar) % primes_column
            else:
                entries += [(len(dense), shift, scalar) for shift, scalar in poly.items()]
                dense.append(at)
        if dense:
            slots, shifts, scalars = zip(*entries)
            coefficients = np.zeros((len(dense), num_primes, n), dtype=np.int64)
            coefficients[list(slots), :, list(shifts)] = [
                [scalar % prime for prime in self.ring.primes] for scalar in scalars
            ]
            spectra[dense] = self.ring.forward_transform(coefficients)
        # Each product is reduced below 2^31 before the sum, so the int64
        # accumulator has room for 2^32 distinct ciphertexts.
        index = np.asarray(list(combining), dtype=np.intp)
        halves = []
        for half in (stack.c0, stack.c1):
            products = half[index]  # fancy indexing copies: safe to update in place
            products *= spectra
            products %= primes_column
            halves.append(products.sum(axis=0) % primes_column)
        return self._wrap_spectra(*halves)

    # -- wire codec ---------------------------------------------------------------------
    _WIRE_HEADER = ">IB"  # ring degree (u32), RNS prime count (u8)
    # A score sample sets the top bit of the prime-count byte and names its run.
    _SAMPLE_FLAG = 0x80
    _SAMPLE_HEADER = ">IBII"  # ring degree, flag | prime count, run start, run length

    def serialize_ciphertext(self, ciphertext: AHECiphertext) -> bytes:
        """Exact wire bytes: header + the (c0, c1) evaluation-domain residues.

        Ciphertexts are NTT-resident (see the module docstring), and the NTT
        for a fixed parameter set is a bijection both parties share, so the
        spectra *are* the canonical wire form — serialization never pays a
        transform.  Each residue is a u32 (< 2^31 prime), so the encoding is
        ``5 + 8·primes·n`` bytes and round-trips bit-identically.

        A score sample is the second form: its header names the run, then
        ``c1``'s spectra and the run's ``c0`` coefficients follow —
        ``13 + 4·primes·(n + length)`` bytes.
        """
        if ciphertext.scheme_name != self.name:
            raise ParameterError(f"cannot serialize a {ciphertext.scheme_name!r} ciphertext")
        payload = ciphertext.payload
        if isinstance(payload, BVSamplePayload):
            header = struct.pack(
                self._SAMPLE_HEADER,
                self.ring.n,
                self._SAMPLE_FLAG | len(self.ring.primes),
                *payload.run,
            )
            return header + payload.c1.astype(">u4").tobytes() + payload.c0.astype(">u4").tobytes()
        header = struct.pack(self._WIRE_HEADER, self.ring.n, len(self.ring.primes))
        return (
            header
            + payload.c0.spectra.astype(">u4").tobytes()
            + payload.c1.spectra.astype(">u4").tobytes()
        )

    def deserialize_ciphertext(
        self, data: bytes, public_key: AHEPublicKey | None = None
    ) -> AHECiphertext:
        header_size = struct.calcsize(self._WIRE_HEADER)
        if len(data) >= header_size and data[header_size - 1] & self._SAMPLE_FLAG:
            return self._deserialize_sample(data)
        if len(data) != self.ciphertext_size_bytes():
            raise WireFormatError(
                f"BV ciphertext frame is {len(data)} bytes, expected "
                f"{self.ciphertext_size_bytes()}"
            )
        n, num_primes = struct.unpack_from(self._WIRE_HEADER, data)
        self._check_wire_parameters(n, num_primes)
        body = np.frombuffer(data, dtype=">u4", offset=header_size)
        halves = body.astype(np.int64).reshape(2, num_primes, n)
        if (halves >= self.ring.primes_column).any():
            raise WireFormatError("BV ciphertext residue exceeds its RNS prime")
        payload = BVCiphertextPayload(
            c0=RingPolynomial.from_spectra(self.ring, halves[0]),
            c1=RingPolynomial.from_spectra(self.ring, halves[1]),
        )
        return AHECiphertext(self.name, payload, self.ciphertext_size_bytes())

    def _deserialize_sample(self, data: bytes) -> AHECiphertext:
        header_size = struct.calcsize(self._SAMPLE_HEADER)
        if len(data) < header_size:
            raise WireFormatError(f"BV score sample of {len(data)} bytes has no run header")
        n, tagged, start, length = struct.unpack_from(self._SAMPLE_HEADER, data)
        self._check_wire_parameters(n, tagged ^ self._SAMPLE_FLAG)
        if not 0 <= start < start + length <= n:
            raise WireFormatError(f"BV score sample run ({start}, {length}) outside [0, {n})")
        if len(data) != self.sample_size_bytes(length):
            raise WireFormatError(
                f"BV score sample of run length {length} is {len(data)} bytes, "
                f"expected {self.sample_size_bytes(length)}"
            )
        num_primes = len(self.ring.primes)
        body = np.frombuffer(data, dtype=">u4", offset=header_size).astype(np.int64)
        c1 = body[: num_primes * n].reshape(num_primes, n)
        c0 = body[num_primes * n :].reshape(num_primes, length)
        if (c1 >= self.ring.primes_column).any() or (c0 >= self.ring.primes_column).any():
            raise WireFormatError("BV score sample residue exceeds its RNS prime")
        payload = BVSamplePayload(c1=c1, start=start, c0=c0)
        return AHECiphertext(self.name, payload, len(data))

    def _check_wire_parameters(self, n: int, num_primes: int) -> None:
        if n != self.ring.n or num_primes != len(self.ring.primes):
            raise WireFormatError(
                f"BV ciphertext parameters (n={n}, primes={num_primes}) do not match "
                f"the scheme (n={self.ring.n}, primes={len(self.ring.primes)})"
            )

    # -- sizes -------------------------------------------------------------------------
    def ciphertext_size_bytes(self) -> int:
        """Exact serialized size: the wire-codec header plus 2·primes·n u32 residues."""
        return struct.calcsize(self._WIRE_HEADER) + 8 * len(self.ring.primes) * self.ring.n

    def sample_size_bytes(self, length: int) -> int:
        """Exact serialized size of a score sample whose run is *length* slots."""
        return struct.calcsize(self._SAMPLE_HEADER) + 4 * len(self.ring.primes) * (
            self.ring.n + length
        )

    # -- misc ---------------------------------------------------------------------------
    def encrypt_zero(self, public_key: AHEPublicKey) -> AHECiphertext:
        """Fresh encryption of the all-zero slot vector (used for re-randomisation)."""
        return self.encrypt_slots(public_key, [])
