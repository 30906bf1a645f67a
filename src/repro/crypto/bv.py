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

Performance model (the client hot path of Figs. 6–7): the client's model
lives in the **coefficient domain**, where the realignment ``x^s · C`` of
§4.2 is a negacyclic window of ``C`` and the term frequencies it is scaled by
are small integers.  Key material is transformed once at key generation.
Encryption runs one forward transform of ``u`` and one inverse transform of
``p0̂·û`` and ``p1̂·û`` — three per ciphertext, as many as an evaluation-domain
encryption — and adds ``t·e1 + m`` and ``t·e2`` as coefficients.
:meth:`BVScheme.stack_ciphertexts` lays each model ciphertext out once as a
``[−C | C]`` block whose window ``[n − s, 2n − s)`` is ``x^s · C``, wrap and
sign included; :meth:`BVScheme.combine_windows` then evaluates a dot product
as a gather of windows, an integer ``einsum`` with the frequencies and a
``%`` — no transform.  It computes ``c1`` in full but ``c0`` **only on the
slot run the provider will open** (one coefficient for spam, the output
region for topics): ``n``-wide windows for ``c1``, run-wide windows for
``c0``.  Such a result (:class:`BVRunPayload`) answers only inside its run;
whatever would read ``c0`` elsewhere refuses it.  Spectra appear lazily where
something asks for them: the wire form, and the decryption of a *whole*
ciphertext, which runs one inverse transform and one vectorised CRT.

**Score samples (LWE sample extraction).**  ``Dec(c0, c1)[j] = c0[j] +
(c1·s)[j]``: opening slot ``j`` takes all of ``c1`` but *one coefficient* of
``c0``.  What a client sends the provider to open is therefore not a
ciphertext but a :class:`BVSamplePayload` — ``c1``'s spectra plus the ``c0``
coefficients of the one contiguous slot run the protocol reads
(:meth:`BVScheme.blind_samples`).  The shifted source is a window of its
coefficients, so ``c1`` is one forward transform over ``(u, x^shift·c1_src +
t·e2)`` plus ``p1̂·û``, and the run of ``c0`` is a run-wide window of the
source's ``c0`` — which a client's result holds on that run alone, so the
read must stay inside it — plus ``t·e1``, the message, and the run of
``p0·u``.  Coefficient ``j`` of an
inverse transform is an inner product with ``n⁻¹`` times the spectrum of
``x^{-j} = -x^{n-j}`` (:meth:`~repro.crypto.ringlwe.RingContext.coefficient_run`),
so ``p0·u`` is never formed as a polynomial, and the provider decrypts
``c0[j] + ⟨ĉ1, ŝ ⊙ row_j⟩`` per prime with no inverse transform and a CRT
over the run alone.  The provider's view (``c1`` in full, the run of ``c0``)
is a strict subset of the blinded whole ciphertext it replaces, with ``(u,
e1, e2)`` fresh per sample, so no assumption is added *relative to that
ciphertext*; the slots that never leave need no noise.  This compares views
of the slot only: the provider holds ``s``, so an opened coefficient also
shows it the phase noise beneath the slot, and whether that noise reveals
the email is open (``twopc/blinding.py``).  Caches: per ring, the plan's
monomial spectra (one ``(primes, n)`` row per opened slot or
evaluation-domain shift, at most
``2n`` rows, shared by every scheme over the same primes); per scheme, two
residue tables of ``3`` and ``2·noise_bound + 1`` columns; per key pair,
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
from numpy.lib.stride_tricks import sliding_window_view

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
class BVRunPayload:
    """A dot product computed on one slot run: all of ``c1``, ``c0`` at the run only.

    What :meth:`BVScheme.combine_windows` returns for a run narrower than the
    ring.  ``c1`` is a coefficient-domain polynomial, ``c0`` the ``(primes,
    length)`` coefficients of the run.  Decryption yields the run's values;
    whatever would read ``c0`` elsewhere (:meth:`BVScheme.blind_samples`
    outside the run, ``add``, ``scalar_mul``, ``shift_up``, the wire codec)
    refuses it.
    """

    c1: RingPolynomial
    start: int
    c0: np.ndarray

    @property
    def run(self) -> tuple[int, int]:
        return self.start, self.c0.shape[-1]


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
        # Residues of the few values fresh randomness takes, shape (primes, ·):
        # ternary u in {-1, 0, 1} and t·e for e in [-bound, bound], indexed by
        # the raw draw — a gather instead of `%` passes over whole polynomials.
        bound = self.parameters.noise_bound
        self._ternary_residues = np.arange(-1, 2) % self.ring.primes_column
        self._scaled_noise_residues = (
            self.ring.reduce_scalar(self._plain_modulus)
            * (np.arange(-bound, bound + 1) % self.ring.primes_column)
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
        ``2n`` bytes each for ``e1`` and ``e2`` — the per-ciphertext chunk
        layout of :meth:`encrypt_slots_many`.  With ``prg=None`` the sample
        draws fresh local randomness.
        """
        return self.encrypt_slots_many(public_key, [values], prg)[0]

    def encrypt_slots_many(
        self,
        public_key: AHEPublicKey,
        vectors: Sequence[Sequence[int]],
        prg: Prg | None = None,
    ) -> list[AHECiphertext]:
        """Encrypt ``B`` slot vectors into coefficient-domain ciphertexts, ``3B`` transforms.

        All randomness for the batch is one bulk read (per-ciphertext chunks
        of ``5n`` bytes: ``n`` ternary + ``2n`` + ``2n`` noise) and is
        interpreted through the residue tables in one vectorised gather.
        ``u`` takes one stacked forward transform, ``p0̂·û`` and ``p1̂·û`` one
        stacked inverse transform, and ``t·e1 + m`` and ``t·e2`` are added as
        coefficients: the NTT is an exact bijection mod each prime, so the
        spectra these ciphertexts serialize to are the ones an
        evaluation-domain encryption would produce.  *vectors* may be a
        ``(B, ≤n)`` integer ndarray — the fabrication hot paths pass their
        matrices directly, skipping per-value Python validation.
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
        # CSPRNG (one cheap bulk read).
        chunk = 5 * n
        raw = secure_bytes(chunk * batch) if prg is None else prg.read(chunk * batch)
        block = np.frombuffer(raw, dtype=np.uint8).reshape(batch, chunk)
        spread = np.uint16(2 * self.parameters.noise_bound + 1)
        e1_raw = np.ascontiguousarray(block[:, n : 3 * n]).view(">u2")
        e2_raw = np.ascontiguousarray(block[:, 3 * n :]).view(">u2")
        # Table gathers are (primes, B, n); the transforms take (B, primes, n).
        u_s = ring.forward_transform(
            self._ternary_residues[:, block[:, :n] % np.uint8(3)].swapaxes(0, 1)
        )
        p0u, p1u = ring.inverse_transform(
            np.stack([public.p0.spectra * u_s, public.p1.spectra * u_s]) % primes_column
        )
        c0 = p0u + self._scaled_noise_residues[:, e1_raw % spread].swapaxes(0, 1) + messages
        c1 = p1u + self._scaled_noise_residues[:, e2_raw % spread].swapaxes(0, 1)
        c0 %= primes_column
        c1 %= primes_column
        return [self._ciphertext(c0[b], c1[b]) for b in range(batch)]

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
        over the run only — and yield the run's values, as does a dot product
        computed on a run (:class:`BVRunPayload`, whose ``c1`` pays one forward
        transform); full ciphertexts yield all ``n`` slots.
        """
        secret: BVSecret = keypair.secret.payload
        ring = self.ring
        primes_column = ring.primes_column
        # One vectorised pass per payload form: None = full, else the run.
        forms: dict[tuple[int, int] | None, list[int]] = {}
        for position, ciphertext in enumerate(ciphertexts):
            payload = ciphertext.payload
            run = None if isinstance(payload, BVCiphertextPayload) else payload.run
            forms.setdefault(run, []).append(position)
        slot_lists: list[list[int]] = [[]] * len(ciphertexts)
        for run, positions in forms.items():
            members = [ciphertexts[position].payload for position in positions]
            if run is None:
                c0 = np.stack([member.c0.spectra for member in members])
                c1 = np.stack([member.c1.spectra for member in members])
                phases = ring.inverse_transform(
                    (c0 + c1 * secret.s.spectra % primes_column) % primes_column
                )
            else:
                c0 = np.stack([member.c0 for member in members])
                c1 = np.stack(
                    [
                        member.c1 if isinstance(member, BVSamplePayload) else member.c1.spectra
                        for member in members
                    ]
                )
                phases = (
                    c0 + ring.coefficient_run(c1, *run, weight=secret.s.spectra)
                ) % primes_column
            for position, slots in zip(positions, self._phase_slots(phases)):
                slot_lists[position] = slots
        return slot_lists

    # -- homomorphic operations ----------------------------------------------------
    def _whole(self, ciphertext: AHECiphertext) -> BVCiphertextPayload:
        """The payload of a whole ciphertext; one that covers only a slot run is refused."""
        payload = ciphertext.payload
        if not isinstance(payload, BVCiphertextPayload):
            raise ParameterError(
                f"a ciphertext on slot run {payload.run} has no whole c0 to operate on"
            )
        return payload

    def add(self, left: AHECiphertext, right: AHECiphertext) -> AHECiphertext:
        lp = self._whole(left)
        rp = self._whole(right)
        payload = BVCiphertextPayload(c0=lp.c0.add(rp.c0), c1=lp.c1.add(rp.c1))
        return AHECiphertext(self.name, payload, self.ciphertext_size_bytes())

    def scalar_mul(self, ciphertext: AHECiphertext, scalar: int) -> AHECiphertext:
        if scalar < 0:
            raise ParameterError("scalar must be non-negative")
        payload = self._whole(ciphertext)
        result = BVCiphertextPayload(
            c0=payload.c0.scalar_multiply(scalar),
            c1=payload.c1.scalar_multiply(scalar),
        )
        return AHECiphertext(self.name, result, self.ciphertext_size_bytes())

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
        which only ``c1`` and the run of ``c0`` are ever computed.  The
        sources are read as coefficients (a whole-ciphertext source from the
        wire is inverse-transformed once, lazily), and ``x^shift · source`` is
        a gather of ``[−C | C]`` windows (:meth:`stack_ciphertexts`) — ``n``
        wide for ``c1``, run-wide for ``c0``:

        * one forward transform over ``(u, x^shift·c1_src + t·e2)`` —
          ``2·len(sources)`` polynomials; ``e1`` and the message exist at the
          run only;
        * ``c1 = FT(x^shift·c1_src + t·e2) + p1̂·û``, pointwise;
        * ``c0[j] = (x^shift·c0_src)[j] + (p0·u)[j] + t·e1[j] + noise[j]`` for
          ``j`` in the run: the first term read off the window, the second an
          inner product (:meth:`~repro.crypto.ringlwe.RingContext.coefficient_run`).

        A source computed on a run (:class:`BVRunPayload`) has ``c0`` there
        only, so a sample whose run, shifted back by its shift, leaves the
        source's run is refused; a whole ciphertext's run is ``(0, n)``.

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
        for start, length in runs:
            if not 0 <= start < start + length <= n:
                raise ParameterError(f"slot run ({start}, {length}) outside [0, {n})")
        sources = np.asarray(sources, dtype=np.intp)
        shifts = np.asarray(shifts, dtype=np.intp)
        for source, shift, (start, length) in zip(sources, shifts, runs):
            first, width = self.ciphertext_run(ciphertexts[source])
            read = start - shift
            if width < n and not first <= read < read + length <= first + width:
                raise ParameterError(
                    f"slot run ({start}, {length}) at shift {shift} reads c0 slots "
                    f"[{read}, {read + length}) of a source computed on run ({first}, {width})"
                )
        ends = np.cumsum([length for _, length in runs])
        noise = np.asarray(noise)
        if noise.shape != (ends[-1],) or noise.dtype.kind not in "iu":
            raise ParameterError("blinding noise must be one integer per run slot")
        if int(noise.min()) < 0 or int(noise.max()) >= self.slot_modulus:
            raise ParameterError(f"slot value outside [0, 2^{self.slot_bits})")
        stack = self.stack_ciphertexts(ciphertexts)
        c1_shifted = self._windows_at(stack[:, 1], sources, shifts, (0, n))
        head = 3 * n * count
        size = head + 2 * int(ends[-1])
        raw = secure_bytes(size) if prg is None else prg.read(size)
        block = np.frombuffer(raw, dtype=np.uint8, count=head).reshape(count, 3 * n)
        spread = np.uint16(2 * self.parameters.noise_bound + 1)
        e2_raw = np.ascontiguousarray(block[:, n:]).view(">u2")
        e1_raw = np.frombuffer(raw, dtype=">u2", offset=head)
        # (primes, 2·count, n): u then x^shift·c1_src + t·e2 (two residues, below
        # 2^32, which the transform takes unreduced), handed over batch-major.
        fresh = ring.forward_transform(
            np.concatenate(
                [
                    self._ternary_residues[:, block[:, :n] % np.uint8(3)],
                    self._scaled_noise_residues[:, e2_raw % spread]
                    + c1_shifted.swapaxes(0, 1),
                ],
                axis=1,
            ).swapaxes(0, 1)
        )
        u_s = fresh[:count]
        c1 = (public.p1.spectra * u_s + fresh[count:]) % primes_column
        # What is fresh at the run itself: t·e1 + noise, shape (primes, Σ length).
        at_run = self._scaled_noise_residues[:, e1_raw % spread] + noise
        samples: list[AHECiphertext | None] = [None] * count
        by_run: dict[tuple[int, int], list[int]] = {}
        for position, run in enumerate(runs):
            by_run.setdefault(tuple(run), []).append(position)
        for (start, length), positions in by_run.items():
            p0u = ring.coefficient_run(u_s[positions], start, length, weight=public.p0.spectra)
            source_run = self._windows_at(
                stack[:, 0], sources[positions], shifts[positions], (start, length)
            )
            for row, position in zip(p0u + source_run, positions):
                end = ends[position]
                run_c0 = (row + at_run[:, end - length : end]) % primes_column
                payload = BVSamplePayload(c1=c1[position], start=start, c0=run_c0)
                samples[position] = AHECiphertext(
                    self.name, payload, self.sample_size_bytes(length)
                )
        return samples

    def ciphertext_run(self, ciphertext: AHECiphertext) -> tuple[int, int]:
        payload = ciphertext.payload
        if isinstance(payload, BVCiphertextPayload):
            return 0, self.ring.n
        return payload.run

    def shift_up(self, ciphertext: AHECiphertext, positions: int) -> AHECiphertext:
        """Move slot ``i`` to slot ``i + positions`` via multiplication by ``x^positions``.

        Slots pushed past the top wrap to the bottom *negated* (``x^n = -1``);
        callers must treat the low slots as garbage after a shift, exactly as
        the across-row packing protocol does (§4.2).
        """
        if positions < 0:
            raise ParameterError("shift amount must be non-negative")
        payload = self._whole(ciphertext)
        result = BVCiphertextPayload(
            c0=payload.c0.monomial_multiply(positions),
            c1=payload.c1.monomial_multiply(positions),
        )
        return AHECiphertext(self.name, result, self.ciphertext_size_bytes())

    # -- batched accumulation (the client dot-product hot path, §4.2) ------------
    def stack_ciphertexts(self, ciphertexts: Sequence[AHECiphertext]) -> np.ndarray:
        """Lay ciphertexts out as ``[−C | C]`` blocks, shape ``(count, 2, primes, 2n)``.

        Window ``[n − s, 2n − s)`` of a block is ``x^s · C``, halves ``c0`` and
        ``c1`` alike: coefficient ``j ≥ s`` is ``C[j − s]``, and one below
        ``s`` has wrapped past the top and comes back negated, ``−C[j − s + n]``
        (``x^n = −1``).  Residues are below 2^31, so the uint32 blocks take
        the bytes of the int64 coefficients they are built from.  A dot
        product computed on a run (:class:`BVRunPayload`) fills its ``c0``
        half at that run and zeros elsewhere; :meth:`blind_samples`, which
        stacks such sources, refuses to read ``c0`` outside the run.
        """
        n = self.ring.n
        stack = np.empty((len(ciphertexts), 2, len(self.ring.primes), 2 * n), dtype=np.uint32)
        for block, ciphertext in zip(stack, ciphertexts):
            payload = ciphertext.payload
            if isinstance(payload, BVRunPayload):
                start, length = payload.run
                block[0, :, n:] = 0
                block[0, :, n + start : n + start + length] = payload.c0
            else:
                block[0, :, n:] = payload.c0.residues
            block[1, :, n:] = payload.c1.residues
        primes = self.ring.primes_column.astype(np.uint32)
        negated = stack[..., :n]
        np.subtract(primes, stack[..., n:], out=negated)
        negated[negated == primes] = 0  # p − 0 is the residue 0
        return stack

    def _windows_at(
        self, half: np.ndarray, rows: np.ndarray, shifts: np.ndarray, run: tuple[int, int]
    ) -> np.ndarray:
        """Slots *run* of ``x^shifts[i] · half[rows[i]]`` for every ``i``, one gather.

        *half* is one half of a stack, ``(count, primes, 2n)``; slot ``j`` of
        ``x^s · C`` is entry ``n − s + j`` of its block, so the run is the
        run-wide window there.  Shape ``(terms, primes, length)``.
        """
        n = self.ring.n
        if shifts.size and (shifts.min() < 0 or shifts.max() >= n):
            raise ParameterError("shift amounts must lie in [0, ring degree)")
        start, length = run
        return sliding_window_view(half, length, axis=-1)[rows, :, n - shifts + start]

    def combine_windows(
        self,
        stack: np.ndarray,
        rows: Sequence[int],
        scalars: Sequence[int],
        shifts: Sequence[int],
        run: tuple[int, int],
    ) -> AHECiphertext:
        """``Σ_i scalars[i] · x^shifts[i] · stack[rows[i]]``, with ``c0`` computed on *run* only.

        ``c1`` is one gather of ``(terms, primes, n)`` windows and ``c0`` one
        of ``(terms, primes, length)`` windows at the run, each summed by an
        integer ``einsum`` with the scalars reduced per prime and one ``%``:
        the result is a whole coefficient-domain ciphertext when *run* is
        ``(0, n)`` and a :class:`BVRunPayload` otherwise.  Window entries and
        reduced scalars are below 2^31, so terms are summed in chunks that
        cannot overflow int64; for the small frequencies of Fig. 3's
        quantisation that is a single chunk.
        """
        ring = self.ring
        n = ring.n
        start, length = run
        if not 0 <= start < start + length <= n:
            raise ParameterError(f"slot run ({start}, {length}) outside [0, {n})")
        rows = np.asarray(rows, dtype=np.intp)
        shifts = np.asarray(shifts, dtype=np.intp)
        if not len(rows) == len(scalars) == len(shifts):
            raise ParameterError("rows, scalars and shifts must have equal length")
        # (terms, primes): each scalar reduced modulo each prime, exactly.
        weights = np.array(
            [[scalar % prime for prime in ring.primes] for scalar in scalars], dtype=np.int64
        ).reshape(len(rows), len(ring.primes))
        # A partial sum below p plus `chunk` terms below max(weights)·2^31 stays below 2^63.
        chunk = ((1 << 32) - 1) // max(1, int(weights.max(initial=0)))
        c0 = np.zeros((len(ring.primes), length), dtype=np.int64)
        c1 = np.zeros((len(ring.primes), n), dtype=np.int64)
        for first in range(0, len(rows), chunk):
            terms = slice(first, first + chunk)
            for total, half, window in ((c0, 0, run), (c1, 1, (0, n))):
                total += np.einsum(
                    "tpj,tp->pj",
                    self._windows_at(stack[:, half], rows[terms], shifts[terms], window),
                    weights[terms],
                )
                total %= ring.primes_column
        if length == n:
            return self._ciphertext(c0, c1)
        # Never on the wire: only score samples blinded from it are.
        payload = BVRunPayload(c1=RingPolynomial(ring, c1), start=start, c0=c0)
        return AHECiphertext(self.name, payload, 0)

    def _ciphertext(self, c0: np.ndarray, c1: np.ndarray) -> AHECiphertext:
        """Wrap two coefficient-domain ``(primes, n)`` residue arrays as a ciphertext."""
        payload = BVCiphertextPayload(
            c0=RingPolynomial(self.ring, c0), c1=RingPolynomial(self.ring, c1)
        )
        return AHECiphertext(self.name, payload, self.ciphertext_size_bytes())

    # -- wire codec ---------------------------------------------------------------------
    _WIRE_HEADER = ">IB"  # ring degree (u32), RNS prime count (u8)
    # A score sample sets the top bit of the prime-count byte and names its run.
    _SAMPLE_FLAG = 0x80
    _SAMPLE_HEADER = ">IBII"  # ring degree, flag | prime count, run start, run length

    def serialize_ciphertext(self, ciphertext: AHECiphertext) -> bytes:
        """Exact wire bytes: header + the (c0, c1) evaluation-domain residues.

        The NTT for a fixed parameter set is a bijection both parties share,
        so the spectra are the canonical wire form; a coefficient-domain
        ciphertext (see the module docstring) pays its forward transforms
        here, once, and caches them.  Each residue is a u32 (< 2^31 prime),
        so the encoding is ``5 + 8·primes·n`` bytes and round-trips
        bit-identically.

        A score sample is the second form: its header names the run, then
        ``c1``'s spectra and the run's ``c0`` coefficients follow —
        ``13 + 4·primes·(n + length)`` bytes.  A dot product computed on a
        run is neither and is refused: only what is blinded from it leaves.
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
        payload = self._whole(ciphertext)
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
