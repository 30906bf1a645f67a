"""Polynomial-ring arithmetic for the Ring-LWE cryptosystem of §4.1.

Elements of ``R_q = Z_q[x]/(x^n + 1)`` are stored in a residue-number-system
(RNS / "double-CRT") representation: one NumPy int64 vector per 31-bit prime
factor of ``q``.  Each element carries *two* interchangeable forms:

* **coefficient domain** (``residues``) — the polynomial's coefficients mod
  each prime; and
* **evaluation domain** (``spectra``) — its negacyclic NTT per prime, where
  ring multiplication is a pointwise product.

Either form is materialised lazily from the other and cached, so key material
is transformed once at key generation and a ciphertext stays in the domain
its producer left it in: fresh encryptions and the client's dot products in
the coefficient domain, where a slot shift is a window (:mod:`repro.crypto.bv`),
wire-decoded ciphertexts in the evaluation domain.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.ntt import get_ntt_plan, ntt_friendly_primes
from repro.crypto.numtheory import invmod
from repro.crypto.prg import Prg
from repro.exceptions import ParameterError
from repro.utils.rand import secure_bytes

# Slot runs up to this long are read as inner products with cached monomial
# spectra.  Measured at n = 1024: one inverse transform costs a lone polynomial
# what ~4 rows do (a batch of ten, ~12), and the protocols' short runs are 1 and 2.
ROW_RUN_LIMIT = 4


class RingContext:
    """Shared parameters for polynomials in ``Z_q[x]/(x^n + 1)`` with RNS modulus q."""

    def __init__(self, ring_degree: int, primes: list[int]) -> None:
        if not primes:
            raise ParameterError("at least one RNS prime is required")
        self.n = ring_degree
        self.primes = list(primes)
        self.modulus = 1
        for prime in primes:
            self.modulus *= prime
        # All transform state (four-step tables, stacked monomial spectra)
        # lives in the shared per-(degree, prime-set) plan.
        self.plan = get_ntt_plan(ring_degree, primes)
        # Broadcast helper: shape (num_primes, 1) so (primes, n) arrays reduce
        # prime-wise with a single vectorised `%`.
        self.primes_column = np.array(self.primes, dtype=np.int64)[:, None]
        self.primes_column.setflags(write=False)
        if max(primes) * ring_degree >> 47:
            raise ParameterError("ring too large for exact int64 inner products")
        # n⁻¹ per prime, the scale of one inverse-transform coefficient.
        self._degree_inverse = np.array(
            [[invmod(ring_degree, prime)] for prime in primes], dtype=np.int64
        )
        # Garner mixed-radix precomputation for CRT reconstruction:
        # prefix_i = p_0 * ... * p_{i-1} (prefix_0 = 1), each reduced modulo
        # every later prime, plus the inverse of prefix_j mod p_j that the
        # digit extraction divides by.
        self._garner_prefixes: list[int] = []
        prefix = 1
        for prime in primes:
            self._garner_prefixes.append(prefix)
            prefix *= prime
        self._garner_prefix_mod = [
            [self._garner_prefixes[i] % primes[j] for i in range(j)]
            for j in range(len(primes))
        ]
        self._garner_prefix_inv = [
            invmod(self._garner_prefixes[j] % primes[j], primes[j])
            for j in range(len(primes))
        ]
        # With ≤ 31-bit primes the mixed-radix digits are always int64-safe;
        # the final recombination stays int64 whenever q itself fits.
        self._int64_crt = self.modulus < (1 << 62)

    @classmethod
    def create(
        cls,
        ring_degree: int = 1024,
        prime_bits: int = 31,
        prime_count: int = 2,
    ) -> "RingContext":
        """Build a context with freshly discovered NTT-friendly primes."""
        primes = ntt_friendly_primes(prime_count, prime_bits, ring_degree)
        return cls(ring_degree, primes)

    def __reduce__(self):
        # Everything here is derived from (degree, primes): pickles carry only
        # those and an unpickled context shares the process-wide NTT plan.
        return type(self), (self.n, self.primes)

    @property
    def modulus_bits(self) -> int:
        return self.modulus.bit_length()

    # -- transforms ----------------------------------------------------------
    def forward_transform(self, residues: np.ndarray) -> np.ndarray:
        """Per-prime forward NTT of a ``(..., num_primes, n)`` residue array."""
        return self.plan.forward(residues)

    def inverse_transform(self, spectra: np.ndarray) -> np.ndarray:
        """Per-prime inverse NTT of a ``(..., num_primes, n)`` spectrum array."""
        return self.plan.inverse(spectra)

    def monomial_spectra_many(self, exponents: list[int] | tuple[int, ...]) -> np.ndarray:
        """Stacked spectra for many shifts, shape ``(len(exponents), num_primes, n)``."""
        return self.plan.monomial_spectra_many(exponents)

    def coefficient_run(
        self, spectra: np.ndarray, start: int, length: int, weight: np.ndarray | None = None
    ) -> np.ndarray:
        """Coefficients ``start .. start + length - 1`` of ``inverse_transform(spectra ⊙ weight)``.

        Coefficient ``j`` of an inverse transform is ``n⁻¹ · Σ_k X[k]·ψ^{-j(2k+1)}``:
        an inner product with ``n⁻¹`` times the spectrum of ``x^{-j}``
        (``= -x^{n-j}``), which the plan's monomial table already caches.  A
        short run is therefore ``length`` inner products and no transform; the
        *weight* (one ``(num_primes, n)`` spectrum, e.g. a secret key) folds
        into the rows, not into the batch.  A run longer than
        :data:`ROW_RUN_LIMIT` slots costs more that way than one inverse
        transform and a slice.  *spectra* must be canonical residues, shape
        ``(..., num_primes, n)``; the result is ``(..., num_primes, length)``.

        No product is reduced on the way: each row is split into 16-bit limbs,
        so a partial sum is below ``n · 2^16 · max(prime) < 2^63`` (checked at
        construction) and only the ``length`` sums see a ``%``.
        """
        if not 0 <= start < start + length <= self.n:
            raise ParameterError(f"slot run ({start}, {length}) outside [0, {self.n})")
        if length > ROW_RUN_LIMIT:
            if weight is not None:
                spectra = spectra * weight % self.primes_column
            return self.inverse_transform(spectra)[..., start : start + length]
        rows = self.monomial_spectra_many([-slot for slot in range(start, start + length)])
        if weight is not None:
            rows = rows * weight % self.primes_column
        primes = self.primes_column[:, 0]
        batch = spectra[..., None, :, :]
        low = (batch * (rows & 0xFFFF)).sum(axis=-1) % primes
        high = (batch * (rows >> 16)).sum(axis=-1) % primes
        sums = (low + (high << 16)) % primes * self._degree_inverse[:, 0] % primes
        return np.swapaxes(sums, -1, -2)

    def reduce_scalar(self, scalar: int) -> np.ndarray:
        """Reduce an integer modulo every prime; shape ``(num_primes, 1)``."""
        return np.array([scalar % prime for prime in self.primes], dtype=np.int64)[:, None]

    # -- CRT reconstruction ---------------------------------------------------
    def crt_reconstruct_array(self, residues: np.ndarray) -> np.ndarray:
        """Combine RNS residues (shape ``(..., num_primes, n)``) into centered integers.

        Garner's mixed-radix algorithm with the tables precomputed in
        ``__init__``: every digit extraction is a vectorised int64 pass (the
        operands are all below the 31-bit primes, so products stay under
        2^62), and the final recombination stays int64 whenever ``q`` fits —
        the default two-prime parameter set — so a whole decrypt stack never
        leaves machine words.  When ``q`` exceeds 62 bits only the single
        final combination touches object dtype (once per stack, not once per
        element).  Residues must be machine integers — every caller holds
        int64 residues — so object-dtype input is refused.  The tests pin the
        output values and shape ``(..., n)`` against the textbook
        ``Σ r_i·M_i·(M_i⁻¹ mod p_i) mod q`` over Python integers.
        """
        if residues.dtype == object:
            raise ParameterError("CRT reconstruction takes integer residue arrays, not object dtype")
        q = self.modulus
        half = q // 2
        primes = self.primes
        reduced = residues.astype(np.int64) % self.primes_column
        digits = [reduced[..., 0, :]]
        for j in range(1, len(primes)):
            prime_j = primes[j]
            partial = digits[0] % prime_j
            for i in range(1, j):
                partial = (partial + digits[i] * self._garner_prefix_mod[j][i]) % prime_j
            digits.append(
                (reduced[..., j, :] - partial) * self._garner_prefix_inv[j] % prime_j
            )
        if self._int64_crt:
            total = digits[0]
            for j in range(1, len(primes)):
                total = total + digits[j] * self._garner_prefixes[j]
        else:
            total = digits[0].astype(object)
            for j in range(1, len(primes)):
                total = total + digits[j].astype(object) * self._garner_prefixes[j]
        # Mixed-radix recombination is exact and already below q — no final
        # big-integer modulo is needed, only the centering.
        return np.where(total > half, total - q, total)


class RingPolynomial:
    """A ring element in RNS representation with lazily cached dual domains.

    At least one of ``residues`` (coefficient domain) and ``spectra``
    (evaluation domain) is always present; accessing the missing one runs the
    per-prime (inverse) NTT once and caches the result.  Arithmetic operates
    in whichever domain both operands already inhabit, so chains of
    homomorphic operations on evaluation-domain ciphertexts never transform.
    """

    __slots__ = ("context", "_residues", "_spectra")

    def __init__(
        self,
        context: RingContext,
        residues: np.ndarray | None = None,
        spectra: np.ndarray | None = None,
    ) -> None:
        if residues is None and spectra is None:
            raise ParameterError("a ring element needs residues or spectra")
        self.context = context
        self._residues = residues
        self._spectra = spectra

    # -- domain access -----------------------------------------------------
    @property
    def residues(self) -> np.ndarray:
        """Coefficient-domain form, shape ``(num_primes, n)`` (lazily materialised)."""
        if self._residues is None:
            self._residues = self.context.inverse_transform(self._spectra)
        return self._residues

    @property
    def spectra(self) -> np.ndarray:
        """Evaluation-domain form, shape ``(num_primes, n)`` (lazily materialised)."""
        if self._spectra is None:
            self._spectra = self.context.forward_transform(self._residues)
        return self._spectra

    @classmethod
    def from_int_coefficients(cls, context: RingContext, coefficients: list[int]) -> "RingPolynomial":
        """Build from signed integer coefficients (reduced modulo each prime)."""
        if len(coefficients) > context.n:
            raise ParameterError("too many coefficients for the ring degree")
        residues = np.zeros((len(context.primes), context.n), dtype=np.int64)
        if coefficients:
            try:
                signed = np.asarray(coefficients, dtype=np.int64)
            except OverflowError:
                for prime_index, prime in enumerate(context.primes):
                    row = [coefficient % prime for coefficient in coefficients]
                    residues[prime_index, : len(row)] = row
                return cls(context, residues)
            residues[:, : len(coefficients)] = signed[None, :] % context.primes_column
        return cls(context, residues)

    @classmethod
    def from_spectra(cls, context: RingContext, spectra: np.ndarray) -> "RingPolynomial":
        """Wrap an already-reduced evaluation-domain array (no copy)."""
        return cls(context, spectra=spectra)

    @classmethod
    def sample_uniform(cls, context: RingContext, prg: Prg | None = None) -> "RingPolynomial":
        """Uniform ring element (public-key component ``a``).

        Coefficients are drawn independently per RNS prime by reducing 64-bit
        PRG words modulo each < 2^31 prime; the modulo bias is below 2^-33.
        """
        prg = prg or Prg(secure_bytes(32), domain=b"ring-uniform")
        residues = np.zeros((len(context.primes), context.n), dtype=np.int64)
        for prime_index, prime in enumerate(context.primes):
            raw = np.frombuffer(prg.read(8 * context.n), dtype=">u8")
            residues[prime_index] = (raw % np.uint64(prime)).astype(np.int64)
        return cls(context, residues)

    @classmethod
    def _from_signed_vector(cls, context: RingContext, signed: np.ndarray) -> "RingPolynomial":
        return cls(context, signed[None, :] % context.primes_column)

    @classmethod
    def sample_ternary(cls, context: RingContext, prg: Prg | None = None) -> "RingPolynomial":
        """Ternary element with coefficients in {-1, 0, 1} (secrets, encryption randomness)."""
        prg = prg or Prg(secure_bytes(32), domain=b"ring-ternary")
        raw = np.frombuffer(prg.read(context.n), dtype=np.uint8)
        signed = (raw % np.uint8(3)).astype(np.int64) - 1
        return cls._from_signed_vector(context, signed)

    @classmethod
    def sample_noise(cls, context: RingContext, bound: int = 4, prg: Prg | None = None) -> "RingPolynomial":
        """Small noise element with coefficients uniform in ``[-bound, bound]``."""
        if bound < 0:
            raise ParameterError("noise bound must be non-negative")
        prg = prg or Prg(secure_bytes(32), domain=b"ring-noise")
        raw = np.frombuffer(prg.read(2 * context.n), dtype=">u2")
        signed = (raw % np.uint16(2 * bound + 1)).astype(np.int64) - bound
        return cls._from_signed_vector(context, signed)

    # -- arithmetic ----------------------------------------------------------
    def _check_same_ring(self, other: "RingPolynomial") -> None:
        if self.context is not other.context and self.context.primes != other.context.primes:
            raise ParameterError("ring elements belong to different rings")

    def _pair_arrays(self, other: "RingPolynomial") -> tuple[np.ndarray, np.ndarray, bool]:
        """Pick the domain for a linear operation: ``(left, right, in_spectra)``.

        Linear maps commute with the NTT, so addition and negation are valid
        pointwise in either domain; prefer the one both operands already have
        (evaluation domain wins ties).
        """
        if self._spectra is not None and other._spectra is not None:
            return self._spectra, other._spectra, True
        if self._residues is not None and other._residues is not None:
            return self._residues, other._residues, False
        return self.spectra, other.spectra, True

    def _wrap(self, array: np.ndarray, in_spectra: bool) -> "RingPolynomial":
        if in_spectra:
            return RingPolynomial(self.context, spectra=array)
        return RingPolynomial(self.context, residues=array)

    def add(self, other: "RingPolynomial") -> "RingPolynomial":
        self._check_same_ring(other)
        left, right, in_spectra = self._pair_arrays(other)
        return self._wrap((left + right) % self.context.primes_column, in_spectra)

    def negate(self) -> "RingPolynomial":
        in_spectra = self._spectra is not None
        array = self._spectra if in_spectra else self._residues
        return self._wrap((-array) % self.context.primes_column, in_spectra)

    def scalar_multiply(self, scalar: int) -> "RingPolynomial":
        """Multiply every coefficient by an integer constant."""
        in_spectra = self._spectra is not None
        array = self._spectra if in_spectra else self._residues
        reduced = self.context.reduce_scalar(scalar)
        return self._wrap(array * reduced % self.context.primes_column, in_spectra)

    def monomial_multiply(self, exponent: int) -> "RingPolynomial":
        """Multiply by ``x^exponent`` in the negacyclic ring.

        Coefficient ``i`` moves to ``i + exponent``; coefficients that wrap
        past ``n`` reappear at the bottom negated (because ``x^n = -1``).
        This is the homomorphic "shift" operation Pretzel's packing uses
        (§4.2, §4.3).  Evaluation-domain elements shift via a pointwise
        product with the cached spectrum of ``x^exponent`` — no transform.
        """
        n = self.context.n
        exponent %= 2 * n
        if self._spectra is not None:
            mono = self.context.plan.monomial_spectra(exponent)
            spectra = self._spectra * mono % self.context.primes_column
            return RingPolynomial(self.context, spectra=spectra)
        effective = exponent % n
        sign_flip = (exponent // n) % 2 == 1
        residues = np.empty_like(self._residues)
        for index, prime in enumerate(self.context.primes):
            row = self._residues[index]
            if effective == 0:
                shifted = row.copy()
            else:
                shifted = np.empty_like(row)
                shifted[effective:] = row[: n - effective]
                shifted[:effective] = (-row[n - effective :]) % prime
            if sign_flip:
                shifted = (-shifted) % prime
            residues[index] = shifted
        return RingPolynomial(self.context, residues)

    def multiply(self, other: "RingPolynomial") -> "RingPolynomial":
        """Full negacyclic polynomial product — pointwise in the evaluation domain."""
        self._check_same_ring(other)
        spectra = self.spectra * other.spectra % self.context.primes_column
        return RingPolynomial(self.context, spectra=spectra)

    def serialized_size_bytes(self) -> int:
        """Wire size: n coefficients of ceil(log2 q) bits each."""
        return (self.context.n * self.context.modulus_bits + 7) // 8
