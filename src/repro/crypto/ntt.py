"""Negacyclic number-theoretic transform (NTT) over NTT-friendly primes.

The Ring-LWE cryptosystem of §4.1 works in ``Z_q[x]/(x^n + 1)`` with ``q`` a
product of < 2^31 primes; multiplying there is a pointwise product of
negacyclic spectra ``X[k] = Σ_j x[j]·ψ^{j(2k+1)}`` (ψ a primitive ``2n``-th
root of unity), so this transform is the inner loop of key generation,
encryption and decryption.

There is one kernel, over a whole ``(batch, primes, n)`` stack, and it is the
*four-step* decomposition ``n = n1·n2`` (1024 = 32 × 32)::

    X[k1 + n1·k2] = Σ_j2 (ψ^{2·n1})^{j2·k2} · ψ^{j2(2k1+1)} · Σ_j1 x[n2·j1 + j2] · ψ^{n2·j1(2k1+1)}

— a small matrix product, one twiddle pass, a second small matrix product.
The ψ pre-weighting, the output ordering and (for the inverse, which is the
same kernel over mirrored tables) ``n⁻¹`` are folded into the precomputed
matrices.  The products run on float64 BLAS and are nevertheless *exact*:
each operand is split into 16-bit limbs and the tables hold centred residues
(``|entry| < p/2``), so every partial sum is an integer of magnitude below
``2^16 · 2^30 · 2·max(n1, n2) ≤ 2^53`` — exactly representable, hence
independent of summation order, BLAS build and thread count.  Reductions use
a float reciprocal and stay lazy in ``(−p, 2p)`` between steps.  The stack is
processed in chunks that keep the limb temporaries cache-resident.

Everything that depends only on ``(ring_degree, prime-set)`` — the tables and
the spectra of monomials ``x^k`` used for evaluation-domain slot shifts —
lives in an :class:`NttPlan`, cached at module level and shared by every
scheme instance over the same primes; :class:`NttContext` is the single-prime
view of the same kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.crypto.numtheory import (
    find_primitive_root_of_unity,
    invmod,
    is_probable_prime,
)
from repro.exceptions import ParameterError

# Cache of discovered NTT-friendly primes keyed by (bits, order).  The search
# below is a deterministic descending walk, so for a fixed key the cache always
# extends the same sequence and repeated calls agree across schemes.
_PRIME_CACHE: dict[tuple[int, int], list[int]] = {}

# Fully initialised plans keyed by (ring_degree, prime-set).
_PLAN_CACHE: dict[tuple[int, tuple[int, ...]], "NttPlan"] = {}

# Matrix-product operands are split into limbs of this many bits.
_LIMB_BITS = 16
_LIMB = float(1 << _LIMB_BITS)

# Coefficients transformed per chunk: four float64 temporaries of this many
# elements (0.5 MB) stay in L2, and one chunk amortises ~50 NumPy calls.
_CHUNK_COEFFICIENTS = 1 << 14


def ntt_friendly_primes(count: int, bits: int, ring_degree: int) -> list[int]:
    """Return *count* distinct primes ``q ≡ 1 (mod 2*ring_degree)`` of ~*bits* bits.

    The search walks candidates ``c ≡ 1 (mod 2n)`` downward from ``2**bits``,
    so it is deterministic, never revisits a candidate (every prime found is
    distinct by construction), and every returned prime is strictly below
    ``2**bits`` — the bound the transform's exactness argument relies on.
    """
    if ring_degree <= 0 or ring_degree & (ring_degree - 1):
        raise ParameterError("ring_degree must be a power of two")
    if bits > 31:
        raise ParameterError("primes above 31 bits would break the exact float64 transform")
    order = 2 * ring_degree
    key = (bits, order)
    cached = _PRIME_CACHE.setdefault(key, [])
    if len(cached) < count:
        if cached:
            candidate = cached[-1] - order
        else:
            candidate = ((1 << bits) - 1) // order * order + 1
        floor = max(order, 1 << (bits - 2))
        while len(cached) < count:
            if candidate <= floor:
                raise ParameterError("could not find enough distinct NTT primes")
            if is_probable_prime(candidate):
                cached.append(candidate)
            candidate -= order
    return cached[:count]


def get_ntt_plan(ring_degree: int, primes: "list[int] | tuple[int, ...]") -> "NttPlan":
    """Shared, cached :class:`NttPlan` for ``(ring_degree, prime-set)``."""
    key = (ring_degree, tuple(primes))
    cached = _PLAN_CACHE.get(key)
    if cached is None:
        cached = NttPlan(ring_degree, primes)
        _PLAN_CACHE[key] = cached
    return cached


def _power_table(base: int, count: int, prime: int) -> np.ndarray:
    table = np.zeros(count, dtype=np.int64)
    value = 1
    for index in range(count):
        table[index] = value
        value = (value * base) % prime
    return table


class _Tables(NamedTuple):
    """One direction of the four-step kernel, stacked per prime.

    The input is viewed as ``rows × columns``.  Every table comes as a pair:
    the centred residues themselves (multiplying an operand's low limb) and
    the centred residues of ``table · 2^16`` (multiplying its high limb); all
    are float64 with a broadcast axis for the chunk, ``(primes, 1, ·, ·)``.
    """

    rows: int
    columns: int
    first: tuple[np.ndarray, np.ndarray]    # rows × rows, contracts the slow input axis
    twiddle: tuple[np.ndarray, np.ndarray]  # columns × rows, pointwise
    second: tuple[np.ndarray, np.ndarray]   # columns × columns, contracts the other axis


class NttPlan:
    """All reusable transform state for one ``(ring_degree, prime-set)``.

    Transforms take ``(..., num_primes, n)`` integer arrays (any integer
    dtype, any representative of the residues) and return canonical int64
    residues in natural order.  Obtain plans via :func:`get_ntt_plan`; a plan
    pickles as that call, so unpickled rings share the process-wide tables.
    """

    def __init__(self, ring_degree: int, primes: "list[int] | tuple[int, ...]") -> None:
        if ring_degree <= 1 or ring_degree & (ring_degree - 1):
            raise ParameterError("ring degree must be a power of two > 1")
        if not primes:
            raise ParameterError("an NTT plan needs at least one prime")
        order = 2 * ring_degree
        if any((prime - 1) % order for prime in primes):
            raise ParameterError("prime is not NTT-friendly for this ring degree")
        self.n = ring_degree
        self.primes = tuple(primes)
        n1 = 1 << (ring_degree.bit_length() // 2)   # n1 >= n2, both powers of two
        n2 = ring_degree // n1
        # Exactness: a limb (< 2^16) times a centred entry (< p/2), summed over
        # max(n1, n2) terms for each of the two limbs, must stay below 2^53
        # (and lazily reduced values, below 2p, must split into two limbs).
        if max(primes) >> 31 or _LIMB_BITS + max(primes).bit_length() + n1.bit_length() - 1 > 53:
            raise ParameterError(
                f"a degree-{ring_degree} transform modulo {max(primes).bit_length()}-bit "
                "primes would not be exact in float64"
            )
        self._prime_column = np.array(self.primes, dtype=np.int64)[:, None]
        self._prime = self._prime_column.astype(np.float64)[:, :, None]
        # Rounded *up*, so a multiple of p never floors one short and reducing
        # an already-small value lands exactly in [0, p).
        self._prime_inverse = np.nextafter(1.0 / self._prime, 1.0)
        # psi^e for e in [0, 2n), per prime.
        self._psi_powers = np.stack([
            _power_table(find_primitive_root_of_unity(order, prime), order, prime)
            for prime in self.primes
        ])
        odd = 2 * np.arange(n1) + 1                                 # 2·k1 + 1
        slow = n2 * np.arange(n1)[:, None] * odd                    # [j1, k1]
        twist = np.arange(n2)[:, None] * odd                        # [j2, k1]
        fast = 2 * n1 * np.arange(n2)[:, None] * np.arange(n2)      # [k2, j2]
        n_inverse = np.array([invmod(ring_degree, prime) for prime in self.primes])
        self._forward = _Tables(
            n1, n2, self._limb_pair(slow), self._limb_pair(twist), self._limb_pair(fast)
        )
        self._inverse = _Tables(
            n2, n1,
            self._limb_pair(-fast),
            self._limb_pair(-twist.T),
            self._limb_pair(-slow, n_inverse[:, None, None]),
        )
        # Stacked (num_primes, n) spectra of x^k, filled on demand.
        self._monomial_cache: dict[int, np.ndarray] = {}

    def _limb_pair(self, exponents: np.ndarray, scale: "np.ndarray | int" = 1) -> tuple[np.ndarray, np.ndarray]:
        """Centred float64 tables of ``scale·ψ^exponents`` and of ``2^16`` times it."""
        primes = self._prime_column[:, :, None]
        low = np.take(self._psi_powers, exponents % (2 * self.n), axis=1) * scale % primes
        high = (low << _LIMB_BITS) % primes
        return tuple(
            np.where(table > primes // 2, table - primes, table).astype(np.float64)[:, None]
            for table in (low, high)
        )

    # -- the kernel -----------------------------------------------------------
    def _reduce(self, values: np.ndarray, spare: np.ndarray) -> None:
        """``values -= floor(values / p) · p`` in place, off by at most one ``p``."""
        np.multiply(values, self._prime_inverse, out=spare)
        np.floor(spare, out=spare)
        np.multiply(spare, self._prime, out=spare)
        np.subtract(values, spare, out=values)

    @staticmethod
    def _split(values: np.ndarray, low: np.ndarray, high: np.ndarray) -> None:
        """``values = low + 2^16·high`` with ``0 <= low < 2^16`` (exact for integers)."""
        np.multiply(values, 1.0 / _LIMB, out=high)
        np.floor(high, out=high)
        np.multiply(high, _LIMB, out=low)
        np.subtract(values, low, out=low)

    def _transform(self, values: np.ndarray, tables: _Tables) -> np.ndarray:
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            raise ParameterError("NTT operands must have an integer dtype")
        primes = len(self.primes)
        if values.shape[-2:] != (primes, self.n):
            raise ParameterError("expected an array of shape (..., num_primes, n)")
        if values.dtype == np.uint64:
            values = values % self._prime_column.astype(np.uint64)
        stack = values.astype(np.int64, copy=False).reshape(-1, primes, self.n)
        # The limb bound needs operands in [0, 2^32); anything else (negative
        # or wide representatives) is reduced first.
        if stack.size and int(stack.view(np.uint64).max()) >> 32:
            stack = stack % self._prime_column
        result = np.empty(stack.shape, dtype=np.int64)
        rows, columns = tables.rows, tables.columns
        size = max(1, min(len(stack), _CHUNK_COEFFICIENTS // (primes * self.n)))
        workspace = np.empty((4, primes, size, self.n))
        for start in range(0, len(stack), size):
            chunk = stack[start:start + size]
            low, high, work, spare = workspace[:, :, :len(chunk)]
            grid = (primes, len(chunk), columns, rows)
            low_grid, high_grid = low.reshape(grid), high.reshape(grid)
            work_grid, spare_grid = work.reshape(grid), spare.reshape(grid)
            np.copyto(work, chunk.swapaxes(0, 1))
            self._split(work, low, high)
            by_row = (primes, len(chunk), rows, columns)
            np.matmul(low.reshape(by_row).swapaxes(-1, -2), tables.first[0], out=work_grid)
            np.matmul(high.reshape(by_row).swapaxes(-1, -2), tables.first[1], out=spare_grid)
            np.add(work, spare, out=work)
            self._reduce(work, spare)
            self._split(work, low, high)
            np.multiply(low_grid, tables.twiddle[0], out=work_grid)
            np.multiply(high_grid, tables.twiddle[1], out=spare_grid)
            np.add(work, spare, out=work)
            self._reduce(work, spare)
            self._split(work, low, high)
            np.matmul(tables.second[0], low_grid, out=work_grid)
            np.matmul(tables.second[1], high_grid, out=spare_grid)
            np.add(work, spare, out=work)
            self._reduce(work, spare)   # (-p, 2p)
            self._reduce(work, spare)   # [0, p)
            np.copyto(result[start:start + size].swapaxes(0, 1), work, casting="unsafe")
        return result.reshape(values.shape)

    # -- batched transforms (shape (..., num_primes, n)) ----------------------
    def forward(self, residues: np.ndarray) -> np.ndarray:
        """Per-prime forward NTT of a ``(..., num_primes, n)`` residue array."""
        return self._transform(residues, self._forward)

    def inverse(self, spectra: np.ndarray) -> np.ndarray:
        """Per-prime inverse NTT of a ``(..., num_primes, n)`` spectrum array."""
        return self._transform(spectra, self._inverse)

    # -- monomial spectra -----------------------------------------------------
    def monomial_spectra(self, exponent: int) -> np.ndarray:
        """Stacked per-prime spectra of ``x^exponent``, shape ``(num_primes, n)``.

        The exponent is taken mod 2n (``x^n = -1``).  Pointwise multiplication
        by this array shifts slots entirely in the evaluation domain — the
        homomorphic "left shift" of §4.2 without any transform.  The spectrum
        is ``ψ^{exponent·(2k+1)}``, a gather from the ψ power table; results
        are cached (and marked read-only) per exponent.
        """
        exponent %= 2 * self.n
        cached = self._monomial_cache.get(exponent)
        if cached is None:
            odd = 2 * np.arange(self.n) + 1
            cached = np.take(self._psi_powers, exponent * odd % (2 * self.n), axis=1)
            cached.setflags(write=False)
            self._monomial_cache[exponent] = cached
        return cached

    def monomial_spectra_many(self, exponents: "list[int] | tuple[int, ...]") -> np.ndarray:
        """Stacked spectra of many monomials, shape ``(len(exponents), num_primes, n)``.

        This is the batched-shift table: multiplying a ``(B, num_primes, n)``
        ciphertext-component stack by it applies ``x^{exponents[i]}`` to row
        ``i`` in one pointwise pass.  Per-exponent spectra come from the plan
        cache, so repeated shift patterns only pay the ``np.stack`` gather.
        """
        return np.stack([self.monomial_spectra(exponent) for exponent in exponents])


class NttContext:
    """Forward/inverse negacyclic NTT modulo a single prime.

    The single-prime view of the shared kernel: transforms accept arrays of
    shape ``(..., n)`` and operate along the last axis.
    """

    def __init__(self, ring_degree: int, prime: int) -> None:
        self._plan = get_ntt_plan(ring_degree, (prime,))
        self.n = ring_degree
        self.prime = prime

    def _transform(self, values: np.ndarray, tables: _Tables) -> np.ndarray:
        values = np.asarray(values)
        if values.shape[-1:] != (self.n,):
            raise ParameterError("vectors have the wrong length for this ring degree")
        return self._plan._transform(values[..., None, :], tables)[..., 0, :]

    def forward(self, coefficients: np.ndarray) -> np.ndarray:
        """Negacyclic forward transform of a coefficient vector (length n)."""
        if np.shape(coefficients) != (self.n,):
            raise ParameterError("coefficient vector has the wrong length")
        return self._transform(coefficients, self._plan._forward)

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`."""
        if np.shape(spectrum) != (self.n,):
            raise ParameterError("spectrum vector has the wrong length")
        return self._transform(spectrum, self._plan._inverse)

    def forward_many(self, coefficients: np.ndarray) -> np.ndarray:
        """Forward transform along the last axis of an ``(..., n)`` array."""
        return self._transform(coefficients, self._plan._forward)

    def inverse_many(self, spectra: np.ndarray) -> np.ndarray:
        """Inverse transform along the last axis of an ``(..., n)`` array."""
        return self._transform(spectra, self._plan._inverse)

    def multiply(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Negacyclic polynomial product of two coefficient vectors."""
        product = (self.forward(left) * self.forward(right)) % self.prime
        return self.inverse(product)

    def monomial_spectrum(self, exponent: int) -> np.ndarray:
        """Spectrum of ``x^exponent`` — this prime's row of the plan's cached table."""
        return self._plan.monomial_spectra(exponent)[0]
