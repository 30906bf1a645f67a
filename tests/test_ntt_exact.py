"""The four-step float64 NTT is *exact*: pins, properties and refusals.

Spectra are on the wire, in stored models and under other tests' digests, so
the kernel must return the same canonical residues as the radix-2 butterfly
loop it replaced.  The ``GOLDEN`` digests below were produced by that loop
(the commit before the rewrite) with the recipe in this file, so they pin the
rewrite without keeping a second transform in ``src/``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ntt import NttContext, NttPlan, get_ntt_plan, ntt_friendly_primes
from repro.exceptions import ParameterError

DEGREES = (4, 16, 64, 256, 1024)
PRIME_COUNTS = (1, 2, 3)
# Straddle the chunk boundary: at n = 1024 one chunk holds 16 / 8 / 5 polynomials.
BATCHES = (1, 3, 4, 5, 9, 33)


def negacyclic_multiply_reference(left: np.ndarray, right: np.ndarray, prime: int) -> np.ndarray:
    """O(n²) schoolbook negacyclic product in Python integers."""
    n = len(left)
    result = [0] * n
    for i in range(n):
        for j in range(n):
            term = int(left[i]) * int(right[j])
            if i + j >= n:
                result[i + j - n] -= term
            else:
                result[i + j] += term
    return np.array([value % prime for value in result], dtype=np.int64)


def _seeded_stack(degree, primes, batch):
    """``(batch, len(primes), degree)`` residues from SHAKE-256 — NumPy-version independent."""
    column = np.array(primes, dtype=np.uint64)[:, None]
    seed = f"ntt-exact/{degree}/{len(primes)}/{batch}".encode()
    raw = hashlib.shake_256(seed).digest(8 * batch * len(primes) * degree)
    words = np.frombuffer(raw, dtype="<u8").reshape(batch, len(primes), degree)
    return (words % column).astype(np.int64)


def _adversarial_stack(degree, primes):
    """All 0, all ``p - 1``, one-hot (last slot), alternating 0 / ``p - 1``."""
    top = np.array(primes, dtype=np.int64)[:, None] - 1
    stack = np.zeros((4, len(primes), degree), dtype=np.int64)
    stack[1] = top
    stack[2, :, degree - 1] = 1
    stack[3, :, 1::2] = top
    return stack


def _golden_digests(degree, prime_count):
    primes = ntt_friendly_primes(prime_count, 31, degree)
    plan = get_ntt_plan(degree, primes)
    stacks = [_seeded_stack(degree, primes, batch) for batch in BATCHES]
    stacks.append(_adversarial_stack(degree, primes))
    forward, inverse = hashlib.sha256(), hashlib.sha256()
    for stack in stacks:
        forward.update(plan.forward(stack).astype("<i8").tobytes())
        inverse.update(plan.inverse(stack).astype("<i8").tobytes())
    return forward.hexdigest(), inverse.hexdigest()


# (degree, prime count) -> (forward digest, inverse digest)
GOLDEN = {
    (4, 1): (
        "1f6c84138e35ee0da271619afa1dad578508acc2849bdfa61f6de24f46cd57b5",
        "3ed8dca91c91cc140ec950e335595ad01bb1291d1e77bb1ac3fb764d11ad12ec",
    ),
    (4, 2): (
        "06516d82ec4644f8ce8d87568c4550d37b9cfd1bc386dc2cf20480629c63316f",
        "e1025612780f2b4558b7fac5b75cb62e052ead30c278d72a90458a0ba2b716e5",
    ),
    (4, 3): (
        "8fd3d1a74b3793306a1d57ee7cd3f8cbbac552d4e79f6f74f0fcaf2c861d018e",
        "dd50df585c1cd3e2137244885b082b7c1c0f2638de97e62b0c0a11a3989830f0",
    ),
    (16, 1): (
        "67faa1d7ffe14de256449458e70bff1087eff466576620e9966acededcbfe13e",
        "45330653d2bda568062e60178738948d85a2be3f785165ecd76d9a7472f758a1",
    ),
    (16, 2): (
        "8e491b60359c517a4a92f7b0f05ae7360110039f2b097c9930a4bf8755d83c1f",
        "627427aa73b36e4f967516c91d009cbd553c0854658fd696ca94e284ee3a3b68",
    ),
    (16, 3): (
        "6e87f94dc2da613ff2784a77aaa0bd066adf16215811606163527ba6cf70b62d",
        "0b575f90ce7046bfc633ef4cf68c1e276cfd3293725a64a99af00ef3b41c6213",
    ),
    (64, 1): (
        "48303ae7e06cc108bfeb8a588560cef70fc6b825420b9020c2e2b00e269b9d75",
        "171dacd178305867df43d57563218a5848b9c8c5b8af72bfcbf112f24cde55c9",
    ),
    (64, 2): (
        "d20cf396e4fc9fa9753e4f7d133983c6bc76de17715a6c9cd5c5b5c598216168",
        "023e26d5714f687e81f005ed43d4a0f6f545ba15e2459c6054a416045dbc4482",
    ),
    (64, 3): (
        "79a635f574ed93af3c1fb918e2cf7c0d3cbbb625130c8df5728b443407bff731",
        "eb4ead050d1e3519dbb1d68b2cd3cf29b1599e04d179c9cb9ba545d18dd9866f",
    ),
    (256, 1): (
        "2bf59989a1d11f9721e7cff1255c955b0e525d896ea0725c2b303c3beb365f05",
        "d7d4008967205aa2bb3476ab0ef2d1dadc332c2e4dd727dabbf93b59b516297d",
    ),
    (256, 2): (
        "bed805b0405ed0b86af2fc7a2b574934062925fe756243c288ad829a5fc80150",
        "2470f77bde65149af60d00e4b5dbc8efd93bf38913480c757ce8ba183a40cfe0",
    ),
    (256, 3): (
        "8b89196a3a1dd676251ca9159c0c7b6a67f407116203841e6be1129ef31a198e",
        "1413bfce5b0fd65cfafee72abb09d63c33f792c5a959700e1c8b5dc3eddc7db1",
    ),
    (1024, 1): (
        "8644f7bc0032bc499cae56d350bf8fecd229a73efea8d7807d2a102e007a6c15",
        "0a9350dd8159d354282ba01e4086c4294757e1dfe6220820cb6da363a8994083",
    ),
    (1024, 2): (
        "853e04f2780707934aac65f7308b74e4dc321ab794532b69bcaa1e9e2ead165c",
        "b380072a431c471f44f637e98ab22a60fa1dc94e049f7268efa3f9ad4338f139",
    ),
    (1024, 3): (
        "844f9d3387f935df1579c4cfd3e97efc30fb34d635543d453665866dabcdc082",
        "f67c2d2c793d786b9d07f23e6c26b1c951a167677f24604e65a622f0431edfce",
    ),
}


def _exact_matmul(left, right, out):
    """``np.matmul`` without BLAS or floating-point summation: int64 einsum."""
    out[...] = np.einsum(
        "...ij,...jk->...ik", left.astype(np.int64), right.astype(np.int64)
    )
    return out


class TestGoldenSpectra:
    @pytest.mark.parametrize("degree", DEGREES)
    @pytest.mark.parametrize("prime_count", PRIME_COUNTS)
    def test_outputs_match_the_butterfly_loop(self, degree, prime_count):
        assert _golden_digests(degree, prime_count) == GOLDEN[degree, prime_count]

    @pytest.mark.parametrize("degree", (16, 256, 1024))
    def test_bytes_do_not_depend_on_blas(self, degree, monkeypatch):
        # Every partial sum is an exactly representable integer, so swapping
        # the float64 BLAS product for integer arithmetic changes no byte.
        monkeypatch.setattr(np, "matmul", _exact_matmul)
        assert _golden_digests(degree, 2) == GOLDEN[degree, 2]


class TestSchoolbook:
    def test_multiply_matches_reference(self):
        prime = ntt_friendly_primes(1, 31, 64)[0]
        context = NttContext(64, prime)
        rng = np.random.default_rng(1)
        a = rng.integers(0, prime, 64)
        b = rng.integers(0, prime, 64)
        assert np.array_equal(context.multiply(a, b), negacyclic_multiply_reference(a, b, prime))

    @given(
        degree=st.sampled_from([2, 4, 8, 16, 32, 64, 128]),
        prime_bits=st.sampled_from([20, 31]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_multiply_matches_reference_across_degrees(self, degree, prime_bits, seed):
        prime = ntt_friendly_primes(1, prime_bits, degree)[0]
        context = NttContext(degree, prime)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, prime, degree)
        b = rng.integers(0, prime, degree)
        assert np.array_equal(
            context.multiply(a, b), negacyclic_multiply_reference(a, b, prime)
        )


class TestExactnessBound:
    def test_degree_beyond_the_bound_is_refused(self):
        # 16-bit limbs x 31-bit primes x 128-term sums need 54 bits.
        primes = ntt_friendly_primes(1, 31, 8192)
        with pytest.raises(ParameterError, match="exact"):
            NttPlan(8192, primes)

    def test_primes_above_31_bits_are_refused_at_any_degree(self):
        with pytest.raises(ParameterError, match="exact"):
            NttPlan(2, (2**32 + 1,))

    def test_bound_follows_the_prime_size(self):
        plan = NttPlan(8192, ntt_friendly_primes(1, 30, 8192))
        one_hot = np.zeros((1, 8192), dtype=np.int64)
        one_hot[0, 5] = 1
        assert np.array_equal(plan.forward(one_hot), plan.monomial_spectra(5))

    def test_largest_31_bit_degree_is_exact_at_the_extremes(self):
        # n = 4096 sits exactly on the bound: all-(p-1) operands make every
        # limb and every partial sum as large as it can get.
        primes = ntt_friendly_primes(2, 31, 4096)
        plan = NttPlan(4096, primes)
        top = np.array(primes, dtype=np.int64)[:, None] - 1
        stack = np.broadcast_to(top, (2, 4096)).copy()
        # -(1 + x + ... + x^(n-1)) at ζ = ψ^(2k+1) is -(ζ^n - 1)/(ζ - 1) = 2/(ζ - 1).
        expected = np.array([
            [2 * pow(int(zeta) - 1, -1, prime) % prime for zeta in row]
            for row, prime in zip(plan.monomial_spectra(1), primes)
        ])
        assert np.array_equal(plan.forward(stack), expected)
        assert np.array_equal(plan.inverse(plan.forward(stack)), stack)
        assert np.array_equal(plan.forward(plan.inverse(stack)), stack)

    def test_reduction_of_small_values_is_canonical(self):
        # The final pass relies on the rounded-up reciprocal: p itself and
        # its neighbours must land in [0, p), never on p.
        primes = ntt_friendly_primes(3, 31, 1024) + ntt_friendly_primes(1, 12, 8)
        for prime in primes:
            plan = NttPlan(8, (prime,))
            edge = [-prime + 1, -1, 0, 1, prime - 1, prime, prime + 1, 2 * prime - 1]
            values = np.array(edge, dtype=np.float64).reshape(1, 1, 8)
            plan._reduce(values, np.empty_like(values))
            assert values.ravel().tolist() == [value % prime for value in edge]


class TestOperands:
    @pytest.fixture(scope="class")
    def plan(self):
        return get_ntt_plan(256, ntt_friendly_primes(2, 31, 256))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int32, np.uint32, np.uint64])
    def test_narrow_integer_input_returns_full_width_residues(self, plan, dtype):
        # Regression: the result used to be allocated in the *input's* dtype,
        # wrapping 31-bit residues into it.
        rng = np.random.default_rng(7)
        info = np.iinfo(dtype)
        values = rng.integers(info.min, info.max, size=(3, 2, 256), dtype=dtype, endpoint=True)
        wide = values.astype(object) % np.array(plan.primes, dtype=object)[:, None]
        for transform in (plan.forward, plan.inverse):
            result = transform(values)
            assert result.dtype == np.int64
            assert np.array_equal(result, transform(wide.astype(np.int64)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_, object, np.complex128])
    def test_non_integer_dtype_is_refused(self, plan, dtype):
        with pytest.raises(ParameterError, match="integer dtype"):
            plan.forward(np.zeros((2, 256), dtype=dtype))
        with pytest.raises(ParameterError, match="integer dtype"):
            NttContext(256, plan.primes[0]).inverse_many(np.zeros((4, 256), dtype=dtype))

    def test_any_representative_gives_the_canonical_spectrum(self, plan):
        stack = _seeded_stack(256, plan.primes, 5)
        column = np.array(plan.primes, dtype=np.int64)[:, None]
        expected = plan.forward(stack)
        assert np.array_equal(plan.forward(stack - column), expected)         # negative
        assert np.array_equal(plan.forward(stack + 5 * column), expected)     # >= 2^32
        assert np.array_equal(plan.forward(stack + (column << 31)), expected)  # ~2^62
        assert np.array_equal(plan.inverse(expected - 3 * column), stack)

    def test_wrong_shape_is_refused(self, plan):
        with pytest.raises(ParameterError):
            plan.forward(np.zeros((3, 256), dtype=np.int64))
        with pytest.raises(ParameterError):
            plan.forward(np.zeros((2, 128), dtype=np.int64))

    def test_empty_and_strided_stacks(self, plan):
        assert plan.forward(np.zeros((0, 2, 256), dtype=np.int64)).shape == (0, 2, 256)
        stack = _seeded_stack(256, plan.primes, 8)
        assert np.array_equal(plan.forward(stack[::2]), plan.forward(stack)[::2])
        nested = stack.reshape(2, 4, 2, 256)
        assert np.array_equal(plan.inverse(nested), plan.inverse(stack).reshape(nested.shape))

    def test_unfriendly_parameters_are_refused(self):
        with pytest.raises(ParameterError):
            NttPlan(256, ())
        with pytest.raises(ParameterError):
            NttPlan(100, ntt_friendly_primes(1, 31, 256))
        with pytest.raises(ParameterError):
            NttPlan(256, (7,))
