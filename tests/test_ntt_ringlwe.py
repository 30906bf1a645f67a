"""Tests for the NTT and the RNS polynomial-ring arithmetic."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bv import BVParameters, BVScheme
from repro.crypto.ntt import NttContext, get_ntt_plan, ntt_friendly_primes
from repro.crypto.prg import Prg
from repro.crypto.ringlwe import RingContext, RingPolynomial
from repro.exceptions import ParameterError

RING_DEGREE = 64


@pytest.fixture(scope="module")
def ntt_context():
    prime = ntt_friendly_primes(1, 31, RING_DEGREE)[0]
    return NttContext(RING_DEGREE, prime)


@pytest.fixture(scope="module")
def ring_context():
    return RingContext.create(ring_degree=RING_DEGREE, prime_bits=31, prime_count=2)


class TestNttPrimes:
    def test_primes_are_distinct_and_congruent(self):
        primes = ntt_friendly_primes(2, 31, RING_DEGREE)
        assert len(set(primes)) == 2
        assert all(p % (2 * RING_DEGREE) == 1 for p in primes)

    def test_many_distinct_primes(self):
        # The old search decremented the bit size on a duplicate hit and could
        # re-find the same prime forever; asking for several primes exercises
        # the deterministic descending walk.
        for count in (3, 4, 5):
            primes = ntt_friendly_primes(count, 31, RING_DEGREE)
            assert len(primes) == count
            assert len(set(primes)) == count
            assert all(p % (2 * RING_DEGREE) == 1 for p in primes)
            assert all(p < 2**31 for p in primes)

    def test_search_is_deterministic_and_prefix_stable(self):
        five = ntt_friendly_primes(5, 31, RING_DEGREE)
        assert ntt_friendly_primes(3, 31, RING_DEGREE) == five[:3]
        assert ntt_friendly_primes(5, 31, RING_DEGREE) == five

    def test_too_large_prime_bits_rejected(self):
        with pytest.raises(ParameterError):
            ntt_friendly_primes(1, 40, RING_DEGREE)


class TestNtt:
    def test_forward_inverse_roundtrip(self, ntt_context):
        rng = np.random.default_rng(0)
        values = rng.integers(0, ntt_context.prime, RING_DEGREE)
        recovered = ntt_context.inverse(ntt_context.forward(values))
        assert np.array_equal(recovered, values % ntt_context.prime)

    def test_multiply_by_one_is_identity(self, ntt_context):
        rng = np.random.default_rng(2)
        a = rng.integers(0, ntt_context.prime, RING_DEGREE)
        one = np.zeros(RING_DEGREE, dtype=np.int64)
        one[0] = 1
        assert np.array_equal(ntt_context.multiply(a, one), a)

    def test_x_to_the_n_is_minus_one(self, ntt_context):
        # x^(n/2) * x^(n/2) = x^n = -1 in the negacyclic ring.
        half = np.zeros(RING_DEGREE, dtype=np.int64)
        half[RING_DEGREE // 2] = 1
        product = ntt_context.multiply(half, half)
        expected = np.zeros(RING_DEGREE, dtype=np.int64)
        expected[0] = ntt_context.prime - 1
        assert np.array_equal(product, expected)

    def test_wrong_length_rejected(self, ntt_context):
        with pytest.raises(ParameterError):
            ntt_context.forward(np.zeros(RING_DEGREE + 1, dtype=np.int64))

    @given(st.integers(min_value=0, max_value=2**31 - 2), st.integers(min_value=0, max_value=RING_DEGREE - 1))
    @settings(max_examples=20, deadline=None)
    def test_monomial_times_constant(self, ntt_context, constant, degree):
        constant %= ntt_context.prime
        a = np.zeros(RING_DEGREE, dtype=np.int64)
        a[0] = constant
        monomial = np.zeros(RING_DEGREE, dtype=np.int64)
        monomial[degree] = 1
        product = ntt_context.multiply(a, monomial)
        assert product[degree] == constant
        assert product.sum() == constant

    @given(
        degree=st.sampled_from([4, 16, 64, 256]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_batched_forward_matches_single(self, degree, seed):
        prime = ntt_friendly_primes(1, 31, degree)[0]
        context = NttContext(degree, prime)
        rng = np.random.default_rng(seed)
        batch = rng.integers(0, prime, size=(3, degree))
        stacked = context.forward_many(batch)
        for row in range(3):
            assert np.array_equal(stacked[row], context.forward(batch[row]))
        assert np.array_equal(context.inverse_many(stacked), batch)

    def test_monomial_spectrum_matches_forward_of_one_hot(self, ntt_context):
        for exponent in (0, 1, 7, RING_DEGREE - 1):
            one_hot = np.zeros(RING_DEGREE, dtype=np.int64)
            one_hot[exponent] = 1
            assert np.array_equal(
                ntt_context.monomial_spectrum(exponent), ntt_context.forward(one_hot)
            )
        # x^(n + k) = -x^k in the negacyclic ring.
        assert np.array_equal(
            ntt_context.monomial_spectrum(RING_DEGREE + 3),
            (-ntt_context.monomial_spectrum(3)) % ntt_context.prime,
        )

    def test_monomial_spectra_are_cached_once_on_the_plan(self, ntt_context):
        plan = get_ntt_plan(RING_DEGREE, (ntt_context.prime,))
        assert np.shares_memory(ntt_context.monomial_spectrum(5), plan.monomial_spectra(5))
        assert not ntt_context.monomial_spectrum(5).flags.writeable
        # A fancy-indexed gather can come back column-major; every shift multiplies by these.
        assert plan.monomial_spectra(5).flags.c_contiguous


class TestPickling:
    """Rings pickle as (degree, primes); the NTT plan never travels."""

    def test_unpickled_ring_shares_the_process_wide_plan(self, ring_context):
        ring_context.plan.monomial_spectra(3)    # warm the plan's monomial cache
        blob = pickle.dumps(ring_context)
        assert len(blob) < 256
        restored = pickle.loads(blob)
        assert restored.plan is ring_context.plan
        assert restored.primes == ring_context.primes and restored.modulus == ring_context.modulus
        a = RingPolynomial.sample_uniform(ring_context, Prg(b"pickle"))
        twin = pickle.loads(pickle.dumps(a))
        assert np.array_equal(twin.spectra, a.spectra)

    def test_pickled_ciphertext_carries_only_its_residues(self):
        scheme = BVScheme(BVParameters())
        keys = scheme.generate_keypair()
        ciphertext = scheme.encrypt_slots(keys.public, [1, 2, 3])
        # Two components of (primes, n) int64 spectra — twice the 4-byte wire
        # encoding — plus a bounded envelope, however warm the plan's caches.
        residue_bytes = 2 * len(scheme.ring.primes) * scheme.ring.n * 8
        cold = len(pickle.dumps(ciphertext))
        scheme.ring.monomial_spectra_many(list(range(64)))
        assert len(pickle.dumps(ciphertext)) == cold <= residue_bytes + 1024
        restored = pickle.loads(pickle.dumps(ciphertext))
        assert scheme.serialize_ciphertext(restored) == scheme.serialize_ciphertext(ciphertext)
        assert scheme.decrypt_slots(keys, restored)[:3] == [1, 2, 3]


def _centered(poly: RingPolynomial) -> list[int]:
    """Full-precision centered coefficients in ``(-q/2, q/2]``."""
    return poly.context.crt_reconstruct_array(poly.residues).tolist()


class TestRingPolynomial:
    def test_add_negate_roundtrip(self, ring_context):
        a = RingPolynomial.sample_uniform(ring_context, Prg(b"a"))
        b = RingPolynomial.sample_uniform(ring_context, Prg(b"b"))
        recovered = a.add(b).add(b.negate())
        assert np.array_equal(recovered.residues, a.residues)

    def test_negate_is_additive_inverse(self, ring_context):
        a = RingPolynomial.sample_uniform(ring_context, Prg(b"c"))
        zero = a.add(a.negate())
        assert np.all(zero.residues == 0)

    def test_scalar_multiply_matches_repeated_add(self, ring_context):
        a = RingPolynomial.from_int_coefficients(ring_context, [1, 2, 3])
        assert np.array_equal(a.scalar_multiply(3).residues, a.add(a).add(a).residues)

    def test_monomial_multiply_shifts_coefficients(self, ring_context):
        a = RingPolynomial.from_int_coefficients(ring_context, [5, 7])
        shifted = a.monomial_multiply(3)
        coefficients = _centered(shifted)
        assert coefficients[3] == 5
        assert coefficients[4] == 7
        assert coefficients[0] == 0

    def test_monomial_multiply_wraps_with_negation(self, ring_context):
        a = RingPolynomial.from_int_coefficients(ring_context, [0, 9])
        shifted = a.monomial_multiply(RING_DEGREE - 1)
        coefficients = _centered(shifted)
        assert coefficients[0] == -9

    def test_monomial_multiply_agrees_with_full_multiply(self, ring_context):
        a = RingPolynomial.sample_uniform(ring_context, Prg(b"d"))
        monomial = RingPolynomial.from_int_coefficients(ring_context, [0, 0, 0, 1])
        assert np.array_equal(
            a.monomial_multiply(3).residues, a.multiply(monomial).residues
        )

    def test_ternary_sampling_range(self, ring_context):
        poly = RingPolynomial.sample_ternary(ring_context, Prg(b"t"))
        coefficients = _centered(poly)
        assert set(coefficients) <= {-1, 0, 1}

    def test_noise_sampling_range(self, ring_context):
        poly = RingPolynomial.sample_noise(ring_context, bound=3, prg=Prg(b"n"))
        coefficients = _centered(poly)
        assert all(-3 <= value <= 3 for value in coefficients)

    def test_centered_reconstruction_roundtrip(self, ring_context):
        values = [0, 1, -1, 12345, -54321]
        poly = RingPolynomial.from_int_coefficients(ring_context, values)
        assert _centered(poly)[: len(values)] == values

    def test_serialized_size(self, ring_context):
        poly = RingPolynomial.from_int_coefficients(ring_context, [])
        expected_bits = ring_context.n * ring_context.modulus_bits
        assert poly.serialized_size_bytes() == (expected_bits + 7) // 8

    def test_too_many_coefficients_rejected(self, ring_context):
        with pytest.raises(ParameterError):
            RingPolynomial.from_int_coefficients(ring_context, [1] * (RING_DEGREE + 1))


class TestEvaluationDomain:
    """The dual coefficient/NTT-domain representation must be transparent."""

    def test_spectra_roundtrip(self, ring_context):
        a = RingPolynomial.sample_uniform(ring_context, Prg(b"ev-a"))
        spectra_only = RingPolynomial(ring_context, spectra=a.spectra.copy())
        assert np.array_equal(spectra_only.residues, a.residues)

    def test_needs_at_least_one_domain(self, ring_context):
        with pytest.raises(ParameterError):
            RingPolynomial(ring_context)

    def test_linear_ops_agree_across_domains(self, ring_context):
        a = RingPolynomial.sample_uniform(ring_context, Prg(b"ev-b"))
        b = RingPolynomial.sample_uniform(ring_context, Prg(b"ev-c"))
        a_spec = RingPolynomial(ring_context, spectra=a.spectra.copy())
        b_spec = RingPolynomial(ring_context, spectra=b.spectra.copy())
        assert np.array_equal(a_spec.add(b_spec).residues, a.add(b).residues)
        assert np.array_equal(a_spec.negate().residues, a.negate().residues)
        assert np.array_equal(
            a_spec.scalar_multiply(12345).residues, a.scalar_multiply(12345).residues
        )

    def test_monomial_multiply_agrees_across_domains(self, ring_context):
        a = RingPolynomial.sample_uniform(ring_context, Prg(b"ev-d"))
        a_spec = RingPolynomial(ring_context, spectra=a.spectra.copy())
        # Cover non-wrapping shifts, the x^n = -1 wrap, and the full period.
        for exponent in (0, 1, 5, RING_DEGREE - 1, RING_DEGREE, RING_DEGREE + 3, 2 * RING_DEGREE):
            assert np.array_equal(
                a_spec.monomial_multiply(exponent).residues,
                a.monomial_multiply(exponent).residues,
            ), f"exponent {exponent}"

    def test_multiply_stays_in_evaluation_domain(self, ring_context):
        a = RingPolynomial.sample_uniform(ring_context, Prg(b"ev-e"))
        b = RingPolynomial.sample_uniform(ring_context, Prg(b"ev-f"))
        product = a.multiply(b)
        assert product._spectra is not None
        # Spectra were cached on the operands by the multiply.
        assert a._spectra is not None and b._spectra is not None

    def test_vectorised_crt_matches_scalar_reference(self, ring_context):
        a = RingPolynomial.sample_uniform(ring_context, Prg(b"ev-h"))
        q = ring_context.modulus
        half = q // 2
        # value = Σ r_i·M_i·(M_i⁻¹ mod p_i) mod q, where M_i = q / p_i.
        terms = [q // prime * pow(q // prime, -1, prime) for prime in ring_context.primes]
        expected = []
        for column in range(ring_context.n):
            value = 0
            for prime_index in range(len(ring_context.primes)):
                value += int(a.residues[prime_index, column]) * terms[prime_index]
            value %= q
            expected.append(value - q if value > half else value)
        assert _centered(a) == expected
