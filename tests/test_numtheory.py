"""Tests for number-theoretic primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import numtheory
from repro.exceptions import ParameterError

from oracles import find_ntt_prime


class TestEgcdInvmod:
    def test_egcd_identity(self):
        g, x, y = numtheory.egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == g

    def test_invmod_small(self):
        assert numtheory.invmod(3, 11) == 4

    def test_invmod_nonexistent(self):
        with pytest.raises(ParameterError):
            numtheory.invmod(6, 9)

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=50)
    def test_invmod_property(self, a, modulus):
        import math

        if math.gcd(a, modulus) != 1:
            return
        inverse = numtheory.invmod(a, modulus)
        assert (a * inverse) % modulus == 1


class TestCrt:
    def test_crt_pair_reconstructs(self):
        p, q = 97, 89
        value = 4242
        assert numtheory.crt_pair(value % p, p, value % q, q) == value

    @given(st.integers(min_value=0, max_value=97 * 89 - 1))
    @settings(max_examples=50)
    def test_crt_property(self, value):
        assert numtheory.crt_pair(value % 97, 97, value % 89, 89) == value


class TestPrimality:
    @pytest.mark.parametrize("prime", [2, 3, 5, 7919, 104729, 2**31 - 1])
    def test_known_primes(self, prime):
        assert numtheory.is_probable_prime(prime)

    @pytest.mark.parametrize("composite", [0, 1, 4, 561, 104730, 2**32 - 1])
    def test_known_composites(self, composite):
        assert not numtheory.is_probable_prime(composite)

    def test_generate_prime_bits(self):
        prime = numtheory.generate_prime(64)
        assert prime.bit_length() == 64
        assert numtheory.is_probable_prime(prime)

    def test_generate_distinct_primes(self):
        p, q = numtheory.generate_distinct_primes(48)
        assert p != q
        assert numtheory.is_probable_prime(p) and numtheory.is_probable_prime(q)

    def test_generate_prime_rejects_tiny(self):
        with pytest.raises(ParameterError):
            numtheory.generate_prime(4)


class TestSafePrimesAndGenerators:
    def test_safe_prime_structure(self):
        p, q = numtheory.generate_safe_prime(64)
        assert p == 2 * q + 1
        assert numtheory.is_probable_prime(p) and numtheory.is_probable_prime(q)

    def test_generator_has_order_q(self):
        p, q = numtheory.generate_safe_prime(64)
        g = numtheory.find_generator(p, q)
        assert pow(g, q, p) == 1
        assert g not in (1, p - 1)


class TestNttPrimes:
    def test_find_ntt_prime_congruence(self):
        prime = find_ntt_prime(31, 2048)
        assert prime % 2048 == 1
        assert numtheory.is_probable_prime(prime)

    def test_root_of_unity_order(self):
        prime = find_ntt_prime(31, 512)
        root = numtheory.find_primitive_root_of_unity(512, prime)
        assert pow(root, 512, prime) == 1
        assert pow(root, 256, prime) != 1

    def test_order_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            find_ntt_prime(30, 100)



    @pytest.mark.parametrize("order", [2, 4, 16, 256, 2048, 8192])
    def test_root_of_unity_has_exactly_the_order(self, order):
        prime = find_ntt_prime(31, order)
        root = numtheory.find_primitive_root_of_unity(order, prime)
        assert pow(root, order, prime) == 1
        # Every proper divisor of a power of two divides order / 2.
        assert pow(root, order // 2, prime) == prime - 1

    def test_root_of_unity_needs_order_dividing_p_minus_one(self):
        with pytest.raises(ParameterError):
            numtheory.find_primitive_root_of_unity(64, 97)  # 96 = 2^5 · 3
