"""Tests for the two AHE schemes (Paillier and XPIR-BV) behind the common interface."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.ahe import AHECiphertext
from repro.crypto.bv import BVCiphertextPayload, BVParameters, BVScheme
from repro.crypto.paillier import PaillierScheme
from repro.crypto.ringlwe import RingPolynomial
from repro.exceptions import ParameterError

SLOT_VALUES = st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=8)


def _schemes(request):
    return request.getfixturevalue("bv_scheme"), request.getfixturevalue("paillier_scheme")


@pytest.fixture(params=["bv", "paillier"])
def scheme_and_keys(request, bv_scheme, bv_keys, paillier_scheme, paillier_keys):
    if request.param == "bv":
        return bv_scheme, bv_keys
    return paillier_scheme, paillier_keys


class TestCommonInterface:
    def test_encrypt_decrypt_roundtrip(self, scheme_and_keys):
        scheme, keys = scheme_and_keys
        values = [1, 2, 3, 4, 2**31, 0]
        ciphertext = scheme.encrypt_slots(keys.public, values)
        decrypted = scheme.decrypt_slots(keys, ciphertext)
        assert decrypted[: len(values)] == values
        assert all(value == 0 for value in decrypted[len(values):])

    def test_homomorphic_addition(self, scheme_and_keys):
        scheme, keys = scheme_and_keys
        a = scheme.encrypt_slots(keys.public, [10, 20, 30])
        b = scheme.encrypt_slots(keys.public, [1, 2, 3])
        total = scheme.decrypt_slots(keys, scheme.add(a, b))
        assert total[:3] == [11, 22, 33]

    def test_scalar_multiplication(self, scheme_and_keys):
        scheme, keys = scheme_and_keys
        ciphertext = scheme.encrypt_slots(keys.public, [5, 7])
        result = scheme.decrypt_slots(keys, scheme.scalar_mul(ciphertext, 6))
        assert result[:2] == [30, 42]

    def test_scalar_zero_annihilates(self, scheme_and_keys):
        scheme, keys = scheme_and_keys
        ciphertext = scheme.encrypt_slots(keys.public, [5, 7])
        result = scheme.decrypt_slots(keys, scheme.scalar_mul(ciphertext, 0))
        assert result[:2] == [0, 0]

    def test_slot_value_out_of_range_rejected(self, scheme_and_keys):
        scheme, keys = scheme_and_keys
        with pytest.raises(ParameterError):
            scheme.encrypt_slots(keys.public, [scheme.slot_modulus])

    def test_too_many_slots_rejected(self, scheme_and_keys):
        scheme, keys = scheme_and_keys
        with pytest.raises(ParameterError):
            scheme.encrypt_slots(keys.public, [0] * (scheme.num_slots + 1))

    def test_negative_scalar_rejected(self, scheme_and_keys):
        scheme, keys = scheme_and_keys
        ciphertext = scheme.encrypt_slots(keys.public, [1])
        with pytest.raises(ParameterError):
            scheme.scalar_mul(ciphertext, -2)

    def test_ciphertext_size_reported(self, scheme_and_keys):
        scheme, keys = scheme_and_keys
        ciphertext = scheme.encrypt_slots(keys.public, [1])
        assert ciphertext.size_bytes == scheme.ciphertext_size_bytes() > 0

    def test_encryption_randomised(self, scheme_and_keys):
        scheme, keys = scheme_and_keys
        first = scheme.encrypt_slots(keys.public, [1, 2])
        second = scheme.encrypt_slots(keys.public, [1, 2])
        assert first.payload is not second.payload
        # Both decrypt identically even though the ciphertexts differ.
        assert scheme.decrypt_slots(keys, first)[:2] == scheme.decrypt_slots(keys, second)[:2]

    @given(values=SLOT_VALUES)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_additive_homomorphism_property(self, scheme_and_keys, values):
        scheme, keys = scheme_and_keys
        half = (scheme.slot_modulus // 2) - 1
        clipped = [value % half for value in values[: scheme.num_slots]]
        a = scheme.encrypt_slots(keys.public, clipped)
        b = scheme.encrypt_slots(keys.public, clipped)
        doubled = scheme.decrypt_slots(keys, scheme.add(a, b))
        assert doubled[: len(clipped)] == [2 * value for value in clipped]


class TestBvSpecific:
    def test_slot_shift_moves_values_up(self, bv_scheme, bv_keys):
        ciphertext = bv_scheme.encrypt_slots(bv_keys.public, [9, 8, 7])
        shifted = bv_scheme.decrypt_slots(bv_keys, bv_scheme.shift_up(ciphertext, 4))
        assert shifted[4:7] == [9, 8, 7]

    def test_shift_then_add_aligns_rows(self, bv_scheme, bv_keys):
        # The across-row packing primitive: add row [a, b] (slots 0-1) into the
        # output region at slots 2-3 of another ciphertext.
        row = bv_scheme.encrypt_slots(bv_keys.public, [3, 4])
        accumulator = bv_scheme.encrypt_slots(bv_keys.public, [0, 0, 10, 20])
        combined = bv_scheme.add(accumulator, bv_scheme.shift_up(row, 2))
        decrypted = bv_scheme.decrypt_slots(bv_keys, combined)
        assert decrypted[2:4] == [13, 24]

    def test_slot_arithmetic_wraps_modulo_slot_modulus(self, bv_scheme, bv_keys):
        top = bv_scheme.slot_modulus - 1
        a = bv_scheme.encrypt_slots(bv_keys.public, [top])
        b = bv_scheme.encrypt_slots(bv_keys.public, [2])
        assert bv_scheme.decrypt_slots(bv_keys, bv_scheme.add(a, b))[0] == 1

    def test_negative_shift_rejected(self, bv_scheme, bv_keys):
        ciphertext = bv_scheme.encrypt_slots(bv_keys.public, [1])
        with pytest.raises(ParameterError):
            bv_scheme.shift_up(ciphertext, -1)

    def test_shift_past_top_wraps_negated(self, bv_scheme, bv_keys):
        # x^n = -1: slots pushed past the top reappear at the bottom negated
        # (mod t).  Callers must treat them as garbage, but the algebra is
        # load-bearing for the across-row packing and must stay exact.
        n = bv_scheme.num_slots
        t = bv_scheme.slot_modulus
        values = [0] * n
        values[n - 1] = 9
        values[n - 2] = 5
        ciphertext = bv_scheme.encrypt_slots(bv_keys.public, values)
        shifted = bv_scheme.decrypt_slots(bv_keys, bv_scheme.shift_up(ciphertext, 2))
        assert shifted[0] == (t - 5) % t
        assert shifted[1] == (t - 9) % t
        assert all(value == 0 for value in shifted[2:])

    def test_decrypt_slots_many_matches_single(self, bv_scheme, bv_keys):
        ciphertexts = [
            bv_scheme.encrypt_slots(bv_keys.public, [index, 2 * index + 1])
            for index in range(5)
        ]
        batched = bv_scheme.decrypt_slots_many(bv_keys, ciphertexts)
        assert batched == [bv_scheme.decrypt_slots(bv_keys, ct) for ct in ciphertexts]
        assert bv_scheme.decrypt_slots_many(bv_keys, []) == []

    @pytest.mark.parametrize("run", ["whole", "top", "first", "middle"])
    def test_combine_windows_matches_operation_chain(self, bv_scheme, bv_keys, run):
        n = bv_scheme.num_slots
        start, length = {"whole": (0, n), "top": (n - 1, 1), "first": (0, 3), "middle": (5, 40)}[run]
        ciphertexts = [
            bv_scheme.encrypt_slots(bv_keys.public, [2 + index, 30 + index] + [0] * (n - 3) + [9])
            for index in range(3)
        ]
        stack = bv_scheme.stack_ciphertexts(ciphertexts)
        # Repeated rows under different shifts, a repeated (row, shift) pair,
        # shift 0, and shift n - 1, which wraps every slot but the first.
        terms = [(0, 2, 0), (0, 1, 4), (1, 3, 2), (2, 1, 0), (0, 5, 4), (1, 1, n - 1)]
        combined = bv_scheme.combine_windows(stack, *zip(*terms), (start, length))
        reference = None
        for row, scalar, shift in terms:
            term = bv_scheme.shift_up(bv_scheme.scalar_mul(ciphertexts[row], scalar), shift)
            reference = term if reference is None else bv_scheme.add(reference, term)
        assert bv_scheme.ciphertext_run(combined) == (start, length)
        assert not combined.payload.c1._spectra is not None
        whole = reference.payload
        if run == "whole":
            assert bv_scheme.serialize_ciphertext(combined) == bv_scheme.serialize_ciphertext(reference)
        else:
            assert np.array_equal(combined.payload.c1.residues, whole.c1.residues)
            assert np.array_equal(combined.payload.c0, whole.c0.residues[:, start : start + length])
        assert bv_scheme.decrypt_slots(bv_keys, combined) == bv_scheme.decrypt_slots(
            bv_keys, reference
        )[start : start + length]

    def test_combine_windows_of_no_terms_is_zero(self, bv_scheme, bv_keys):
        stack = bv_scheme.stack_ciphertexts([bv_scheme.encrypt_slots(bv_keys.public, [5])])
        n = bv_scheme.num_slots
        for start, length in ((0, n), (n - 2, 2)):
            empty = bv_scheme.combine_windows(stack, [], [], [], (start, length))
            assert bv_scheme.decrypt_slots(bv_keys, empty) == [0] * length

    def test_combine_windows_validates_arguments(self, bv_scheme, bv_keys):
        stack = bv_scheme.stack_ciphertexts([bv_scheme.encrypt_slots(bv_keys.public, [5])])
        n = bv_scheme.num_slots
        for rows, scalars, shifts, run in (
            ([0], [1, 2], [0], (0, n)),
            ([0], [1], [n], (0, n)),
            ([0], [1], [-1], (0, n)),
            ([0], [1], [0], (0, 0)),        # empty run
            ([0], [1], [0], (n - 1, 2)),    # run past the top slot
            ([0], [1], [0], (-1, 1)),
        ):
            with pytest.raises(ParameterError):
                bv_scheme.combine_windows(stack, rows, scalars, shifts, run)

    def test_a_result_on_a_run_refuses_what_needs_a_whole_c0(self, bv_scheme, bv_keys):
        """``add``, ``scalar_mul``, ``shift_up`` and the wire codec would read ``c0``
        outside the run; each refuses rather than answer from coefficients never computed."""
        n = bv_scheme.num_slots
        source = bv_scheme.encrypt_slots(bv_keys.public, [7] * n)
        stack = bv_scheme.stack_ciphertexts([source])
        result = bv_scheme.combine_windows(stack, [0], [3], [0], (n - 4, 4))
        assert bv_scheme.decrypt_slots(bv_keys, result) == [21] * 4
        for refused in (
            lambda: bv_scheme.add(result, source),
            lambda: bv_scheme.add(source, result),
            lambda: bv_scheme.scalar_mul(result, 2),
            lambda: bv_scheme.shift_up(result, 1),
            lambda: bv_scheme.serialize_ciphertext(result),
        ):
            with pytest.raises(ParameterError, match="slot run"):
                refused()

    @given(
        shift=st.sampled_from([0, 1, 255]) | st.integers(0, 255),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_at_a_shift_is_the_monomial_product(self, bv_scheme, shift, seed):
        """Window ``[n - s, 2n - s)`` of the ``[-C | C]`` block is ``x^s · C``."""
        ring = bv_scheme.ring
        n = ring.n
        assert n == 256  # the strategy's shifts cover [0, n)
        rng = np.random.default_rng(seed)
        halves = [
            RingPolynomial(ring, rng.integers(0, ring.primes_column, size=(len(ring.primes), n)))
            for _ in range(2)
        ]
        halves[0].residues[:, ::7] = 0  # -0 is the residue 0, not p
        halves[1].residues[:, 3::7] = ring.primes_column - 1
        ciphertext = AHECiphertext(
            bv_scheme.name, BVCiphertextPayload(*halves), bv_scheme.ciphertext_size_bytes()
        )
        stack = bv_scheme.stack_ciphertexts([ciphertext])
        assert stack.dtype == np.uint32 and stack.nbytes == 2 * len(ring.primes) * n * 8
        for window, half in zip(stack[0, :, :, n - shift : 2 * n - shift], halves):
            assert np.array_equal(window, half.monomial_multiply(shift).residues)

    def test_ciphertext_size_matches_parameters(self):
        scheme = BVScheme(BVParameters.test_parameters())
        # Wire codec header (u32 n + u8 primes) plus two polynomials of
        # per-prime u32 residues.
        n = scheme.parameters.ring_degree
        primes = scheme.parameters.prime_count
        expected = 5 + 2 * primes * n * 4
        assert scheme.ciphertext_size_bytes() == expected

    def test_ciphertext_size_is_exact_wire_size(self, bv_scheme, bv_keys):
        ciphertext = bv_scheme.encrypt_slots(bv_keys.public, [1, 2, 3])
        encoded = bv_scheme.serialize_ciphertext(ciphertext)
        assert len(encoded) == bv_scheme.ciphertext_size_bytes()

    def test_wide_slots_roundtrip_beyond_int64(self):
        # slot_bits >= 64 is a valid parameterization (three 31-bit primes);
        # slot values above 2^63 must take the exact big-int reduction path.
        scheme = BVScheme(
            BVParameters(ring_degree=64, prime_bits=31, prime_count=3, slot_bits=70)
        )
        keys = scheme.generate_keypair()
        values = [2**65 + 12345, 5, 2**69]
        decrypted = scheme.decrypt_slots(keys, scheme.encrypt_slots(keys.public, values))
        assert decrypted[: len(values)] == values

    def test_bool_slot_values_rejected(self, bv_scheme, bv_keys):
        with pytest.raises(ParameterError):
            bv_scheme.encrypt_slots(bv_keys.public, [True, 5])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            BVParameters(ring_degree=100)
        with pytest.raises(ParameterError):
            BVParameters(slot_bits=60, prime_bits=31, prime_count=2)


class TestPaillierSpecific:
    def test_no_slot_shift_support(self, paillier_scheme, paillier_keys):
        ciphertext = paillier_scheme.encrypt_slots(paillier_keys.public, [1])
        with pytest.raises(ParameterError):
            paillier_scheme.shift_up(ciphertext, 1)

    def test_keys_under_different_moduli_cannot_mix(self, paillier_scheme, paillier_keys):
        other_keys = paillier_scheme.generate_keypair()
        a = paillier_scheme.encrypt_slots(paillier_keys.public, [1])
        b = paillier_scheme.encrypt_slots(other_keys.public, [2])
        with pytest.raises(ParameterError):
            paillier_scheme.add(a, b)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            PaillierScheme(modulus_bits=32)
        with pytest.raises(ParameterError):
            PaillierScheme(modulus_bits=256, slot_bits=300)
