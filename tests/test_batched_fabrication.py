"""Bit-identity pins for the batched ciphertext-fabrication paths.

Every vectorised fast path added for the fabrication hot spots — batched
encryption, stacked addition, gather-and-shift candidate extraction, the
vectorised blinding entry points and Garner CRT — promises *bit-identical*
output to its scalar reference.  These tests hold each path to that promise
under a shared seeded PRG, so any future "optimisation" that changes results
(rather than just speed) fails loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.packing import PackedLinearModel
from repro.crypto.prg import Prg
from repro.crypto.ringlwe import RingContext, RingPolynomial
from repro.exceptions import ParameterError
from repro.twopc.blinding import (
    blind_dot_products,
    blind_dot_products_reference,
    blind_extracted_candidates,
    blind_extracted_candidates_reference,
)
from repro.utils.rand import secure_uniform_array, secure_uniform_ints


def _wire(scheme, ciphertexts):
    return [scheme.serialize_ciphertext(ct) for ct in ciphertexts]


class TestBatchedEncryption:
    def test_encrypt_slots_many_matches_loop_on_shared_stream(self, bv_scheme, bv_keys):
        rng = np.random.default_rng(11)
        vectors = rng.integers(
            0, bv_scheme.slot_modulus, size=(7, bv_scheme.num_slots), dtype=np.uint64
        ).astype(object).tolist()
        vectors = [[int(v) for v in row] for row in vectors]
        batched = bv_scheme.encrypt_slots_many(
            bv_keys.public, vectors, prg=Prg(b"enc-many", domain=b"pin")
        )
        loop = [
            bv_scheme.encrypt_slots(bv_keys.public, row, prg=prg)
            for prg in [Prg(b"enc-many", domain=b"pin")]
            for row in vectors
        ]
        assert _wire(bv_scheme, batched) == _wire(bv_scheme, loop)

    def test_ndarray_and_list_inputs_agree(self, bv_scheme, bv_keys):
        rng = np.random.default_rng(12)
        matrix = rng.integers(0, bv_scheme.slot_modulus, size=(4, bv_scheme.num_slots), dtype=np.uint64)
        from_array = bv_scheme.encrypt_slots_many(
            bv_keys.public, matrix, prg=Prg(b"enc-kind", domain=b"pin")
        )
        from_lists = bv_scheme.encrypt_slots_many(
            bv_keys.public,
            [[int(v) for v in row] for row in matrix],
            prg=Prg(b"enc-kind", domain=b"pin"),
        )
        assert _wire(bv_scheme, from_array) == _wire(bv_scheme, from_lists)

    def test_short_vectors_pad_with_zero_slots(self, bv_scheme, bv_keys):
        ragged = bv_scheme.encrypt_slots_many(
            bv_keys.public, np.array([[5, 6], [7, 8]]), prg=Prg(b"enc-pad", domain=b"pin")
        )
        padded = bv_scheme.encrypt_slots_many(
            bv_keys.public,
            [[5, 6] + [0] * (bv_scheme.num_slots - 2), [7, 8] + [0] * (bv_scheme.num_slots - 2)],
            prg=Prg(b"enc-pad", domain=b"pin"),
        )
        assert _wire(bv_scheme, ragged) == _wire(bv_scheme, padded)

    def test_batched_ciphertexts_decrypt_correctly(self, bv_scheme, bv_keys):
        rng = np.random.default_rng(13)
        matrix = rng.integers(0, bv_scheme.slot_modulus, size=(5, bv_scheme.num_slots), dtype=np.uint64)
        ciphertexts = bv_scheme.encrypt_slots_many(bv_keys.public, matrix)
        decrypted = bv_scheme.decrypt_slots_many(bv_keys, ciphertexts)
        assert decrypted == matrix.astype(object).tolist()

    def test_empty_batch(self, bv_scheme, bv_keys):
        assert bv_scheme.encrypt_slots_many(bv_keys.public, []) == []
        assert bv_scheme.encrypt_slots_many(bv_keys.public, np.zeros((0, 4), dtype=np.int64)) == []

    def test_out_of_range_matrix_rejected(self, bv_scheme, bv_keys):
        with pytest.raises(ParameterError):
            bv_scheme.encrypt_slots_many(bv_keys.public, np.array([[-1]]))
        with pytest.raises(ParameterError):
            bv_scheme.encrypt_slots_many(bv_keys.public, np.array([[bv_scheme.slot_modulus]]))
        with pytest.raises(ParameterError):
            bv_scheme.encrypt_slots_many(bv_keys.public, np.array([[0.5]]))
        too_wide = np.zeros((1, bv_scheme.num_slots + 1), dtype=np.int64)
        with pytest.raises(ParameterError):
            bv_scheme.encrypt_slots_many(bv_keys.public, too_wide)

    def test_paillier_default_accepts_ndarray(self, paillier_scheme, paillier_keys):
        matrix = np.array([[3, 1], [4, 1]], dtype=np.int64)
        ciphertexts = paillier_scheme.encrypt_slots_many(paillier_keys.public, matrix)
        keypair = paillier_keys
        assert paillier_scheme.decrypt_slots(keypair, ciphertexts[0])[:2] == [3, 1]
        assert paillier_scheme.decrypt_slots(keypair, ciphertexts[1])[:2] == [4, 1]


class TestBatchedHomomorphicOps:
    def test_add_many_matches_scalar_add(self, bv_scheme, bv_keys):
        rng = np.random.default_rng(21)
        lefts = bv_scheme.encrypt_slots_many(
            bv_keys.public,
            rng.integers(0, bv_scheme.slot_modulus, size=(6, bv_scheme.num_slots), dtype=np.uint64),
        )
        rights = bv_scheme.encrypt_slots_many(
            bv_keys.public,
            rng.integers(0, bv_scheme.slot_modulus, size=(6, bv_scheme.num_slots), dtype=np.uint64),
        )
        batched = bv_scheme.add_many(lefts, rights)
        loop = [bv_scheme.add(left, right) for left, right in zip(lefts, rights)]
        assert _wire(bv_scheme, batched) == _wire(bv_scheme, loop)
        assert bv_scheme.add_many([], []) == []

    def test_add_many_length_mismatch_rejected(self, bv_scheme, bv_keys):
        ct = bv_scheme.encrypt_slots(bv_keys.public, [1])
        with pytest.raises(ParameterError):
            bv_scheme.add_many([ct], [])

    def test_extract_shift_many_matches_shift_up_loop(self, bv_scheme, bv_keys):
        rng = np.random.default_rng(22)
        sources = bv_scheme.encrypt_slots_many(
            bv_keys.public,
            rng.integers(0, bv_scheme.slot_modulus, size=(3, bv_scheme.num_slots), dtype=np.uint64),
        )
        n = bv_scheme.num_slots
        indices = [0, 2, 1, 0, 2, 2]
        shifts = [0, 1, n - 1, n // 2, 5, n - 1]
        batched = bv_scheme.extract_shift_many(sources, indices, shifts)
        loop = [bv_scheme.shift_up(sources[i], s) for i, s in zip(indices, shifts)]
        assert _wire(bv_scheme, batched) == _wire(bv_scheme, loop)
        assert bv_scheme.extract_shift_many(sources, [], []) == []

    def test_extract_shift_many_validates_arguments(self, bv_scheme, bv_keys):
        ct = bv_scheme.encrypt_slots(bv_keys.public, [1])
        with pytest.raises(ParameterError):
            bv_scheme.extract_shift_many([ct], [0], [0, 1])
        with pytest.raises(ParameterError):
            bv_scheme.extract_shift_many([ct], [0], [-1])

    @given(
        slot=st.integers(min_value=0, max_value=255),
        shift=st.integers(min_value=0, max_value=255),
        value=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_batched_shift_slot_semantics(self, bv_scheme, bv_keys, slot, shift, value):
        """Slot ``s`` lands at ``s + shift``; past-the-top wraps *negated* mod t.

        ``x^n = -1`` in the negacyclic ring, so a value pushed past the last
        slot reappears at the bottom as ``t - value`` — the wraparound the
        across-row packing relies on callers treating as garbage.
        """
        n = bv_scheme.num_slots
        vector = [0] * n
        vector[slot] = value
        source = bv_scheme.encrypt_slots(bv_keys.public, vector)
        (shifted,) = bv_scheme.extract_shift_many([source], [0], [shift])
        decrypted = bv_scheme.decrypt_slots(bv_keys, shifted)
        target = slot + shift
        if target < n:
            assert decrypted[target] == value
        else:
            assert decrypted[target - n] == (-value) % bv_scheme.slot_modulus

    @given(exponents=st.lists(st.integers(min_value=0, max_value=2 * 256 - 1), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_monomial_spectra_many_matches_per_exponent(self, exponents):
        ring = RingContext.create(ring_degree=256, prime_bits=31, prime_count=2)
        stacked = ring.monomial_spectra_many(exponents)
        assert stacked.shape == (len(exponents), len(ring.primes), ring.n)
        for row, exponent in enumerate(exponents):
            assert np.array_equal(stacked[row], ring.monomial_spectra(exponent))


@pytest.fixture(scope="module")
def blinding_setup(bv_scheme, bv_keys):
    rng = np.random.default_rng(31)
    matrix = rng.integers(0, 100, size=(40, 12)).tolist()
    model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
    result = model.dot_products([(0, 2), (17, 1), (33, 3)])
    return model, result


class TestBlindingBitIdentity:
    def test_blind_dot_products_matches_reference(self, bv_scheme, bv_keys, blinding_setup):
        model, result = blinding_setup
        columns = [0, 3, 7, 11]
        batched = blind_dot_products(
            bv_scheme, bv_keys.public, model, result, columns, dot_bits=20,
            prg=Prg(b"blind-dp", domain=b"pin"),
        )
        reference = blind_dot_products_reference(
            bv_scheme, bv_keys.public, model, result, columns, dot_bits=20,
            prg=Prg(b"blind-dp", domain=b"pin"),
        )
        assert batched.output_noise == reference.output_noise
        assert _wire(bv_scheme, batched.ciphertexts) == _wire(bv_scheme, reference.ciphertexts)

    def test_blind_extracted_candidates_matches_reference(self, bv_scheme, bv_keys, blinding_setup):
        model, result = blinding_setup
        columns = [1, 5, 5, 9, 0]  # repeated candidates gather the same source
        batched = blind_extracted_candidates(
            bv_scheme, bv_keys.public, model, result, columns, dot_bits=20,
            prg=Prg(b"blind-cand", domain=b"pin"),
        )
        reference = blind_extracted_candidates_reference(
            bv_scheme, bv_keys.public, model, result, columns, dot_bits=20,
            prg=Prg(b"blind-cand", domain=b"pin"),
        )
        assert batched.output_noise == reference.output_noise
        assert _wire(bv_scheme, batched.ciphertexts) == _wire(bv_scheme, reference.ciphertexts)

    def test_reference_paths_still_unblind(self, bv_scheme, bv_keys, blinding_setup):
        model, result = blinding_setup
        blinded = blind_extracted_candidates_reference(
            bv_scheme, bv_keys.public, model, result, [4], dot_bits=20
        )
        ct_index, slot, _ = blinded.output_noise[4]
        assert slot == bv_scheme.num_slots - 1
        assert len(blinded.ciphertexts) == 1


class TestUniformDraws:
    def test_array_and_list_draws_agree_on_one_stream(self):
        as_list = secure_uniform_ints(1 << 32, 50, Prg(b"uniform", domain=b"pin"))
        as_array = secure_uniform_array(1 << 32, 50, Prg(b"uniform", domain=b"pin"))
        assert as_array.dtype == np.int64
        assert as_array.tolist() == as_list

    def test_array_draw_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            secure_uniform_array(10, 4)
        with pytest.raises(ParameterError):
            secure_uniform_array(1 << 64, 4)

    def test_array_draw_edge_counts(self):
        assert secure_uniform_array(8, 0).tolist() == []
        assert secure_uniform_array(1, 3).tolist() == [0, 0, 0]


class TestGarnerCrt:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), prime_count=st.sampled_from([1, 2, 3]))
    @settings(max_examples=15, deadline=None)
    def test_garner_matches_object_dtype_reference(self, seed, prime_count):
        # prime_count=3 pushes q past 62 bits, exercising the object-dtype
        # final recombination branch; 1 and 2 stay int64 end to end.
        ring = RingContext.create(ring_degree=64, prime_bits=31, prime_count=prime_count)
        rng = np.random.default_rng(seed)
        residues = rng.integers(0, min(ring.primes), size=(3, len(ring.primes), ring.n))
        fast = ring.crt_reconstruct_array(residues)
        reference = ring.crt_reconstruct_array_reference(residues)
        assert fast.tolist() == reference.tolist()

    def test_object_dtype_input_falls_back_to_reference(self):
        ring = RingContext.create(ring_degree=64, prime_bits=31, prime_count=2)
        residues = np.ones((len(ring.primes), ring.n), dtype=object)
        assert ring.crt_reconstruct_array(residues).tolist() == (
            ring.crt_reconstruct_array_reference(residues).tolist()
        )
