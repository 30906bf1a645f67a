"""Tests for the blinding step: what leaves the client is blinded and unblinds exactly."""

import numpy as np
import pytest

from repro.crypto.packing import PackedLinearModel
from repro.exceptions import ProtocolError
from repro.twopc.blinding import blind_dot_products, blind_extracted_candidates, score_runs


def unblind_reference(blinded_value: int, noise: int, scheme) -> int:
    """Plaintext unblinding: ``(blinded - noise) mod 2^slot_bits``."""
    return (blinded_value - noise) % scheme.slot_modulus


@pytest.fixture(scope="module")
def packed_model(bv_scheme, bv_keys):
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 100, size=(30, 2)).tolist()
    model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
    return matrix, model


class TestBlinding:
    def test_blinded_outputs_unblind_to_true_dot_products(self, bv_scheme, bv_keys, packed_model):
        matrix, model = packed_model
        features = [(0, 1), (7, 2)]
        result = model.dot_products(features)
        blinded = blind_dot_products(bv_scheme, bv_keys.public, model, result, [0, 1], dot_bits=20)
        reference = np.array(matrix[-1], dtype=np.int64)
        for index, frequency in features:
            reference += frequency * np.array(matrix[index])
        # The provider opens the run of the two output slots and nothing else.
        (run,) = score_runs(bv_scheme, model)
        assert run == (bv_scheme.num_slots - 2, 2)
        decrypted = [bv_scheme.decrypt_slots(bv_keys, ct) for ct in blinded.ciphertexts]
        assert [len(slots) for slots in decrypted] == [2]
        for column in (0, 1):
            ct_index, slot, noise = blinded.output_noise[column]
            recovered = unblind_reference(decrypted[ct_index][slot - run[0]], noise, bv_scheme)
            assert recovered == reference[column]

    def test_only_the_run_leaves_and_all_of_it_is_blinded(self, bv_scheme, bv_keys):
        # Twelve columns, two of them outputs: the garbage slots below the
        # output region are never sent; the ten other slots of the run are, and
        # get fresh full-range noise the client forgets.
        rng = np.random.default_rng(4)
        model = PackedLinearModel.encrypt(
            bv_scheme, bv_keys.public, rng.integers(0, 100, size=(30, 12)).tolist()
        )
        result = model.dot_products([(1, 1)])
        (run,) = score_runs(bv_scheme, model)
        assert run[1] == 12
        opened = []
        for _ in range(2):
            blinded = blind_dot_products(bv_scheme, bv_keys.public, model, result, [0, 3], dot_bits=20)
            assert sorted(blinded.output_noise) == [0, 3]
            (sample,) = blinded.ciphertexts
            assert sample.payload.c0.shape == (len(bv_scheme.ring.primes), 12)
            assert blinded.network_bytes() == bv_scheme.sample_size_bytes(12)
            assert blinded.network_bytes() < bv_scheme.ciphertext_size_bytes() * 0.55
            opened.append(bv_scheme.decrypt_slots(bv_keys, sample))
        unrecorded = [at for at in range(12) if at not in (0, 3)]  # column c sits at run offset c
        assert all(opened[0][at] != opened[1][at] for at in unrecorded)

    def test_candidate_extraction_unblinds_correctly(self, bv_scheme, bv_keys, packed_model):
        matrix, model = packed_model
        features = [(2, 1), (9, 3)]
        result = model.dot_products(features)
        blinded = blind_extracted_candidates(
            bv_scheme, bv_keys.public, model, result, candidate_columns=[1], dot_bits=20
        )
        reference = matrix[-1][1] + matrix[2][1] + 3 * matrix[9][1]
        ct_index, slot, noise = blinded.output_noise[1]
        assert slot == bv_scheme.num_slots - 1
        (opened,) = bv_scheme.decrypt_slots(bv_keys, blinded.ciphertexts[ct_index])
        assert unblind_reference(opened, noise, bv_scheme) == reference

    def test_candidate_extraction_one_ciphertext_per_candidate(self, bv_scheme, bv_keys, packed_model):
        _, model = packed_model
        result = model.dot_products([(0, 1)])
        blinded = blind_extracted_candidates(
            bv_scheme, bv_keys.public, model, result, candidate_columns=[0, 1], dot_bits=20
        )
        assert len(blinded.ciphertexts) == 2
        assert blinded.network_bytes() == 2 * bv_scheme.sample_size_bytes(1)

    def test_unknown_column_rejected(self, bv_scheme, bv_keys, packed_model):
        _, model = packed_model
        result = model.dot_products([(0, 1)])
        with pytest.raises(ProtocolError):
            blind_dot_products(bv_scheme, bv_keys.public, model, result, [5], dot_bits=20)
        with pytest.raises(ProtocolError):
            blind_extracted_candidates(
                bv_scheme, bv_keys.public, model, result, candidate_columns=[7], dot_bits=20
            )

    def test_paillier_requires_guard_bits(self, paillier_scheme, paillier_keys):
        matrix = [[1, 2], [3, 4]]
        model = PackedLinearModel.encrypt(paillier_scheme, paillier_keys.public, matrix, across_rows=False)
        result = model.dot_products([(0, 1)])
        with pytest.raises(ProtocolError):
            blind_dot_products(
                paillier_scheme, paillier_keys.public, model, result, [0, 1],
                dot_bits=paillier_scheme.slot_bits,
            )

    def test_paillier_keeps_whole_ciphertexts_and_its_draw_order(self, paillier_scheme, paillier_keys):
        # No slot shift, no samples: every slot of the whole ciphertext is
        # blinded, in the order the scheme has always drawn — full-range noise
        # for all slots first, then the guard-limited output noises.
        from repro.crypto.prg import Prg
        from repro.utils.rand import secure_uniform_array

        matrix = [[5, 8], [2, 1], [7, 7]]
        model = PackedLinearModel.encrypt(paillier_scheme, paillier_keys.public, matrix, across_rows=False)
        result = model.dot_products([(0, 2), (1, 1)])
        blinded = blind_dot_products(
            paillier_scheme, paillier_keys.public, model, result, [1, 0], dot_bits=8,
            prg=Prg(b"paillier", domain=b"pin"),
        )
        slots = paillier_scheme.num_slots
        assert score_runs(paillier_scheme, model) == [(0, slots)]
        assert paillier_scheme.ciphertext_run(blinded.ciphertexts[0]) == (0, slots)
        stream = Prg(b"paillier", domain=b"pin")
        everywhere = secure_uniform_array(paillier_scheme.slot_modulus, slots, stream).tolist()
        recorded = secure_uniform_array(1 << (paillier_scheme.slot_bits - 1), 2, stream).tolist()
        # Requested as [1, 0]: the record follows the request order.
        assert blinded.output_noise == {1: (0, 1, recorded[0]), 0: (0, 0, recorded[1])}
        opened = paillier_scheme.decrypt_slots(paillier_keys, blinded.ciphertexts[0])
        assert opened[:2] == [19 + recorded[1], 24 + recorded[0]]
        assert opened[2:] == everywhere[2:]

    def test_paillier_guard_blinding_roundtrip(self, paillier_scheme, paillier_keys):
        matrix = [[5, 8], [2, 1], [7, 7]]
        model = PackedLinearModel.encrypt(paillier_scheme, paillier_keys.public, matrix, across_rows=False)
        features = [(0, 2), (1, 1)]
        result = model.dot_products(features)
        blinded = blind_dot_products(
            paillier_scheme, paillier_keys.public, model, result, [0, 1], dot_bits=8
        )
        decrypted = [paillier_scheme.decrypt_slots(paillier_keys, ct) for ct in blinded.ciphertexts]
        expected = [7 + 2 * 5 + 2, 7 + 2 * 8 + 1]
        for column in (0, 1):
            ct_index, slot, noise = blinded.output_noise[column]
            assert decrypted[ct_index][slot] - noise == expected[column]
