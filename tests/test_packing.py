"""Tests for the GLLM / Pretzel packing layouts and packed dot products (§4.2)."""

import numpy as np
import pytest

from repro.crypto.packing import PackedLinearModel, PackingLayout

from oracles import decrypt_dot_products
from repro.exceptions import PackingError, ParameterError


def _reference_dot_products(matrix_rows, features):
    rows = np.array(matrix_rows, dtype=np.int64)
    scores = rows[-1].copy()
    for index, frequency in features:
        scores += frequency * rows[index]
    return list(scores)


def assert_equal_on_the_run(scheme, batched, whole):
    """*batched* is the whole ciphertext *whole* on what it computes: wire bytes
    when its run is every slot, else ``c1`` byte for byte and ``c0`` on the run."""
    start, length = scheme.ciphertext_run(batched)
    if length == scheme.num_slots:
        assert scheme.serialize_ciphertext(batched) == scheme.serialize_ciphertext(whole)
        return
    assert batched.payload.c1.spectra.tobytes() == whole.payload.c1.spectra.tobytes()
    assert np.array_equal(batched.payload.c0, whole.payload.c0.residues[:, start : start + length])


class TestPackingLayout:
    def test_across_row_geometry_small_b(self):
        layout = PackingLayout(num_columns=2, num_rows=101, slots_per_ciphertext=256, across_rows=True)
        assert layout.full_segments == 0
        assert layout.leftover_columns == 2
        assert layout.rows_per_leftover_ciphertext == 128
        assert layout.leftover_output_offset == 127 * 2
        assert layout.ciphertext_count() == 1

    def test_legacy_geometry_small_b(self):
        layout = PackingLayout(num_columns=2, num_rows=101, slots_per_ciphertext=256, across_rows=False)
        assert layout.rows_per_leftover_ciphertext == 1
        assert layout.leftover_output_offset == 0
        assert layout.ciphertext_count() == 101

    def test_geometry_with_full_segments(self):
        layout = PackingLayout(num_columns=600, num_rows=11, slots_per_ciphertext=256, across_rows=True)
        assert layout.full_segments == 2
        assert layout.leftover_columns == 88
        assert layout.ciphertext_count() == 2 * 11 + -(-11 // (256 // 88))

    def test_column_location(self):
        layout = PackingLayout(num_columns=600, num_rows=11, slots_per_ciphertext=256, across_rows=True)
        assert layout.column_location(10) == ("segment", 0)
        assert layout.column_location(300) == ("segment", 1)
        kind, slot = layout.column_location(599)
        assert kind == "leftover"
        assert slot == layout.leftover_output_offset + (599 - 512)

    def test_column_location_out_of_range(self):
        layout = PackingLayout(num_columns=4, num_rows=3, slots_per_ciphertext=8, across_rows=True)
        with pytest.raises(ParameterError):
            layout.column_location(4)

    def test_exact_multiple_has_no_leftover(self):
        layout = PackingLayout(num_columns=512, num_rows=5, slots_per_ciphertext=256, across_rows=True)
        assert layout.leftover_columns == 0
        assert layout.ciphertext_count() == 2 * 5


class TestPackedDotProducts:
    @pytest.fixture(scope="class")
    def small_matrix(self):
        rng = np.random.default_rng(7)
        # 40 feature rows + 1 bias row, 2 columns, small non-negative values.
        return rng.integers(0, 200, size=(41, 2)).tolist()

    def test_across_row_dot_products_match_reference(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        features = [(0, 1), (5, 2), (17, 1), (39, 3)]
        result = model.dot_products(features)
        assert decrypt_dot_products(bv_scheme, bv_keys, result) == _reference_dot_products(
            small_matrix, features
        )

    def test_legacy_packing_dot_products_match_reference(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=False)
        features = [(2, 1), (3, 1), (39, 1)]
        result = model.dot_products(features)
        assert decrypt_dot_products(bv_scheme, bv_keys, result) == _reference_dot_products(
            small_matrix, features
        )

    def test_paillier_dot_products_match_reference(self, paillier_scheme, paillier_keys, small_matrix):
        model = PackedLinearModel.encrypt(
            paillier_scheme, paillier_keys.public, small_matrix, across_rows=False
        )
        features = [(1, 1), (7, 4), (22, 1)]
        result = model.dot_products(features)
        assert decrypt_dot_products(paillier_scheme, paillier_keys, result) == _reference_dot_products(
            small_matrix, features
        )

    def test_paillier_falls_back_to_legacy_packing(self, paillier_scheme, paillier_keys, small_matrix):
        model = PackedLinearModel.encrypt(
            paillier_scheme, paillier_keys.public, small_matrix, across_rows=True
        )
        assert model.layout.across_rows is False

    def test_multi_segment_matrix(self, bv_scheme, bv_keys):
        # More columns than slots: two full segments plus a leftover segment.
        num_slots = bv_scheme.num_slots
        columns = num_slots + 7
        rng = np.random.default_rng(11)
        matrix = rng.integers(0, 50, size=(9, columns)).tolist()
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
        features = [(0, 1), (4, 2)]
        result = model.dot_products(features)
        assert decrypt_dot_products(bv_scheme, bv_keys, result) == _reference_dot_products(
            matrix, features
        )

    def test_empty_feature_vector_gives_bias_row(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        result = model.dot_products([])
        assert decrypt_dot_products(bv_scheme, bv_keys, result) == list(small_matrix[-1])

    def test_across_row_storage_is_much_smaller(self, bv_scheme, bv_keys, small_matrix):
        pretzel = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        legacy = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=False)
        assert pretzel.storage_bytes() < legacy.storage_bytes() / 10

    def test_out_of_range_feature_rejected(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        with pytest.raises(PackingError):
            model.dot_products([(41, 1)])  # outside the matrix
        with pytest.raises(PackingError):
            model.dot_products([(-1, 1)])

    def test_non_integer_features_rejected(self, bv_scheme, bv_keys, small_matrix):
        # int() would have read (5, 1.7) and (5.5, 1) as (5, 1): a wrong answer.
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        for feature in ((5, 1.7), (5.5, 1), (5, 2.0), (5.0, 1), (True, 1), (5, True), ("5", 1)):
            with pytest.raises(PackingError, match="not a pair of integers"):
                model.dot_products([(0, 1), feature])
        numpy_typed = [(np.int64(5), np.uint8(2)), (np.int32(9), np.int64(1))]
        assert decrypt_dot_products(
            bv_scheme, bv_keys, model.dot_products(numpy_typed)
        ) == _reference_dot_products(small_matrix, [(5, 2), (9, 1)])

    @pytest.mark.parametrize("across_rows", [True, False])
    def test_bias_row_is_not_a_feature(self, bv_scheme, bv_keys, small_matrix, across_rows):
        # Row 40 of the 41 is the bias, which every dot product adds once;
        # taking it as a feature too would add it twice.
        model = PackedLinearModel.encrypt(
            bv_scheme, bv_keys.public, small_matrix, across_rows=across_rows
        )
        for features in ([(40, 1)], [(3, 1), (40, 2)]):
            with pytest.raises(PackingError):
                model.dot_products(features)
        assert decrypt_dot_products(bv_scheme, bv_keys, model.dot_products([])) == small_matrix[40]

    def test_ragged_matrix_rejected(self, bv_scheme, bv_keys):
        with pytest.raises(PackingError):
            PackedLinearModel.encrypt(bv_scheme, bv_keys.public, [[1, 2], [3]], across_rows=True)

    def test_empty_matrix_rejected(self, bv_scheme, bv_keys):
        with pytest.raises(PackingError):
            PackedLinearModel.encrypt(bv_scheme, bv_keys.public, [], across_rows=True)

    def test_column_slot_map_covers_all_columns(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        mapping = model.column_slot_map()
        assert set(mapping) == {0, 1}


def _all_slots(scheme, keys, model):
    ciphertexts = [ct for segment in model.segments for ct in segment.row_ciphertexts]
    if model.leftover is not None:
        ciphertexts += model.leftover.ciphertexts
    return [list(slots) for slots in scheme.decrypt_slots_many(keys, ciphertexts)]


class TestArrayAndListInputsAgree:
    """`encrypt` packs an ndarray by reshaping; a ``list[list[int]]`` goes through the same code."""

    # (scheme, rows, columns relative to the slot count, across_rows)
    CASES = {
        "bv-across-row-last-ciphertext-partly-filled": ("bv", 100, lambda n: 3, True),
        "bv-within-row": ("bv", 20, lambda n: 3, False),
        "bv-full-segment-plus-leftover": ("bv", 9, lambda n: n + 7, True),
        "bv-full-segments-only": ("bv", 5, lambda n: 2 * n, True),
        "paillier-within-row": ("paillier", 12, lambda n: 2, False),
        "paillier-full-segment-plus-leftover": ("paillier", 6, lambda n: n + 2, True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_slots_and_same_dot_products(self, request, case):
        name, rows, columns, across_rows = self.CASES[case]
        scheme = request.getfixturevalue(f"{name}_scheme")
        keys = request.getfixturevalue(f"{name}_keys")
        matrix = np.random.default_rng(len(case)).integers(
            0, 200, size=(rows, columns(scheme.num_slots))
        )
        from_array = PackedLinearModel.encrypt(scheme, keys.public, matrix, across_rows=across_rows)
        from_lists = PackedLinearModel.encrypt(
            scheme, keys.public, matrix.tolist(), across_rows=across_rows
        )
        assert from_array.layout == from_lists.layout
        assert from_array.ciphertext_count() == from_array.layout.ciphertext_count()
        slots = _all_slots(scheme, keys, from_array)
        assert slots == _all_slots(scheme, keys, from_lists)
        # Every model entry sits in exactly one slot and the padding is zero.
        assert sum(sum(vector) for vector in slots) == int(matrix.sum())
        features = [(0, 1), (rows - 2, 3), (rows // 2, 2)]
        expected = _reference_dot_products(matrix, features)
        for model in (from_array, from_lists):
            assert decrypt_dot_products(scheme, keys, model.dot_products(features)) == expected

    def test_partly_filled_last_ciphertext_keeps_zeros(self, bv_scheme, bv_keys):
        matrix = np.arange(1, 301).reshape(100, 3)
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
        first, last = _all_slots(bv_scheme, bv_keys, model)
        assert first[: 85 * 3] == list(range(1, 256)) and last[: 15 * 3] == list(range(256, 301))
        assert not any(last[15 * 3 :])

    def test_out_of_range_entry_rejected_on_both_inputs(self, bv_scheme, bv_keys):
        matrix = np.array([[1, 2], [3, bv_scheme.slot_modulus]], dtype=np.int64)
        for rows in (matrix, matrix.tolist(), -matrix):
            with pytest.raises(ParameterError):
                PackedLinearModel.encrypt(bv_scheme, bv_keys.public, rows, across_rows=True)


class TestBatchedAccumulation:
    """The vectorised dot-product path must be bit-identical to the generic chain."""

    @pytest.fixture(scope="class")
    def small_matrix(self):
        rng = np.random.default_rng(7)
        return rng.integers(0, 200, size=(41, 2)).tolist()

    @pytest.fixture(scope="class")
    def wide_matrix(self, bv_scheme):
        rng = np.random.default_rng(23)
        columns = bv_scheme.num_slots + 19  # one full segment plus a leftover
        return rng.integers(0, 300, size=(25, columns)).tolist()

    def _assert_paths_agree(self, scheme, keys, model, features):
        batched = model.dot_products(features)
        bias = (model.layout.num_rows - 1, 1)
        generic = model._dot_products_generic(
            [(row, int(freq)) for row, freq in features if freq > 0] + [bias]
        )
        decrypted_batched = decrypt_dot_products(scheme, keys, batched)
        decrypted_generic = decrypt_dot_products(scheme, keys, generic)
        assert decrypted_batched == decrypted_generic
        return decrypted_batched

    def test_across_row_batched_matches_generic(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        features = [(0, 3), (5, 2), (17, 1), (39, 7), (12, 1)]
        values = self._assert_paths_agree(bv_scheme, bv_keys, model, features)
        assert values == _reference_dot_products(small_matrix, features)

    def test_multi_segment_batched_matches_generic(self, bv_scheme, bv_keys, wide_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, wide_matrix, across_rows=True)
        features = [(0, 1), (3, 4), (11, 2), (23, 1)]
        values = self._assert_paths_agree(bv_scheme, bv_keys, model, features)
        assert values == _reference_dot_products(wide_matrix, features)

    def test_legacy_layout_batched_matches_generic(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=False)
        features = [(2, 1), (3, 6), (39, 2)]
        values = self._assert_paths_agree(bv_scheme, bv_keys, model, features)
        assert values == _reference_dot_products(small_matrix, features)

    def test_hundred_features_over_a_multi_ciphertext_spam_model(self, bv_scheme, bv_keys):
        # The shape (501 x 2 across rows, 100 features, frequencies 1..7) and the
        # assertion of the retired hot-path benchmark suite.
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 1000, size=(501, 2)).tolist()
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
        assert model.ciphertext_count() > 1
        features = [
            (int(row), int(frequency))
            for row, frequency in zip(
                rng.choice(500, size=100, replace=False), rng.integers(1, 8, size=100)
            )
        ]
        values = self._assert_paths_agree(bv_scheme, bv_keys, model, features)
        assert values == _reference_dot_products(matrix, features)

    def test_duplicate_feature_rows_accumulate(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        features = [(4, 1), (4, 2), (9, 3)]
        values = self._assert_paths_agree(bv_scheme, bv_keys, model, features)
        assert values == _reference_dot_products(small_matrix, features)

    def test_zero_frequency_features_are_skipped(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        result = model.dot_products([(1, 0), (2, -1), (6, 2)])
        assert decrypt_dot_products(bv_scheme, bv_keys, result) == _reference_dot_products(
            small_matrix, [(6, 2)]
        )

    @pytest.mark.parametrize("layout", ["across-rows", "full-segment"])
    def test_huge_frequencies_and_many_terms_cannot_overflow(
        self, bv_scheme, bv_keys, small_matrix, wide_matrix, layout
    ):
        """Frequencies of 2^40 and 2^70 (reduced per prime to almost 2^31) over
        10^4 terms: the integer sum must be chunked, and the result must be the
        generic chain's ciphertext byte for byte on what it computes — all of
        ``c1`` and ``c0`` on the result run (too noisy to decrypt)."""
        matrix = small_matrix if layout == "across-rows" else wide_matrix
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
        rng = np.random.default_rng(40)
        rows = rng.integers(0, len(matrix) - 1, size=10_000).tolist()
        frequencies = [(2**40, 2**70, 3)[index % 3] + index for index in range(10_000)]
        features = list(zip(rows, frequencies))
        batched = model.dot_products(features)
        generic = model._dot_products_generic(features + [(len(matrix) - 1, 1)])
        runs = [bv_scheme.ciphertext_run(ct) for ct in batched.all_ciphertexts()]
        assert runs == model.layout.result_runs()
        for ours, chain in zip(batched.all_ciphertexts(), generic.all_ciphertexts()):
            assert_equal_on_the_run(bv_scheme, ours, chain)

    def test_stacks_are_cached_across_emails(self, bv_scheme, bv_keys, small_matrix):
        model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, small_matrix, across_rows=True)
        model.dot_products([(0, 1)])
        first_stack = model._leftover_stack
        model.dot_products([(1, 1)])
        assert model._leftover_stack is first_stack
