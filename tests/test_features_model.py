"""Tests for feature extraction and the (quantized) linear-model representation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.classify.features import FeatureExtractor, tokenize
from repro.classify.model import LinearModel, QuantizedLinearModel
from repro.exceptions import ClassifierError, ParameterError


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello, World! 123") == ["hello", "world", "123"]

    def test_keeps_apostrophes(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_empty_string(self):
        assert tokenize("") == []


class TestFeatureExtractor:
    @pytest.fixture(scope="class")
    def extractor(self):
        documents = ["spam spam eggs", "eggs toast coffee", "coffee coffee spam"]
        return FeatureExtractor().fit(documents)

    def test_vocabulary_built(self, extractor):
        assert extractor.num_features == 4
        assert set(extractor.vocabulary) == {"spam", "eggs", "toast", "coffee"}

    def test_transform_counts(self, extractor):
        vector = extractor.transform("spam spam coffee unknown")
        spam_index = extractor.vocabulary["spam"]
        coffee_index = extractor.vocabulary["coffee"]
        assert vector[spam_index] == 2
        assert vector[coffee_index] == 1
        assert len(vector) == 2

    def test_transform_boolean(self, extractor):
        vector = extractor.transform("spam spam", boolean=True)
        assert list(vector.values()) == [1]

    def test_transform_before_fit_rejected(self):
        with pytest.raises(ClassifierError):
            FeatureExtractor().transform("text")

    def test_max_features_cap(self):
        extractor = FeatureExtractor(max_features=2).fit(["a a a b b c"])
        assert extractor.num_features == 2
        assert "a" in extractor.vocabulary and "b" in extractor.vocabulary


class TestLinearModel:
    @pytest.fixture(scope="class")
    def model(self):
        weights = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
        return LinearModel(weights=weights, biases=np.array([0.1, 0.0]), category_names=["a", "b"])

    def test_decision_scores(self, model):
        scores = model.decision_scores({0: 2, 2: 1})
        assert scores == pytest.approx([2.6, 0.5])

    def test_predict_argmax(self, model):
        assert model.predict({1: 3}) == 1
        assert model.predict({0: 5}) == 0

    def test_top_categories_order(self, model):
        assert model.top_categories({1: 1}, 2) == [1, 0]

    def test_top_categories_clipped_to_b(self, model):
        assert len(model.top_categories({0: 1}, 10)) == 2

    def test_shape_validation(self):
        with pytest.raises(ClassifierError):
            LinearModel(weights=np.zeros((3, 2)), biases=np.zeros(3), category_names=["a", "b"])
        with pytest.raises(ClassifierError):
            LinearModel(weights=np.zeros((3, 2)), biases=np.zeros(2), category_names=["a"])

    def test_plaintext_size(self, model):
        assert model.plaintext_size_bytes() == (6 + 2) * 4


class TestQuantizedLinearModel:
    @pytest.fixture(scope="class")
    def models(self):
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(50, 3))
        linear = LinearModel(weights=weights, biases=rng.normal(size=3), category_names=["x", "y", "z"])
        quantized = QuantizedLinearModel.from_linear_model(
            linear, value_bits=12, frequency_bits=4, max_features_per_email=256
        )
        return linear, quantized

    def test_matrix_shape_and_range(self, models):
        _, quantized = models
        assert quantized.matrix.shape == (51, 3)
        assert quantized.matrix.min() >= 0
        assert quantized.matrix.max() < 2**12

    def test_dot_product_bits_budget(self, models):
        _, quantized = models
        # log2(257) rounds up to 9, plus bin=12 and fin=4.
        assert quantized.dot_product_bits == 9 + 12 + 4

    def test_quantization_preserves_argmax(self, models):
        linear, quantized = models
        rng = np.random.default_rng(6)
        agreements = 0
        total = 30
        for _ in range(total):
            features = {int(rng.integers(0, 50)): int(rng.integers(1, 4)) for _ in range(8)}
            if linear.predict(features) == quantized.predict(features):
                agreements += 1
        assert agreements >= total - 2  # quantization may flip near-ties only

    def test_clip_frequency(self, models):
        _, quantized = models
        assert quantized.clip_frequency(100) == 15
        assert quantized.clip_frequency(-2) == 0

    def test_sparse_features_drop_oov(self, models):
        _, quantized = models
        pairs = quantized.sparse_features({1: 2, 999: 5})
        assert pairs == [(1, 2)]

    def test_sparse_features_refuse_non_integers(self, models):
        # Truncating {5.5: 1} to row 5 or {5: 1.7} to frequency 1 is a wrong answer.
        _, quantized = models
        for features in ({5.5: 1}, {5: 1.7}, {5: 2.0}, {True: 1}, {5: True}, {999.5: 1}):
            with pytest.raises(ClassifierError, match="not an integer"):
                quantized.sparse_features({3: 2, **features})
        pairs = quantized.sparse_features({np.int64(5): np.uint8(2), np.int32(999): np.int64(1)})
        assert pairs == [(5, 2)]

    def test_predict_is_spam_requires_two_categories(self, models):
        _, quantized = models
        with pytest.raises(ClassifierError):
            quantized.predict_is_spam({0: 1})

    def test_invalid_quantization_parameters(self, models):
        linear, _ = models
        with pytest.raises(ParameterError):
            QuantizedLinearModel.from_linear_model(linear, value_bits=1)
        with pytest.raises(ParameterError):
            QuantizedLinearModel.from_linear_model(linear, frequency_bits=0)

    @given(st.integers(min_value=0, max_value=49), st.integers(min_value=1, max_value=15))
    @settings(max_examples=20, deadline=None)
    def test_integer_scores_match_matrix_arithmetic(self, feature, frequency):
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(50, 2))
        linear = LinearModel(weights=weights, biases=np.zeros(2), category_names=["a", "b"])
        quantized = QuantizedLinearModel.from_linear_model(linear, value_bits=8, frequency_bits=4)
        scores = quantized.integer_scores({feature: frequency})
        expected = quantized.matrix[-1] + frequency * quantized.matrix[feature]
        assert list(scores) == list(expected)
