"""Tests for the classifiers: GR-NB, multinomial NB, LR, SVM, selection, metrics."""

import warnings

import numpy as np
import pytest

from repro.classify.logistic import BinaryLogisticRegression, MultinomialLogisticRegression
from repro.classify.metrics import accuracy, candidate_recall, precision_recall
from repro.classify.naive_bayes import GrahamRobinsonNaiveBayes, MultinomialNaiveBayes
from repro.classify.selection import chi_square_scores, project_documents, select_features
from repro.classify.svm import LinearSVM, OneVsAllSVM
from repro.datasets import lingspam_like, newsgroups20_like, prepare_classification_data
from repro.exceptions import ClassifierError


@pytest.fixture(scope="module")
def spam_data():
    return prepare_classification_data(lingspam_like(scale=0.4, seed=5), boolean=True, max_features=2000)


@pytest.fixture(scope="module")
def topic_data():
    return prepare_classification_data(newsgroups20_like(scale=0.3, seed=6), max_features=2500)


def _spam_labels(labels):
    # Corpus category 1 is "spam"; the binary classifiers use label 1 = spam.
    return [1 if label == 1 else 0 for label in labels]


class TestGrahamRobinsonNB:
    @pytest.fixture(scope="class")
    def fitted(self, spam_data):
        classifier = GrahamRobinsonNaiveBayes(num_features=spam_data.num_features)
        classifier.fit(spam_data.train_vectors, _spam_labels(spam_data.train_labels))
        return classifier

    def test_linear_form_accuracy(self, fitted, spam_data):
        labels = _spam_labels(spam_data.test_labels)
        predictions = [int(fitted.predict_is_spam(vector)) for vector in spam_data.test_vectors]
        assert accuracy(predictions, labels) > 0.9

    def test_original_combining_rule_accuracy(self, fitted, spam_data):
        labels = _spam_labels(spam_data.test_labels)
        predictions = [int(fitted.predict_is_spam_original(vector)) for vector in spam_data.test_vectors]
        assert accuracy(predictions, labels) > 0.85

    def test_linear_model_shape(self, fitted, spam_data):
        model = fitted.to_linear_model()
        assert model.weights.shape == (spam_data.num_features, 2)
        assert model.category_names == ["spam", "ham"]

    def test_requires_both_classes(self, spam_data):
        classifier = GrahamRobinsonNaiveBayes(num_features=spam_data.num_features)
        with pytest.raises(ClassifierError):
            classifier.fit(spam_data.train_vectors[:5], [1] * 5)

    def test_unfitted_export_rejected(self):
        with pytest.raises(ClassifierError):
            GrahamRobinsonNaiveBayes(num_features=10).to_linear_model()


class TestMultinomialNB:
    @pytest.fixture(scope="class")
    def fitted(self, topic_data):
        classifier = MultinomialNaiveBayes(
            num_features=topic_data.num_features, category_names=topic_data.category_names
        )
        return classifier.fit(topic_data.train_vectors, topic_data.train_labels)

    def test_topic_accuracy(self, fitted, topic_data):
        model = fitted.to_linear_model()
        predictions = [model.predict(vector) for vector in topic_data.test_vectors]
        assert accuracy(predictions, topic_data.test_labels) > 0.8

    def test_candidate_recall_grows_with_candidates(self, fitted, topic_data):
        model = fitted.to_linear_model()
        recalls = []
        for count in (1, 3, 6):
            candidates = [model.top_categories(vector, count) for vector in topic_data.test_vectors]
            recalls.append(candidate_recall(candidates, topic_data.test_labels))
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[-1] > 0.9

    def test_a_category_without_documents_gets_a_finite_lowest_prior(self):
        # Category 1 has no training document; add-alpha smoothing covers the
        # priors as well as the likelihoods, so no log(0) is taken.
        documents = [{0: 2}, {1: 1}, {2: 3}]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = MultinomialNaiveBayes(num_features=3).fit(documents, [0, 2, 2]).to_linear_model()
        assert np.all(np.isfinite(model.biases))
        assert model.biases[1] < min(model.biases[0], model.biases[2])
        assert np.allclose(np.exp(model.biases), [2 / 6, 1 / 6, 3 / 6])

    def test_mismatched_lengths_rejected(self, topic_data):
        classifier = MultinomialNaiveBayes(num_features=topic_data.num_features)
        with pytest.raises(ClassifierError):
            classifier.fit(topic_data.train_vectors, topic_data.train_labels[:-1])


class TestLogisticRegression:
    def test_binary_spam_accuracy(self, spam_data):
        classifier = BinaryLogisticRegression(num_features=spam_data.num_features, epochs=6)
        classifier.fit(spam_data.train_vectors, _spam_labels(spam_data.train_labels))
        labels = _spam_labels(spam_data.test_labels)
        predictions = [int(classifier.predict_is_spam(vector)) for vector in spam_data.test_vectors]
        assert accuracy(predictions, labels) > 0.9

    def test_multinomial_topic_accuracy(self, topic_data):
        classifier = MultinomialLogisticRegression(
            num_features=topic_data.num_features,
            num_categories=topic_data.num_categories,
            epochs=4,
            category_names=topic_data.category_names,
        )
        classifier.fit(topic_data.train_vectors, topic_data.train_labels)
        model = classifier.to_linear_model()
        predictions = [model.predict(vector) for vector in topic_data.test_vectors]
        assert accuracy(predictions, topic_data.test_labels) > 0.75

    def test_unfitted_rejected(self):
        with pytest.raises(ClassifierError):
            BinaryLogisticRegression(num_features=5).predict_is_spam({0: 1})


class TestSvm:
    def test_binary_spam_accuracy(self, spam_data):
        classifier = LinearSVM(num_features=spam_data.num_features, epochs=6)
        classifier.fit(spam_data.train_vectors, _spam_labels(spam_data.train_labels))
        labels = _spam_labels(spam_data.test_labels)
        predictions = [int(classifier.predict_is_spam(vector)) for vector in spam_data.test_vectors]
        assert accuracy(predictions, labels) > 0.85

    def test_one_vs_all_topic_accuracy(self, topic_data):
        classifier = OneVsAllSVM(
            num_features=topic_data.num_features,
            num_categories=topic_data.num_categories,
            epochs=4,
            category_names=topic_data.category_names,
        )
        classifier.fit(topic_data.train_vectors, topic_data.train_labels)
        model = classifier.to_linear_model()
        predictions = [model.predict(vector) for vector in topic_data.test_vectors]
        assert accuracy(predictions, topic_data.test_labels) > 0.55

    def test_label_out_of_range_rejected(self, topic_data):
        classifier = OneVsAllSVM(num_features=topic_data.num_features, num_categories=2)
        with pytest.raises(ClassifierError):
            classifier.fit(topic_data.train_vectors, topic_data.train_labels)


class TestFeatureSelection:
    def test_scores_shape_and_nonnegativity(self, topic_data):
        scores = chi_square_scores(
            topic_data.train_vectors, topic_data.train_labels, topic_data.num_features
        )
        assert len(scores) == topic_data.num_features
        assert scores.min() >= 0

    def test_select_features_fraction(self, topic_data):
        keep = select_features(
            topic_data.train_vectors, topic_data.train_labels, topic_data.num_features, 0.25
        )
        assert len(keep) == int(round(0.25 * topic_data.num_features))
        assert keep == sorted(keep)

    def test_selection_preserves_most_accuracy(self, topic_data):
        keep = select_features(
            topic_data.train_vectors, topic_data.train_labels, topic_data.num_features, 0.25
        )
        projected_train = project_documents(topic_data.train_vectors, keep)
        projected_test = project_documents(topic_data.test_vectors, keep)
        full = MultinomialNaiveBayes(num_features=topic_data.num_features).fit(
            topic_data.train_vectors, topic_data.train_labels
        )
        reduced = MultinomialNaiveBayes(num_features=len(keep)).fit(
            projected_train, topic_data.train_labels
        )
        full_model, reduced_model = full.to_linear_model(), reduced.to_linear_model()
        full_accuracy = accuracy(
            [full_model.predict(v) for v in topic_data.test_vectors], topic_data.test_labels
        )
        reduced_accuracy = accuracy(
            [reduced_model.predict(v) for v in projected_test], topic_data.test_labels
        )
        assert reduced_accuracy > full_accuracy - 0.1

    def test_invalid_fraction_rejected(self, topic_data):
        with pytest.raises(ClassifierError):
            select_features(topic_data.train_vectors, topic_data.train_labels, topic_data.num_features, 0.0)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75

    def test_precision_recall(self):
        precision, recall = precision_recall([1, 1, 0, 0], [1, 0, 1, 0])
        assert precision == 0.5
        assert recall == 0.5

    def test_candidate_recall(self):
        assert candidate_recall([[1, 2], [3, 4], [5]], [2, 9, 5]) == pytest.approx(2 / 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ClassifierError):
            accuracy([1], [1, 0])
        with pytest.raises(ClassifierError):
            precision_recall([1], [1, 0])
        with pytest.raises(ClassifierError):
            candidate_recall([[1]], [1, 2])
