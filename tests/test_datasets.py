"""Tests for the synthetic corpora and data preparation."""

import pytest

from repro.datasets import (
    SyntheticCorpusSpec,
    enron_like,
    generate_corpus,
    gmail_like,
    lingspam_like,
    newsgroups20_like,
    prepare_classification_data,
    rcv1_like,
    reuters_like,
    train_test_split,
)
from repro.exceptions import DatasetError


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        spec = SyntheticCorpusSpec(
            name="t", category_names=["a", "b"], documents_per_category=[10, 10], seed=1
        )
        assert generate_corpus(spec).documents == generate_corpus(spec).documents

    def test_different_seed_changes_corpus(self):
        base = dict(name="t", category_names=["a", "b"], documents_per_category=[10, 10])
        first = generate_corpus(SyntheticCorpusSpec(seed=1, **base))
        second = generate_corpus(SyntheticCorpusSpec(seed=2, **base))
        assert first.documents != second.documents

    def test_document_counts_respected(self):
        corpus = generate_corpus(
            SyntheticCorpusSpec(name="t", category_names=["a", "b", "c"], documents_per_category=[5, 7, 9])
        )
        assert len(corpus) == 21
        assert sorted(set(corpus.labels)) == [0, 1, 2]

    def test_invalid_spec_rejected(self):
        with pytest.raises(DatasetError):
            SyntheticCorpusSpec(name="t", category_names=["a"], documents_per_category=[5])
        with pytest.raises(DatasetError):
            SyntheticCorpusSpec(
                name="t", category_names=["a", "b"], documents_per_category=[5], vocabulary_size=5000
            )

    @pytest.mark.parametrize(
        "factory,categories",
        [
            (lingspam_like, 2),
            (enron_like, 2),
            (gmail_like, 2),
            (newsgroups20_like, 20),
            (reuters_like, 30),
            (rcv1_like, 40),
        ],
    )
    def test_named_corpora_structure(self, factory, categories):
        corpus = factory(scale=0.2)
        assert len(corpus.category_names) == categories
        assert len(corpus) > 0
        assert max(corpus.labels) == categories - 1

    def test_categories_are_separable(self):
        # A basic sanity check that the topical-word structure is learnable.
        corpus = lingspam_like(scale=0.3)
        spam_words = set()
        ham_words = set()
        for document, label in zip(corpus.documents, corpus.labels):
            target = spam_words if label == 1 else ham_words
            target.update(document.split())
        assert spam_words - ham_words  # spam has vocabulary ham never uses


class TestSplitsAndPreparation:
    def test_split_sizes(self):
        corpus = gmail_like(scale=0.3)
        train, test = train_test_split(corpus, train_fraction=0.75)
        assert len(train) + len(test) == len(corpus)
        assert len(train) > len(test)

    def test_split_fraction_validation(self):
        corpus = gmail_like(scale=0.3)
        with pytest.raises(DatasetError):
            train_test_split(corpus, train_fraction=1.5)

    def test_prepare_classification_data(self):
        data = prepare_classification_data(gmail_like(scale=0.3), max_features=800, boolean=True)
        assert data.num_features <= 800
        assert len(data.train_vectors) == len(data.train_labels)
        assert len(data.test_vectors) == len(data.test_labels)
        assert all(set(vector.values()) <= {1} for vector in data.train_vectors[:10])

    def test_prepared_vocabulary_comes_from_training_half(self):
        data = prepare_classification_data(gmail_like(scale=0.3), max_features=500)
        assert data.extractor.num_features > 0
        assert data.num_categories == 2
