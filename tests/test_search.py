"""Tests for the client-side keyword-search index (§5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SearchIndexError
from repro.search.index import KeywordSearchIndex


class TestIndexing:
    def test_add_and_query(self):
        index = KeywordSearchIndex()
        doc_a = index.add_document("meeting about budget tomorrow")
        doc_b = index.add_document("lunch tomorrow at noon")
        assert index.query("tomorrow") == sorted([doc_a, doc_b])
        assert index.query("budget") == [doc_a]
        assert index.query("nonexistent") == []

    def test_query_is_case_insensitive(self):
        index = KeywordSearchIndex()
        doc = index.add_document("Quarterly REPORT attached")
        assert index.query("report") == [doc]
        assert index.query("Report") == [doc]

    def test_duplicate_tokens_counted_once_per_document(self):
        index = KeywordSearchIndex()
        doc = index.add_document("spam spam spam")
        assert index.query("spam") == [doc]

    def test_multi_word_single_query_rejected(self):
        index = KeywordSearchIndex()
        index.add_document("a b c")
        with pytest.raises(SearchIndexError):
            index.query("a b")

    def test_explicit_document_ids(self):
        index = KeywordSearchIndex()
        index.add_document("first", document_id=10)
        assert index.query("first") == [10]
        with pytest.raises(SearchIndexError):
            index.add_document("again", document_id=10)


class TestAccounting:
    def test_size_grows_with_documents(self):
        index = KeywordSearchIndex()
        sizes = [index.size_bytes()]
        for i in range(5):
            index.add_document(f"document number {i} with words {'x' * i}")
            sizes.append(index.size_bytes())
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_counts(self):
        index = KeywordSearchIndex()
        index.add_document("one two three")
        index.add_document("two three four")
        assert index.document_count() == 2
        assert index.vocabulary_size() == 4

    @given(st.lists(st.text(alphabet="abcde ", min_size=1, max_size=30), min_size=1, max_size=20))
    @settings(max_examples=20, deadline=None)
    def test_every_indexed_token_is_findable(self, documents):
        index = KeywordSearchIndex()
        ids = [index.add_document(text) for text in documents]
        for doc_id, text in zip(ids, documents):
            for token in set(text.split()):
                if token:
                    assert doc_id in index.query(token)
