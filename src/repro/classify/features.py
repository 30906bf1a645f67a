"""Feature extraction: tokenisation and sparse feature vectors.

Documents (emails) are represented by feature vectors ``x = (x_1 ... x_N)``
(§3.1).  A feature here is a lower-cased word token; the GR-NB spam filter
uses Boolean presence features, while the multinomial classifiers use term
frequencies.  The extractor produces *sparse* vectors (``{feature index:
count}``) because an email only touches ``L ≪ N`` features — the quantity the
paper's cost model calls ``L`` (Fig. 3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import ClassifierError

_TOKEN_PATTERN = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> list[str]:
    """Lower-case word tokenisation (letters, digits and apostrophes)."""
    return _TOKEN_PATTERN.findall(text.lower())


SparseVector = dict[int, int]


@dataclass
class FeatureExtractor:
    """Maps token streams to sparse feature vectors over a learned vocabulary."""

    max_features: int | None = None
    vocabulary: dict[str, int] = field(default_factory=dict)
    document_frequency: dict[int, int] = field(default_factory=dict)
    _frozen: bool = False

    # -- vocabulary construction -------------------------------------------
    def fit(self, documents: Iterable[str]) -> "FeatureExtractor":
        """Build the vocabulary from an iterable of raw documents."""
        counts: dict[str, int] = {}
        doc_counts: dict[str, int] = {}
        for document in documents:
            tokens = tokenize(document)
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
            for token in set(tokens):
                doc_counts[token] = doc_counts.get(token, 0) + 1
        ordered = sorted(counts, key=lambda token: (-counts[token], token))
        if self.max_features is not None:
            ordered = ordered[: self.max_features]
        self.vocabulary = {token: index for index, token in enumerate(ordered)}
        self.document_frequency = {
            self.vocabulary[token]: doc_counts[token]
            for token in ordered
        }
        self._frozen = True
        return self

    @property
    def num_features(self) -> int:
        return len(self.vocabulary)

    # -- transformation -------------------------------------------------------
    def transform(self, document: str, boolean: bool = False) -> SparseVector:
        """Sparse feature vector of a document (term counts or 0/1 presence)."""
        if not self._frozen:
            raise ClassifierError("FeatureExtractor.transform called before fit")
        vector: SparseVector = {}
        for token in tokenize(document):
            index = self.vocabulary.get(token)
            if index is None:
                continue
            if boolean:
                vector[index] = 1
            else:
                vector[index] = vector.get(index, 0) + 1
        return vector

    def transform_many(self, documents: Iterable[str], boolean: bool = False) -> list[SparseVector]:
        return [self.transform(document, boolean=boolean) for document in documents]

