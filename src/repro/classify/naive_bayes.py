"""Naive Bayes classifiers: multinomial NB and the Graham–Robinson spam variant.

§3.1 and Appendix A of the paper derive the linear forms these classifiers
reduce to:

* multinomial NB for topic extraction selects the category maximising
  ``Σ_i x_i · log p(t_i | C_j) + log p(C_j)`` (expression (2));
* the GR-NB spam classifier compares
  ``Σ_i x_i · log p(t_i | C_spam) + log p(C_spam)`` against the same quantity
  for non-spam (expression (1)), with Boolean ``x_i``.

Both are exported as a :class:`repro.classify.model.LinearModel` whose columns
are the per-category log-probability vectors, which is exactly what the
secure dot-product protocols consume.  The original (non-linear) combining
rule of Graham and Robinson is also provided for the "GR" accuracy row of
Fig. 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.classify.model import LinearModel
from repro.exceptions import ClassifierError

SparseVector = Mapping[int, int]


@dataclass
class MultinomialNaiveBayes:
    """Multinomial Naive Bayes with Laplace (add-alpha) smoothing."""

    num_features: int
    alpha: float = 1.0
    category_names: list[str] = field(default_factory=list)
    _log_likelihoods: np.ndarray | None = None   # (num_features, num_categories)
    _log_priors: np.ndarray | None = None        # (num_categories,)

    def fit(self, documents: Sequence[SparseVector], labels: Sequence[int]) -> "MultinomialNaiveBayes":
        if len(documents) != len(labels):
            raise ClassifierError("documents and labels must have the same length")
        if not documents:
            raise ClassifierError("cannot fit on an empty training set")
        num_categories = max(labels) + 1
        if not self.category_names:
            self.category_names = [f"category-{index}" for index in range(num_categories)]
        counts = np.zeros((self.num_features, num_categories), dtype=np.float64)
        doc_counts = np.zeros(num_categories, dtype=np.float64)
        for document, label in zip(documents, labels):
            doc_counts[label] += 1
            for feature, value in document.items():
                if 0 <= feature < self.num_features:
                    counts[feature, label] += value
        totals = counts.sum(axis=0)
        self._log_likelihoods = np.log(
            (counts + self.alpha) / (totals + self.alpha * self.num_features)
        )
        # Add-alpha on the priors too: a category with no training document
        # gets a finite prior below every seen category's, not log(0).
        self._log_priors = np.log(
            (doc_counts + self.alpha) / (doc_counts.sum() + self.alpha * num_categories)
        )
        return self

    def to_linear_model(self) -> LinearModel:
        if self._log_likelihoods is None or self._log_priors is None:
            raise ClassifierError("classifier must be fitted before exporting a model")
        return LinearModel(
            weights=self._log_likelihoods.copy(),
            biases=self._log_priors.copy(),
            category_names=list(self.category_names),
        )


@dataclass
class GrahamRobinsonNaiveBayes:
    """GR-NB spam classifier over Boolean presence features (§3.1, Apdx A.1).

    Per-feature spamminess ``p(t_i | spam)`` is estimated with Robinson's
    strength-``s`` smoothing toward a neutral prior ``x = 0.5``, then the
    decision reduces to the linear comparison of expression (1).  Category 0
    is spam, category 1 is non-spam ("ham").
    """

    num_features: int
    robinson_s: float = 1.0
    neutral_prior: float = 0.5
    epsilon: float = 1e-6
    _spam_given_token: np.ndarray | None = None
    _ham_given_token: np.ndarray | None = None
    _log_prior_spam: float = math.log(0.5)
    _log_prior_ham: float = math.log(0.5)

    category_names = ["spam", "ham"]

    def fit(self, documents: Sequence[SparseVector], labels: Sequence[int]) -> "GrahamRobinsonNaiveBayes":
        """Fit from Boolean feature vectors; label 1 means spam, 0 means ham."""
        if len(documents) != len(labels):
            raise ClassifierError("documents and labels must have the same length")
        spam_docs = sum(1 for label in labels if label == 1)
        ham_docs = len(labels) - spam_docs
        if spam_docs == 0 or ham_docs == 0:
            raise ClassifierError("training data must contain both spam and ham")
        spam_with_token = np.zeros(self.num_features, dtype=np.float64)
        ham_with_token = np.zeros(self.num_features, dtype=np.float64)
        for document, label in zip(documents, labels):
            target = spam_with_token if label == 1 else ham_with_token
            for feature, value in document.items():
                if value and 0 <= feature < self.num_features:
                    target[feature] += 1
        # Conditional presence probabilities with Robinson smoothing.
        raw_spam = spam_with_token / spam_docs
        raw_ham = ham_with_token / ham_docs
        occurrences = spam_with_token + ham_with_token
        s = self.robinson_s
        x = self.neutral_prior
        self._spam_given_token = (s * x + occurrences * raw_spam) / (s + occurrences)
        self._ham_given_token = (s * x + occurrences * raw_ham) / (s + occurrences)
        self._log_prior_spam = math.log(spam_docs / len(labels))
        self._log_prior_ham = math.log(ham_docs / len(labels))
        return self

    def to_linear_model(self) -> LinearModel:
        """Columns: [spam, ham] log conditional probabilities; biases: log priors."""
        if self._spam_given_token is None or self._ham_given_token is None:
            raise ClassifierError("classifier must be fitted before exporting a model")
        spam_column = np.log(np.clip(self._spam_given_token, self.epsilon, 1.0))
        ham_column = np.log(np.clip(self._ham_given_token, self.epsilon, 1.0))
        weights = np.stack([spam_column, ham_column], axis=1)
        biases = np.array([self._log_prior_spam, self._log_prior_ham])
        return LinearModel(weights=weights, biases=biases, category_names=list(self.category_names))

    def predict_is_spam(self, document: SparseVector) -> bool:
        """Linear-form decision: spam iff the spam column's score wins."""
        scores = self.to_linear_model().decision_scores(
            {index: 1 for index, value in document.items() if value}
        )
        return bool(scores[0] > scores[1])

    # -- original Graham combining rule (the "GR" row of Fig. 9) ----------------
    def spamminess(self, feature: int) -> float:
        """Robinson's per-token spam probability ``p(spam | t_i)`` (uniform priors)."""
        if self._spam_given_token is None or self._ham_given_token is None:
            raise ClassifierError("classifier must be fitted first")
        spam = self._spam_given_token[feature]
        ham = self._ham_given_token[feature]
        denominator = spam + ham
        if denominator <= 0:
            return 0.5
        return float(spam / denominator)

    def predict_is_spam_original(self, document: SparseVector, top_tokens: int = 15, threshold: float = 0.5) -> bool:
        """Graham's original combining rule over the most "interesting" tokens.

        The most extreme per-token probabilities (farthest from 0.5) are
        combined with Graham's formula; this is the non-linear variant the
        paper reports as "GR" in Fig. 9 and notes has nearly identical
        accuracy to the linear GR-NB form.
        """
        present = [index for index, value in document.items() if value and 0 <= index < self.num_features]
        if not present:
            return False
        probabilities = [self.spamminess(index) for index in present]
        probabilities.sort(key=lambda p: abs(p - 0.5), reverse=True)
        chosen = probabilities[:top_tokens]
        product_spam = 1.0
        product_ham = 1.0
        for p in chosen:
            clipped = min(max(p, self.epsilon), 1.0 - self.epsilon)
            product_spam *= clipped
            product_ham *= 1.0 - clipped
        combined = product_spam / (product_spam + product_ham)
        return combined > threshold
