"""Logistic-regression classifiers trained with stochastic gradient descent.

The paper trains binary LR for spam and multinomial LR for topic extraction
with LIBLINEAR (§3.1, §5); here we train with plain SGD over sparse feature
vectors, which is sufficient because only the *shape* of the resulting linear
model matters to the secure protocols (the weights are just another matrix to
encrypt and dot against).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.classify.model import LinearModel
from repro.exceptions import ClassifierError

SparseVector = Mapping[int, int]


def _sigmoid(value: float) -> float:
    if value >= 0:
        z = math.exp(-value)
        return 1.0 / (1.0 + z)
    z = math.exp(value)
    return z / (1.0 + z)


@dataclass
class BinaryLogisticRegression:
    """Two-class logistic regression (label 1 = positive/spam)."""

    num_features: int
    learning_rate: float = 0.1
    l2_penalty: float = 1e-4
    epochs: int = 10
    seed: int = 7
    _weights: np.ndarray | None = None
    _bias: float = 0.0
    category_names: list[str] = field(default_factory=lambda: ["spam", "ham"])

    def fit(self, documents: Sequence[SparseVector], labels: Sequence[int]) -> "BinaryLogisticRegression":
        if len(documents) != len(labels):
            raise ClassifierError("documents and labels must have the same length")
        weights = np.zeros(self.num_features, dtype=np.float64)
        bias = 0.0
        order = np.arange(len(documents))
        rng = np.random.default_rng(self.seed)
        for epoch in range(self.epochs):
            rng.shuffle(order)
            rate = self.learning_rate / (1.0 + epoch)
            for position in order:
                document = documents[position]
                target = 1.0 if labels[position] == 1 else 0.0
                score = bias + sum(
                    count * weights[index]
                    for index, count in document.items()
                    if 0 <= index < self.num_features
                )
                error = _sigmoid(score) - target
                bias -= rate * error
                for index, count in document.items():
                    if 0 <= index < self.num_features:
                        gradient = error * count + self.l2_penalty * weights[index]
                        weights[index] -= rate * gradient
        self._weights = weights
        self._bias = bias
        return self

    def predict_is_spam(self, document: SparseVector) -> bool:
        if self._weights is None:
            raise ClassifierError("classifier must be fitted first")
        score = self._bias + sum(
            count * self._weights[index]
            for index, count in document.items()
            if 0 <= index < self.num_features
        )
        return score > 0.0


@dataclass
class MultinomialLogisticRegression:
    """Softmax regression over many categories (topic extraction)."""

    num_features: int
    num_categories: int
    learning_rate: float = 0.2
    l2_penalty: float = 1e-5
    epochs: int = 8
    seed: int = 11
    category_names: list[str] = field(default_factory=list)
    _weights: np.ndarray | None = None   # (num_features, num_categories)
    _biases: np.ndarray | None = None

    def fit(self, documents: Sequence[SparseVector], labels: Sequence[int]) -> "MultinomialLogisticRegression":
        if len(documents) != len(labels):
            raise ClassifierError("documents and labels must have the same length")
        if max(labels, default=0) >= self.num_categories:
            raise ClassifierError("a label exceeds num_categories")
        if not self.category_names:
            self.category_names = [f"category-{index}" for index in range(self.num_categories)]
        weights = np.zeros((self.num_features, self.num_categories), dtype=np.float64)
        biases = np.zeros(self.num_categories, dtype=np.float64)
        order = np.arange(len(documents))
        rng = np.random.default_rng(self.seed)
        for epoch in range(self.epochs):
            rng.shuffle(order)
            rate = self.learning_rate / (1.0 + epoch)
            for position in order:
                document = documents[position]
                label = labels[position]
                indices = [index for index in document if 0 <= index < self.num_features]
                counts = np.array([document[index] for index in indices], dtype=np.float64)
                scores = biases.copy()
                if indices:
                    scores += counts @ weights[indices, :]
                scores -= scores.max()
                probabilities = np.exp(scores)
                probabilities /= probabilities.sum()
                probabilities[label] -= 1.0  # gradient of cross-entropy wrt scores
                biases -= rate * probabilities
                if indices:
                    weights[indices, :] -= rate * (
                        np.outer(counts, probabilities) + self.l2_penalty * weights[indices, :]
                    )
        self._weights = weights
        self._biases = biases
        return self

    def to_linear_model(self) -> LinearModel:
        if self._weights is None or self._biases is None:
            raise ClassifierError("classifier must be fitted first")
        return LinearModel(
            weights=self._weights.copy(),
            biases=self._biases.copy(),
            category_names=list(self.category_names),
        )

