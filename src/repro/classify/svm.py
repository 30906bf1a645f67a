"""Linear support-vector machines (Pegasos-style SGD training).

The paper uses two-class SVM for spam and one-versus-all SVM for topic
extraction (§3.1).  At application time an SVM is just another linear model,
so both trainers export :class:`repro.classify.model.LinearModel` like the
other classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.classify.model import LinearModel
from repro.exceptions import ClassifierError

SparseVector = Mapping[int, int]


@dataclass
class LinearSVM:
    """Two-class linear SVM with hinge loss (label 1 = positive/spam)."""

    num_features: int
    regularization: float = 1e-4
    epochs: int = 10
    seed: int = 3
    category_names: list[str] = field(default_factory=lambda: ["spam", "ham"])
    _weights: np.ndarray | None = None
    _bias: float = 0.0

    def fit(self, documents: Sequence[SparseVector], labels: Sequence[int]) -> "LinearSVM":
        if len(documents) != len(labels):
            raise ClassifierError("documents and labels must have the same length")
        weights = np.zeros(self.num_features, dtype=np.float64)
        bias = 0.0
        order = np.arange(len(documents))
        rng = np.random.default_rng(self.seed)
        step = 0
        for _ in range(self.epochs):
            rng.shuffle(order)
            for position in order:
                step += 1
                # Pegasos step size with a warm-up offset so the first updates
                # do not blow the weights up before the 1/t decay kicks in.
                rate = 1.0 / (self.regularization * (step + 100))
                document = documents[position]
                target = 1.0 if labels[position] == 1 else -1.0
                margin = target * (
                    bias
                    + sum(
                        count * weights[index]
                        for index, count in document.items()
                        if 0 <= index < self.num_features
                    )
                )
                weights *= 1.0 - rate * self.regularization
                if margin < 1.0:
                    for index, count in document.items():
                        if 0 <= index < self.num_features:
                            weights[index] += rate * target * count
                    bias += rate * target
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
class OneVsAllSVM:
    """One-versus-all linear SVM for multi-category classification."""

    num_features: int
    num_categories: int
    regularization: float = 1e-2
    epochs: int = 8
    seed: int = 5
    category_names: list[str] = field(default_factory=list)
    _weights: np.ndarray | None = None   # (num_features, num_categories)
    _biases: np.ndarray | None = None

    def fit(self, documents: Sequence[SparseVector], labels: Sequence[int]) -> "OneVsAllSVM":
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
        step = 0
        for _ in range(self.epochs):
            rng.shuffle(order)
            for position in order:
                step += 1
                rate = 1.0 / (self.regularization * (step + 100))
                document = documents[position]
                label = labels[position]
                indices = [index for index in document if 0 <= index < self.num_features]
                counts = np.array([document[index] for index in indices], dtype=np.float64)
                targets = -np.ones(self.num_categories)
                targets[label] = 1.0
                scores = biases.copy()
                if indices:
                    scores += counts @ weights[indices, :]
                margins = targets * scores
                weights *= 1.0 - rate * self.regularization
                violating = margins < 1.0
                if violating.any():
                    update = rate * targets * violating
                    biases += update
                    if indices:
                        weights[indices, :] += np.outer(counts, update)
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

