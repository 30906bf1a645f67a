"""Linear-model representation and fixed-point quantization.

Every classifier in :mod:`repro.classify` exports a :class:`LinearModel`:
a weight matrix with one row per feature and one column per category, plus a
bias per category.  Applying the model to a sparse feature vector is a
per-category dot product followed by argmax (topics) or a two-way comparison
(spam), matching expressions (1) and (2) of the paper.

The secure protocols compute over *integers*, so :class:`QuantizedLinearModel`
maps the float weights into ``bin``-bit non-negative integers with a single
global affine transform (same scale and offset for every entry).  Because the
transform is shared across categories, per-category scores are all transformed
by the same monotone map, so comparisons and argmaxes are preserved.  The
semantic width of a dot product is ``b = log2(L) + bin + fin`` bits — exactly
the budget the paper's packing analysis uses (Fig. 3, §4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ClassifierError, ParameterError

SparseVector = Mapping[int, int]


@dataclass
class LinearModel:
    """Float linear model: ``score_j(x) = Σ_i x_i · weights[i, j] + bias[j]``."""

    weights: np.ndarray          # shape (num_features, num_categories)
    biases: np.ndarray           # shape (num_categories,)
    category_names: list[str]

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ClassifierError("weights must be a 2-D matrix")
        if self.weights.shape[1] != len(self.biases):
            raise ClassifierError("bias count must equal the number of categories")
        if len(self.category_names) != self.weights.shape[1]:
            raise ClassifierError("category name count must equal the number of categories")

    @property
    def num_features(self) -> int:
        return self.weights.shape[0]

    @property
    def num_categories(self) -> int:
        return self.weights.shape[1]

    def decision_scores(self, features: SparseVector) -> np.ndarray:
        """Per-category scores for a sparse feature vector."""
        scores = self.biases.copy()
        for index, count in features.items():
            if 0 <= index < self.num_features and count:
                scores += count * self.weights[index]
        return scores

    def predict(self, features: SparseVector) -> int:
        """Index of the highest-scoring category."""
        return int(np.argmax(self.decision_scores(features)))

    def predict_name(self, features: SparseVector) -> str:
        return self.category_names[self.predict(features)]

    def top_categories(self, features: SparseVector, count: int) -> list[int]:
        """Indices of the *count* highest-scoring categories (candidate topics, §4.3)."""
        scores = self.decision_scores(features)
        count = min(count, self.num_categories)
        order = np.argsort(scores)[::-1]
        return [int(index) for index in order[:count]]

    def restrict_features(self, keep_indices: Sequence[int]) -> "LinearModel":
        """Model over a reduced feature set (feature selection, §4.3)."""
        keep = list(keep_indices)
        return LinearModel(
            weights=self.weights[keep, :],
            biases=self.biases.copy(),
            category_names=list(self.category_names),
        )

    def plaintext_size_bytes(self, bytes_per_weight: int = 4) -> int:
        """Size of the unencrypted model (the "Non-encrypted" rows of Figs. 8/12)."""
        return int((self.weights.size + self.biases.size) * bytes_per_weight)


@dataclass
class QuantizedLinearModel:
    """Fixed-point integer version of a :class:`LinearModel`.

    ``matrix`` has ``num_features + 1`` rows: the final row holds the biases
    (the "+1 · log p(C_j)" term of expressions (1)/(2)), which the protocols
    always add with frequency 1.
    """

    matrix: np.ndarray            # shape (num_features + 1, num_categories), non-negative ints
    category_names: list[str]
    value_bits: int               # bin
    frequency_bits: int           # fin
    max_features_per_email: int   # L used for the dot-product width budget
    scale: float
    offset: float

    @classmethod
    def from_linear_model(
        cls,
        model: LinearModel,
        value_bits: int = 12,
        frequency_bits: int = 4,
        max_features_per_email: int = 8192,
    ) -> "QuantizedLinearModel":
        if value_bits < 2 or value_bits > 30:
            raise ParameterError("value_bits must be between 2 and 30")
        if frequency_bits < 1 or frequency_bits > 16:
            raise ParameterError("frequency_bits must be between 1 and 16")
        stacked = np.vstack([model.weights, model.biases.reshape(1, -1)])
        low = float(stacked.min())
        high = float(stacked.max())
        spread = high - low
        if spread <= 0:
            spread = 1.0
        scale = ((1 << value_bits) - 1) / spread
        quantized = np.rint((stacked - low) * scale).astype(np.int64)
        quantized = np.clip(quantized, 0, (1 << value_bits) - 1)
        return cls(
            matrix=quantized,
            category_names=list(model.category_names),
            value_bits=value_bits,
            frequency_bits=frequency_bits,
            max_features_per_email=max_features_per_email,
            scale=scale,
            offset=low,
        )

    # -- geometry -------------------------------------------------------------
    @property
    def num_features(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def num_categories(self) -> int:
        return self.matrix.shape[1]

    @property
    def dot_product_bits(self) -> int:
        """Semantic bits of a dot product: ``log2(L) + bin + fin`` (Fig. 3's ``b``)."""
        log_l = max(1, math.ceil(math.log2(self.max_features_per_email + 1)))
        return log_l + self.value_bits + self.frequency_bits

    def matrix_rows(self) -> np.ndarray:
        """The ``(rows, columns)`` integer block :meth:`repro.crypto.packing.PackedLinearModel.encrypt` packs."""
        return self.matrix

    # -- plaintext reference computation ------------------------------------------
    def clip_frequency(self, count: int) -> int:
        """Clamp a term frequency to ``fin`` bits (the protocol's x_i encoding)."""
        return max(0, min(count, (1 << self.frequency_bits) - 1))

    def sparse_features(self, features: SparseVector) -> list[tuple[int, int]]:
        """Protocol-ready (row, frequency) pairs with out-of-vocabulary indices dropped.

        More than ``max_features_per_email`` in-vocabulary features are
        refused: ``dot_product_bits`` — the width of the Yao circuit — holds a
        score only within that budget, and a wider one would wrap silently.
        So are indices and counts that are not integers (``bool`` and
        ``float`` included; numpy integers are integers).
        """
        pairs = []
        for index, count in features.items():
            # A fractional index or count would become a wrong row or frequency;
            # `type(...) is int` is exact, so it refuses bool too.
            if (type(index) is not int and not isinstance(index, np.integer)) or (
                type(count) is not int and not isinstance(count, np.integer)
            ):
                raise ClassifierError(
                    f"feature {index!r}: {count!r} is not an integer index and count"
                )
            if 0 <= index < self.num_features:
                clipped = self.clip_frequency(count)
                if clipped:
                    pairs.append((int(index), clipped))
        if len(pairs) > self.max_features_per_email:
            raise ClassifierError(
                f"email has {len(pairs)} in-vocabulary features; the model's dot-product "
                f"width budgets for at most {self.max_features_per_email}"
            )
        return pairs

    def integer_scores(self, features: SparseVector) -> np.ndarray:
        """Reference integer dot products (what the secure protocol must reproduce)."""
        scores = self.matrix[-1].astype(np.int64).copy()
        for index, count in self.sparse_features(features):
            scores += count * self.matrix[index]
        return scores

    def predict(self, features: SparseVector) -> int:
        return int(np.argmax(self.integer_scores(features)))

    def predict_is_spam(self, features: SparseVector, spam_column: int = 0) -> bool:
        """Two-category decision: is the spam column's score strictly larger?"""
        if self.num_categories != 2:
            raise ClassifierError("predict_is_spam requires a two-category model")
        scores = self.integer_scores(features)
        other = 1 - spam_column
        return bool(scores[spam_column] > scores[other])

    def plaintext_size_bytes(self, bytes_per_weight: int = 4) -> int:
        return int(self.matrix.size * bytes_per_weight)
