"""Evaluation metrics used by the paper's accuracy figures.

Fig. 9 reports accuracy, precision and recall for spam filtering; Fig. 13
reports accuracy under feature selection; Fig. 14 reports the fraction of
test documents whose true topic is contained in the B' candidate topics
("candidate recall" here).
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ClassifierError


def accuracy(predicted: Sequence[int], actual: Sequence[int]) -> float:
    """Fraction of predictions that match the ground truth."""
    if len(predicted) != len(actual):
        raise ClassifierError("prediction and truth lengths differ")
    if not predicted:
        raise ClassifierError("cannot compute accuracy of an empty set")
    correct = sum(1 for p, a in zip(predicted, actual) if p == a)
    return correct / len(predicted)


def precision_recall(
    predicted: Sequence[int], actual: Sequence[int], positive_label: int = 1
) -> tuple[float, float]:
    """Precision and recall for the positive (spam) class.

    Higher precision means fewer ham emails falsely flagged as spam; higher
    recall means fewer spam emails slipping through — the exact reading the
    paper gives under Fig. 9.
    """
    if len(predicted) != len(actual):
        raise ClassifierError("prediction and truth lengths differ")
    true_positive = sum(
        1 for p, a in zip(predicted, actual) if p == positive_label and a == positive_label
    )
    predicted_positive = sum(1 for p in predicted if p == positive_label)
    actual_positive = sum(1 for a in actual if a == positive_label)
    precision = true_positive / predicted_positive if predicted_positive else 1.0
    recall = true_positive / actual_positive if actual_positive else 1.0
    return precision, recall


def candidate_recall(candidate_lists: Sequence[Sequence[int]], actual: Sequence[int]) -> float:
    """Fraction of documents whose true category appears among the candidates.

    This is the quantity tabulated in Fig. 14: the public (client-side)
    classifier only has to put the true topic *somewhere* in its B'
    candidates for decomposed classification (§4.3) to preserve end-to-end
    accuracy.
    """
    if len(candidate_lists) != len(actual):
        raise ClassifierError("candidate list and truth lengths differ")
    if not actual:
        raise ClassifierError("cannot compute candidate recall of an empty set")
    hits = sum(1 for candidates, label in zip(candidate_lists, actual) if label in candidates)
    return hits / len(actual)
