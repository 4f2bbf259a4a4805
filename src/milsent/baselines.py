"""Comparison classifiers: polarity dictionaries and bag-of-words logistic
regression.

The dictionary route counts positive and negative term hits and answers
neutral on ties or when no listed word occurs; there is deliberately no
negation handling. The logistic-regression route works on raw term
frequencies (or any feature matrix, e.g. sentence embeddings) and is fitted
by plain gradient descent with L2 regularization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from milsent.corpus import NEGATIVE, POSITIVE
from milsent.mil import sigmoid

log = logging.getLogger(__name__)


class DictionaryError(Exception):
    """A polarity word list violates its contract."""


@dataclass(frozen=True)
class PolarityDictionary:
    name: str
    positive_terms: frozenset[str]
    negative_terms: frozenset[str]

    def __post_init__(self):
        overlap = self.positive_terms & self.negative_terms
        if overlap:
            raise DictionaryError(
                f"{self.name}: term(s) in both lists: {sorted(overlap)[:5]}"
            )


def _read_terms(path) -> frozenset[str]:
    with open(path, encoding="utf-8") as handle:
        return frozenset(
            line.strip().lower() for line in handle if line.strip()
        )


def load_dictionary(positive_path, negative_path, name: str = "custom") -> PolarityDictionary:
    """Load one lowercase term per line from the two word-list files."""
    return PolarityDictionary(
        name=name,
        positive_terms=_read_terms(positive_path),
        negative_terms=_read_terms(negative_path),
    )


def load_demo_dictionary() -> PolarityDictionary:
    """Small built-in finance lexicon for demonstrations and tests."""
    data = resources.files("milsent") / "data"
    with resources.as_file(data / "demo_positive.txt") as pos_path:
        with resources.as_file(data / "demo_negative.txt") as neg_path:
            return load_dictionary(pos_path, neg_path, name="demo")


def dictionary_classify(tokens: Sequence[str], dictionary: PolarityDictionary) -> int | None:
    """1 (positive), 0 (negative), or None (neutral: tie or no hits)."""
    pos = sum(1 for t in tokens if t in dictionary.positive_terms)
    neg = sum(1 for t in tokens if t in dictionary.negative_terms)
    if pos > neg:
        return POSITIVE
    if neg > pos:
        return NEGATIVE
    return None


@dataclass(frozen=True)
class BowModel:
    vocabulary_index: dict[str, int]
    weights: np.ndarray
    intercept: float
    l2_strength: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(self.vocabulary_index),):
            raise ValueError("weights length must equal vocabulary size")
        object.__setattr__(self, "weights", weights)


def build_vocabulary_index(token_lists: Sequence[Sequence[str]]) -> dict[str, int]:
    """Column index for every term, in first-seen order."""
    index: dict[str, int] = {}
    for tokens in token_lists:
        for token in tokens:
            if token not in index:
                index[token] = len(index)
    return index


def bow_featurize(tokens: Sequence[str], vocabulary_index: Mapping[str, int]) -> dict[int, int]:
    """Sparse term-frequency vector; out-of-vocabulary tokens are ignored."""
    counts: dict[int, int] = {}
    for token in tokens:
        col = vocabulary_index.get(token)
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
    return counts


def features_to_matrix(features: Sequence[Mapping[int, float]], n_columns: int) -> np.ndarray:
    matrix = np.zeros((len(features), n_columns))
    for row, counts in enumerate(features):
        for col, value in counts.items():
            matrix[row, col] = value
    return matrix


def fit_logistic_gd(
    X: np.ndarray,
    y: np.ndarray,
    l2_strength: float = 0.0,
    *,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    step: float | None = None,
) -> tuple[np.ndarray, float, int]:
    """Gradient descent on mean cross-entropy + (l2/2)||w||^2 (intercept free).

    The default step is 1/L for an upper bound L on the gradient Lipschitz
    constant, which makes every iteration decrease the loss. Stops when the
    gradient norm drops below tol or after max_iter iterations.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    # not np.unique: its first call in a process imports numpy.ma
    if not y.size or y.min() == y.max():
        raise ValueError("need at least one example of each class")
    n = len(y)
    if step is None:
        lipschitz = 0.25 * float(np.mean(np.sum(X * X, axis=1) + 1.0)) + l2_strength
        step = 1.0 / max(lipschitz, 1e-12)
    w = np.zeros(X.shape[1])
    b = 0.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p = sigmoid(X @ w + b)
        residual = p - y
        gw = X.T @ residual / n + l2_strength * w
        gb = float(np.mean(residual))
        if np.sqrt(float(np.dot(gw, gw)) + gb * gb) < tol:
            break
        w = w - step * gw
        b = b - step * gb
    return w, b, iterations


def train_bow_logreg(
    features: Sequence[Mapping[int, float]],
    labels: Sequence[int],
    vocabulary_index: Mapping[str, int],
    l2_strength: float = 1e-3,
) -> BowModel:
    """L2-regularized logistic regression on sparse count features.

    Weights initialize at zero, so the fit is deterministic.
    """
    X = features_to_matrix(features, len(vocabulary_index))
    y = np.asarray(labels, dtype=float)
    w, b, iterations = fit_logistic_gd(X, y, l2_strength)
    log.debug("bow logreg converged in %d iterations", iterations)
    return BowModel(
        vocabulary_index=dict(vocabulary_index),
        weights=w,
        intercept=b,
        l2_strength=l2_strength,
    )


def bow_predict(model: BowModel, tokens: Sequence[str]) -> tuple[int, float]:
    """(label, score); the same >= 0.5 threshold as the MIL classifier."""
    z = model.intercept
    for col, count in bow_featurize(tokens, model.vocabulary_index).items():
        z += model.weights[col] * count
    score = float(sigmoid(z))
    return (POSITIVE if score >= 0.5 else NEGATIVE), score
