"""Comparison classifiers: polarity dictionaries and bag-of-words logistic
regression.

The dictionary route counts positive and negative term hits and answers
neutral on ties or when no listed word occurs; there is deliberately no
negation handling. The logistic-regression route works on raw term
frequencies (or any sparse real features) with L2 regularization, and is
fitted to convergence by truncated Newton: conjugate-gradient steps on
Hessian-vector products over the nonzero counts, with a backtracking line
search.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from typing import Mapping, Sequence

from milsent._lazy import lazy_import
from milsent.corpus import DataError, NEGATIVE, POSITIVE, utf8_lines

np = lazy_import("numpy")
mil = lazy_import("milsent.mil")

log = logging.getLogger(__name__)


class DictionaryError(DataError):
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
            line.strip().lower()
            for line in utf8_lines(handle, path, DictionaryError) if line.strip()
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


class _Logistic:
    """Mean cross-entropy plus (l2/2)||w||^2 over an n x V feature matrix
    held as (row, column, value) triplets, at parameters x = (w, b); the
    intercept b is not penalized. Products with the matrix and with its
    transpose are `np.bincount` sums over the triplets, so no n x V array
    is ever built."""

    def __init__(self, features: Sequence[Mapping[int, float]], y, n_columns: int, l2: float):
        nnz = sum(map(len, features))
        self.rows = np.repeat(np.arange(len(features)), [len(f) for f in features])
        self.cols = np.fromiter(chain.from_iterable(features), dtype=np.intp, count=nnz)
        self.values = np.fromiter(chain.from_iterable(f.values() for f in features),
                                  dtype=float, count=nnz)
        if nnz and not 0 <= self.cols.min() <= self.cols.max() < n_columns:
            raise ValueError(f"feature columns must lie in [0, {n_columns})")
        self.y, self.n_columns, self.l2 = y, n_columns, l2
        self.curvature = None

    def _times(self, x):
        """X w + b."""
        return np.bincount(self.rows, weights=self.values * x[self.cols],
                           minlength=len(self.y)) + x[-1]

    def _transpose_times(self, r, x):
        """(X^T r + l2 w, sum(r))."""
        grad_w = np.bincount(self.cols, weights=self.values * r[self.rows],
                             minlength=self.n_columns)
        return np.append(grad_w + self.l2 * x[:-1], r.sum())

    def value(self, x) -> float:
        z = self._times(x)
        w = x[:-1]
        return float(np.mean(np.logaddexp(0.0, z) - self.y * z)) + 0.5 * self.l2 * float(w @ w)

    def gradient(self, x):
        """The gradient at x. Also sets the curvature that `hessian_times`
        uses to the curvature at x."""
        p = mil.sigmoid(self._times(x))
        n = len(self.y)
        self.curvature = p * (1.0 - p) / n
        return self._transpose_times((p - self.y) / n, x)

    def hessian_times(self, v):
        """The Hessian at the last gradient's x, times v."""
        return self._transpose_times(self.curvature * self._times(v), v)


def _conjugate_gradient(hessian_times, g, tolerance: float):
    """d with ||H d + g|| <= tolerance, by conjugate gradients from d = 0,
    for a positive definite H given only through `hessian_times`."""
    d = np.zeros_like(g)
    r = -g
    p = r.copy()
    rr = float(r @ r)
    for _ in range(len(g)):
        if math.sqrt(rr) <= tolerance:
            break
        hp = hessian_times(p)
        alpha = rr / float(p @ hp)
        d += alpha * p
        r -= alpha * hp
        rr, rr_before = float(r @ r), rr
        p = r + (rr / rr_before) * p
    return d


TOL = 1e-6  # the fit stops once the gradient norm is below this
MAX_NEWTON_STEPS = 100
ARMIJO = 1e-4  # share of the first-order decrease a step must achieve
MAX_HALVINGS = 30


def _newton_iterates(objective: _Logistic):
    """Each iterate x = (w, b), from zero, with its gradient g: truncated
    Newton with a backtracking line search (Lin, Weng & Keerthi, JMLR 2008,
    globalized by line search as Nocedal & Wright, Algorithm 7.1). A step
    solves H d = -g by conjugate gradients to a residual of
    min(0.5, sqrt(||g||)) ||g||, then moves by the longest 2^-k d that
    decreases the objective by ARMIJO times the first-order prediction."""
    x = np.zeros(objective.n_columns + 1)
    value = objective.value(x)
    while True:
        g = objective.gradient(x)
        yield x, g
        norm = math.sqrt(float(g @ g))
        d = _conjugate_gradient(objective.hessian_times, g, min(0.5, math.sqrt(norm)) * norm)
        slope = float(g @ d)
        step = 1.0
        for _ in range(MAX_HALVINGS):
            trial = x + step * d
            trial_value = objective.value(trial)
            if trial_value <= value + ARMIJO * step * slope:
                break
            step /= 2
        else:
            raise mil.TrainingError(
                f"bag-of-words fit: no decrease along the Newton direction at gradient "
                f"norm {norm:.3g}"
            )
        x, value = trial, trial_value


def train_bow_logreg(
    features: Sequence[Mapping[int, float]],
    labels: Sequence[int],
    vocabulary_index: Mapping[str, int],
    l2_strength: float = 1e-3,
) -> BowModel:
    """L2-regularized logistic regression on sparse count features: the
    minimizer of mean cross-entropy + (l2/2)||w||^2 (intercept free), fitted
    by truncated Newton from zero until the gradient norm is below `TOL`.

    Deterministic. l2_strength must be > 0: separable data has no minimizer
    without it. Not converging within `MAX_NEWTON_STEPS` Newton steps is a
    `TrainingError`.
    """
    if not 0 < l2_strength < math.inf:
        raise ValueError(f"l2_strength must be finite and > 0, got {l2_strength}")
    y = np.asarray(labels, dtype=float)
    if len(y) != len(features):
        raise ValueError(f"{len(features)} feature rows but {len(y)} labels")
    # not np.unique: its first call in a process imports numpy.ma
    if not y.size or y.min() == y.max():
        raise ValueError("need at least one example of each class")
    objective = _Logistic(features, y, len(vocabulary_index), l2_strength)
    for iterations, (x, g) in enumerate(_newton_iterates(objective)):
        norm = math.sqrt(float(g @ g))
        if norm < TOL:
            break
        if iterations == MAX_NEWTON_STEPS:
            raise mil.TrainingError(
                f"bag-of-words fit did not converge in {MAX_NEWTON_STEPS} Newton steps: "
                f"gradient norm {norm:.3g} >= {TOL:g}"
            )
    log.debug("bow logreg converged in %d iterations", iterations)
    return BowModel(
        vocabulary_index=dict(vocabulary_index),
        weights=x[:-1],
        intercept=float(x[-1]),
    )


def bow_predict(model: BowModel, tokens: Sequence[str]) -> tuple[int, float]:
    """(label, score); the same >= 0.5 threshold as the MIL classifier, and
    the same two-branch sigmoid as `mil.sigmoid`, in Python floats: one
    sentence is too small for numpy."""
    z = model.intercept
    for col, count in bow_featurize(tokens, model.vocabulary_index).items():
        z += model.weights.item(col) * count
    if z >= 0:
        score = 1.0 / (1.0 + math.exp(-z))
    else:
        ez = math.exp(z)
        score = ez / (1.0 + ez)
    return (POSITIVE if score >= 0.5 else NEGATIVE), score
