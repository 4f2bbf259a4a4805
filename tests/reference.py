"""Independent reference implementations used as oracles.

Everything here is written as plainly as possible (scalar loops, stdlib
math) and must stay independent of the vectorized code paths it checks.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from milsent.corpus import CorpusError, LABEL_TO_TEXT, NEGATIVE, POSITIVE
from milsent.embed import HASH_FALLBACK, PRECOMPUTED_SENTENCE, _hash_vector, sentence_key
from milsent.eventstudy import EventStudyError
from milsent.mil import document_vote, sentence_labels, sentence_scores
from milsent.preprocess import tokenize


def scalar_sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def naive_instance_score(theta, x, use_bias: bool = True) -> float:
    z = 0.0
    for t, v in zip(theta, x):
        z += t * v
    if use_bias:
        z += theta[-1]
    return scalar_sigmoid(z)


def naive_mil_loss(theta, groups, lam: float, gamma: float, use_bias: bool = True) -> float:
    """Double-loop evaluation of the training objective over a batch."""
    instances = []
    for matrix, _ in groups:
        for row in matrix:
            instances.append(list(row))
    n = len(instances)
    scores = [naive_instance_score(theta, x, use_bias) for x in instances]

    pair = 0.0
    for i in range(n):
        for j in range(n):
            sq = 0.0
            for a, b in zip(instances[i], instances[j]):
                sq += (a - b) ** 2
            pair += math.exp(-gamma * sq) * (scores[i] - scores[j]) ** 2
    pair /= n * n

    group = 0.0
    for matrix, label in groups:
        acc = 0.0
        for row in matrix:
            acc += naive_instance_score(theta, row, use_bias)
        group += (acc / len(matrix) - label) ** 2
    return pair + lam * group / len(groups)


def naive_mil_gradient(theta, groups, lam: float, gamma: float,
                       use_bias: bool = True) -> list[float]:
    """Double-loop derivative of `naive_mil_loss` with respect to theta."""
    instances = []
    for matrix, _ in groups:
        for row in matrix:
            instances.append(list(row))
    n = len(instances)
    scores = [naive_instance_score(theta, x, use_bias) for x in instances]
    # d s_i / d theta = s_i (1 - s_i) x_i, with a trailing 1 for the bias
    dscores = []
    for s, x in zip(scores, instances):
        features = x + [1.0] if use_bias else x
        dscores.append([s * (1.0 - s) * v for v in features])

    grad = [0.0] * len(theta)
    for i in range(n):
        for j in range(n):
            sq = 0.0
            for a, b in zip(instances[i], instances[j]):
                sq += (a - b) ** 2
            weight = 2.0 * math.exp(-gamma * sq) * (scores[i] - scores[j]) / (n * n)
            for k in range(len(theta)):
                grad[k] += weight * (dscores[i][k] - dscores[j][k])

    first = 0
    for matrix, label in groups:
        members = range(first, first + len(matrix))
        first += len(matrix)
        mean = sum(scores[i] for i in members) / len(matrix)
        weight = 2.0 * lam * (mean - label) / (len(groups) * len(matrix))
        for i in members:
            for k in range(len(theta)):
                grad[k] += weight * dscores[i][k]
    return grad


def central_difference_gradient(loss_fn, theta, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss in each coordinate."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for k in range(len(theta)):
        plus, minus = theta.copy(), theta.copy()
        plus[k] += h
        minus[k] -= h
        grad[k] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
    return grad


def relative_gradient_error(analytic, numeric) -> float:
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)))
    if scale == 0.0:
        return float(np.linalg.norm(analytic - numeric))
    return float(np.linalg.norm(analytic - numeric)) / scale


def logistic_loss(X, y, w, b, l2_strength: float = 0.0) -> float:
    """Mean cross-entropy plus the L2 penalty; the quantity
    `baselines.train_bow_logreg` minimizes."""
    z = np.asarray(X, dtype=float) @ w + b
    y = np.asarray(y, dtype=float)
    # log(1 + exp(-|z|)) variant avoids overflow on both branches.
    ce = np.mean(np.logaddexp(0.0, z) - y * z)
    return float(ce) + 0.5 * l2_strength * float(np.dot(w, w))


def logistic_gradient(X, y, w, b, l2_strength: float = 0.0) -> np.ndarray:
    """Gradient of `logistic_loss` in (w, b), from a dense matrix."""
    X = np.asarray(X, dtype=float)
    residual = 1.0 / (1.0 + np.exp(-(X @ w + b))) - np.asarray(y, dtype=float)
    return np.append(X.T @ residual / len(residual) + l2_strength * w, np.mean(residual))


def gradient_descent_logistic(X, y, l2_strength: float, steps: int = 10_000):
    """(w, b) after `steps` gradient steps of size 1/L on `logistic_loss`
    from zero, L an upper bound on the gradient's Lipschitz constant."""
    X = np.asarray(X, dtype=float)
    step = 1.0 / (0.25 * float(np.mean(np.sum(X * X, axis=1) + 1.0)) + l2_strength)
    w, b = np.zeros(X.shape[1]), 0.0
    for _ in range(steps):
        g = logistic_gradient(X, y, w, b, l2_strength)
        w, b = w - step * g[:-1], b - step * g[-1]
    return w, b


def dense_features(features, n_columns: int) -> np.ndarray:
    """The n x n_columns matrix of sparse {column: value} feature rows."""
    matrix = np.zeros((len(features), n_columns))
    for row, counts in enumerate(features):
        for col, value in counts.items():
            matrix[row, col] = value
    return matrix


def sparse_features(X) -> list[dict[int, float]]:
    """The nonzero entries of each row of a dense matrix."""
    return [{col: float(value) for col, value in enumerate(row) if value != 0}
            for row in np.asarray(X, dtype=float)]


def naive_document_vote(scores) -> tuple[int, int, int]:
    """Recount of the document rule: majority label, mean score on ties."""
    labels = [1 if s >= 0.5 else 0 for s in scores]
    pos = sum(labels)
    neg = len(labels) - pos
    if pos > neg:
        label = 1
    elif neg > pos:
        label = 0
    else:
        label = 1 if sum(scores) / len(scores) >= 0.5 else 0
    return label, pos, neg


def ols_line(xs, ys) -> tuple[float, float]:
    """Textbook (intercept, slope) via the normal-equation formulas."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return my - slope * mx, slope


def confusion_metrics(tp: int, fp: int, tn: int, fn: int, neutral: int = 0) -> dict:
    total = tp + fp + tn + fn + neutral
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "accuracy": (tp + tn) / total,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "neutral_rate": neutral / total,
    }


def interpolated_quantile(values, q: float) -> float:
    """Linear-interpolation quantile, written out longhand."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return float(ordered[lo] * (1 - frac) + ordered[hi] * frac)


def _naive_simple_returns(series):
    if len(series.observations) < 2:
        raise EventStudyError(f"{series.ticker}: need >= 2 observations for returns")
    out = []
    for (_, prev), (day, price) in zip(series.observations, series.observations[1:]):
        out.append((day, price / prev - 1.0))
    return out


def _naive_market_model(stock_returns, market_returns, event_date, window):
    market = dict(market_returns)
    paired = [
        (d, r, market[d]) for d, r in stock_returns if d in market and d < event_date
    ]
    if len(paired) < window:
        raise EventStudyError(
            f"insufficient history before {event_date}: "
            f"{len(paired)} paired returns < window {window}"
        )
    paired = paired[-window:]
    s = np.array([r for _, r, _ in paired])
    m = np.array([r for _, _, r in paired])
    var = float(np.var(m))
    if var == 0.0 or np.ptp(m) == 0.0:
        raise EventStudyError("zero-variance market returns: singular fit")
    beta = float(np.cov(m, s, bias=True)[0, 1]) / var
    alpha = float(np.mean(s)) - beta * float(np.mean(m))
    return alpha, beta


def naive_event_ar(doc, series, index_returns, config) -> float:
    """One document's event-day abnormal return, every list rebuilt per call:
    the market model fitted by OLS over the `window` paired returns before
    the first paired trading day on or after publication."""
    stock_returns = _naive_simple_returns(series)
    market = dict(index_returns)
    paired_days = [d for d, _ in stock_returns if d in market]
    event_day = next((d for d in paired_days if d >= doc.published_at), None)
    if event_day is None:
        raise EventStudyError(f"no trading day on or after {doc.published_at}")
    prices = dict(series.observations)
    price_days = [d for d, _ in series.observations]
    prior_days = [d for d in price_days if d < event_day]
    if not prior_days:
        raise EventStudyError("no price before event day")
    if prices[prior_days[-1]] < config.penny_threshold:
        raise EventStudyError("penny stock")
    stock = dict(stock_returns)
    alpha, beta = _naive_market_model(stock_returns, index_returns, event_day, config.window)
    return stock[event_day] - (alpha + beta * market[event_day])


def naive_label_documents(corpus, stock_prices, index_prices, config):
    """(labeled documents, dropped) of `label_documents`, one document at a
    time through `naive_event_ar`."""
    index_returns = _naive_simple_returns(index_prices)
    scored, dropped = [], []
    for doc in corpus:
        series = stock_prices.get(doc.ticker)
        if series is None:
            dropped.append((doc.id, "no price series"))
            continue
        try:
            ar = naive_event_ar(doc, series, index_returns, config)
        except EventStudyError as exc:
            dropped.append((doc.id, str(exc)))
            continue
        scored.append((doc, ar))
    k = math.ceil(config.outlier_level * len(scored))
    if k > 0 and scored:
        order = sorted(range(len(scored)), key=lambda i: (scored[i][1], i))
        cut = set(order[:k]) | set(order[len(scored) - k :])
        for i in sorted(cut):
            dropped.append((scored[i][0].id, "return outlier"))
        scored = [pair for i, pair in enumerate(scored) if i not in cut]
    labeled = []
    for doc, ar in scored:
        if ar == 0.0:
            dropped.append((doc.id, "zero abnormal return"))
            continue
        label = POSITIVE if ar > 0 else NEGATIVE
        labeled.append(replace(doc, abnormal_return=ar, label=label))
    return labeled, dropped


def _naive_average(tokens, vectors, dim):
    # tokens are summed in sorted order so the mean is permutation-invariant
    # bit for bit, not just up to rounding
    known = [vectors[t] for t in sorted(tokens) if t in vectors]
    if not known:
        return np.zeros(dim)
    return np.mean(known, axis=0)


def naive_embed_matrix(docs, store):
    """`embed_matrix` one sentence at a time: each sentence's known token
    vectors stacked and averaged on their own, in sorted token order; the
    rows one per sentence, in corpus order."""
    if store.provider == PRECOMPUTED_SENTENCE:
        rows = [store.vectors[sentence_key(doc.id, idx)]
                for doc in docs for idx in range(len(doc.sentences))]
        return np.array(rows).reshape(len(rows), store.dim)
    tokens = [s.tokens or tuple(tokenize(s.text)) for doc in docs for s in doc.sentences]
    vectors = store.vectors
    if store.provider == HASH_FALLBACK:
        vectors = {t: _hash_vector(t, store.dim, store.seed) for toks in tokens for t in toks}
    out = np.zeros((len(tokens), store.dim))
    for row, toks in enumerate(tokens):
        if toks:
            out[row] = _naive_average(toks, vectors, store.dim)
    return out


def one_shot_median_gamma(X, max_pairs: int, seed: int) -> float:
    """`median_heuristic_gamma` with the differences of all sampled pairs
    taken at once."""
    rng = np.random.default_rng(seed)
    i = rng.integers(0, len(X), size=max_pairs)
    j = rng.integers(0, len(X), size=max_pairs)
    keep = i != j
    d2 = np.sum((X[i[keep]] - X[j[keep]]) ** 2, axis=1)
    med = float(np.median(d2))
    return 1.0 / med if med > 0 else 1.0


def naive_predict(model, docs, store):
    """(predicted documents, document summaries) of `milsent predict`: every
    document's sentence vectors stacked into their own matrix and scored."""
    summaries, out = {}, []
    X, hi = naive_embed_matrix(docs, store), 0
    for doc in docs:
        lo, hi = hi, hi + len(doc.sentences)
        if not doc.sentences:
            out.append(doc)
            continue
        scores = sentence_scores(model, X[lo:hi].copy())
        labels = sentence_labels(scores)
        label, n_pos, n_neg = document_vote(labels, scores)
        summaries[doc.id] = {"label": LABEL_TO_TEXT[label], "positive_sentences": n_pos,
                             "negative_sentences": n_neg}
        out.append(replace(doc, sentences=tuple(
            replace(s, predicted_label=int(lab), score=float(score))
            for s, lab, score in zip(doc.sentences, labels, scores)
        )))
    return out, summaries


def naive_sentence_pairs(gold_docs, pred_docs, pred_name: str):
    """`milsent evaluate --mode sentence` pairing, one sentence object at a
    time: (predicted labels, gold labels) of every gold-labelled sentence."""
    pred_by_id = {d.id: d for d in pred_docs}
    predicted, gold = [], []
    for doc in gold_docs:
        gold_labels = [s.predicted_label for s in doc.sentences]
        if not any(label is not None for label in gold_labels):
            continue
        pred_doc = pred_by_id.get(doc.id)
        if pred_doc is None:
            raise CorpusError(f"label-file mismatch: document {doc.id} missing from {pred_name}")
        if len(pred_doc.sentences) != len(doc.sentences):
            raise CorpusError(
                f"label-file mismatch: document {doc.id} has {len(doc.sentences)} gold "
                f"sentences but {len(pred_doc.sentences)} predicted"
            )
        for gold_label, pred_sentence in zip(gold_labels, pred_doc.sentences):
            if gold_label is None:
                continue
            gold.append(gold_label)
            predicted.append(pred_sentence.predicted_label)
    if not gold:
        raise CorpusError("no gold sentence labels found in the gold corpus")
    return predicted, gold


def naive_document_pairs(gold_docs, pred_docs, pred_name: str):
    """`milsent evaluate --mode document` pairing, one sentence object at a
    time: (predicted votes, gold labels) of every labelled gold document."""
    pred_by_id = {d.id: d for d in pred_docs}
    predicted, gold = [], []
    for doc in gold_docs:
        if doc.label is None:
            continue
        pred_doc = pred_by_id.get(doc.id)
        if pred_doc is None:
            raise CorpusError(f"label-file mismatch: document {doc.id} missing from {pred_name}")
        gold.append(doc.label)
        predicted.append(naive_majority_label(pred_doc))
    if not gold:
        raise CorpusError("no document labels found in the gold corpus")
    return predicted, gold


def naive_majority_label(doc):
    """Vote of the labelled sentences; ties consult scores only if all have one."""
    labels = [s.predicted_label for s in doc.sentences if s.predicted_label is not None]
    scores = [s.score for s in doc.sentences]
    return document_vote(labels, None if None in scores else scores)[0]
