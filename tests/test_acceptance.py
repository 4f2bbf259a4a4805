"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured quantity. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import os
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from milsent.baselines import (
    bow_featurize,
    bow_predict,
    build_vocabulary_index,
    dictionary_classify,
    load_demo_dictionary,
    train_bow_logreg,
)
from milsent.cli import main
from milsent.corpus import load_corpus
from milsent.embed import embed_matrix, load_embeddings
from milsent.eventstudy import (
    EventLabelConfig,
    MarketModel,
    PriceSeries,
    abnormal_return,
    fit_market_model,
    label_documents,
    simple_returns,
)
from milsent.evaluate import score_predictions, temporal_split
from milsent.mil import (
    MilDataset,
    MilModel,
    TrainConfig,
    generate_synthetic,
    gradient,
    loss,
    sentence_labels,
    sentence_scores,
    to_mil_dataset,
    train,
)
from conftest import dataset_of, label_and_score, make_doc, vote_of
from reference import (
    central_difference_gradient,
    naive_document_vote,
    naive_mil_loss,
    relative_gradient_error,
    scalar_sigmoid,
)


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def random_small_batch(rng):
    groups = tuple(
        (rng.standard_normal((int(rng.integers(1, 6)), 8)), int(rng.integers(0, 2)))
        for _ in range(int(rng.integers(1, 11)))
    )
    return dataset_of(groups)


def test_criterion_01_loss_oracle_equivalence():
    rng = np.random.default_rng(101)
    config = TrainConfig()
    started = time.monotonic()
    worst = 0.0
    for _ in range(100):
        batch = random_small_batch(rng)
        theta = rng.standard_normal(9)
        model = MilModel(theta=theta, dim=8, config=config)
        lam = float(rng.choice([0.0, 1.0, 10.0]))
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        fast = loss(model, batch, lam, gamma)
        slow = naive_mil_loss(theta, batch.groups, lam, gamma)
        worst = max(worst, abs(fast - slow))
    elapsed = time.monotonic() - started
    report(
        1,
        "loss equals the naive double-loop oracle within 1e-12 on 100 batches",
        worst < 1e-12 and elapsed < 10.0,
        f"max abs diff {worst:.3g}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    config = TrainConfig()
    started = time.monotonic()
    worst = 0.0
    draws = 0
    for lam in (0.0, 1.0, 10.0):
        for _ in range(7):
            batch = random_small_batch(rng)
            theta = rng.standard_normal(9) * 0.8
            model = MilModel(theta=theta, dim=8, config=config)
            analytic = gradient(model, batch, lam, 1.0)

            def loss_at(t, batch=batch, lam=lam):
                return loss(MilModel(theta=t, dim=8, config=config), batch, lam, 1.0)

            numeric = central_difference_gradient(loss_at, theta, h=1e-5)
            worst = max(worst, relative_gradient_error(analytic, numeric))
            draws += 1
    elapsed = time.monotonic() - started
    report(
        2,
        "analytic gradient matches central differences (rel err < 1e-5, 21 draws)",
        worst < 1e-5 and draws >= 20 and elapsed < 30.0,
        f"max rel err {worst:.3g}, {elapsed:.1f}s",
    )


def test_criterion_03_mil_label_recovery():
    started = time.monotonic()
    dataset, truth = generate_synthetic(200, 5, 16, 3.0, 0.1, seed=42)
    config = TrainConfig(lam=10.0, learning_rate=0.05, momentum=0.8, seed=7)
    result = train(dataset, config)
    predictions = sentence_labels(sentence_scores(result.model, dataset.X))
    accuracy = float(np.mean(predictions == truth))
    elapsed = time.monotonic() - started
    report(
        3,
        "synthetic sentence recovery >= 0.95 from group labels alone",
        accuracy >= 0.95 and elapsed < 120.0,
        f"accuracy {accuracy:.4f}, {elapsed:.1f}s",
    )


def test_criterion_04_degenerate_lambda_checks():
    config = TrainConfig()
    rng = np.random.default_rng(4)
    batch = random_small_batch(rng)
    zero_model = MilModel(theta=np.zeros(9), dim=8, config=config)
    loss_zero = loss(zero_model, batch, 0.0, 1.0)
    grad_zero = gradient(zero_model, batch, 0.0, 1.0)
    one_group = MilDataset(np.array([[1.0, -2.0], [0.5, 3.0]]), [2], [1])
    single = MilModel(theta=np.zeros(3), dim=2, config=config)
    loss_single = loss(single, one_group, 10.0, 1.0)
    report(
        4,
        "loss/gradient exactly 0 at theta=0, lambda=0; single positive group gives 2.5",
        loss_zero == 0.0
        and bool(np.all(grad_zero == 0.0))
        and abs(loss_single - 2.5) < 1e-12,
        f"loss {float(loss_zero)!r}, |grad| {float(np.max(np.abs(grad_zero)))!r}, "
        f"group loss {float(loss_single)!r}",
    )


def test_criterion_05_threshold_and_aggregation_contracts():
    config = TrainConfig()
    model = MilModel(theta=np.array([1.0, 0.0]), dim=1, config=config)

    def logit(p):
        return math.log(p / (1.0 - p))

    half_label, half_score = label_and_score(
        MilModel(theta=np.zeros(2), dim=1, config=config), np.array([3.0])
    )
    threshold_ok = half_score == 0.5 and half_label == 1

    majority = vote_of(
        model, np.array([[logit(p)] for p in (0.9, 0.8, 0.7, 0.2, 0.1)])
    )
    majority_ok = majority == (1, 3, 2)

    tie_high = vote_of(model, np.array([[logit(p)] for p in (0.9, 0.9, 0.4, 0.4)]))
    tie_low = vote_of(model, np.array([[logit(p)] for p in (0.6, 0.6, 0.1, 0.1)]))
    tie_ok = tie_high[0] == 1 and tie_low[0] == 0

    realizations = {1: (0.9, 0.6), 0: (0.4, 0.1)}
    exhaustive_ok = True
    checked = 0
    for size in range(1, 7):
        for pattern in itertools.product((0, 1), repeat=size):
            for variant in (0, 1):
                probs = [realizations[lab][variant] for lab in pattern]
                group = np.array([[logit(p)] for p in probs])
                scores = [scalar_sigmoid(row[0]) for row in group]
                if vote_of(model, group) != naive_document_vote(scores):
                    exhaustive_ok = False
                checked += 1
    report(
        5,
        "0.5 threshold, majority rule, mean-score tie-break, exhaustive recount",
        threshold_ok and majority_ok and tie_ok and exhaustive_ok,
        f"{checked} label patterns checked",
    )


def test_criterion_06_event_study_recovery():
    rng = np.random.default_rng(606)
    start = date(2005, 1, 3)
    days = [start + timedelta(days=i) for i in range(45)]
    market_prices = [100.0]
    stock_prices = [50.0]
    for r in rng.uniform(-0.02, 0.02, size=len(days) - 1):
        market_prices.append(market_prices[-1] * (1.0 + r))
        stock_prices.append(stock_prices[-1] * (1.0 + 0.001 + 1.5 * r))
    stock_returns = simple_returns(PriceSeries("S", tuple(zip(days, stock_prices))))
    market_returns = simple_returns(PriceSeries("M", tuple(zip(days, market_prices))))
    model = fit_market_model(stock_returns, market_returns, days[-1], window=30)
    fit_ok = abs(model.alpha - 0.001) < 1e-9 and abs(model.beta - 1.5) < 1e-9

    # ten events with known jumps: the labeled sign must match the jump sign
    jumps = [0.05, -0.03, 0.01, -0.07, 0.02, -0.02, 0.04, -0.01, 0.06, -0.05]
    sign_ok = True
    index = PriceSeries("IDX", tuple(zip(days, market_prices)))
    for k, jump in enumerate(jumps):
        prices = [10.0]
        for i in range(1, len(days)):
            r = market_prices[i] / market_prices[i - 1] - 1.0
            if i == 40:
                r += jump
            prices.append(prices[-1] * (1 + r))
        doc = make_doc(f"e{k}", "TTT", days[40])
        result = label_documents(
            [doc], {"TTT": PriceSeries("TTT", tuple(zip(days, prices)))}, index,
            EventLabelConfig(outlier_level=0.0),
        )
        if len(result.documents) != 1:
            sign_ok = False
            continue
        labeled = result.documents[0]
        expected_label = 1 if jump > 0 else 0
        if labeled.label != expected_label:
            sign_ok = False
        if abs(labeled.abnormal_return - jump) > 1e-6:
            sign_ok = False
    ar_identity = abnormal_return(MarketModel(0.001, 1.5), 0.05, 0.02)
    report(
        6,
        "noise-free OLS recovery within 1e-9 and AR sign labeling on 10 events",
        fit_ok and sign_ok and abs(ar_identity - 0.019) < 1e-12,
        f"alpha err {abs(model.alpha - 0.001):.2g}, beta err {abs(model.beta - 1.5):.2g}",
    )


def test_criterion_07_dictionary_semantics():
    lexicon = load_demo_dictionary()
    tie = dictionary_classify(["profit", "loss"], lexicon)
    no_hit = dictionary_classify(["the", "report", "was", "published"], lexicon)

    rng = np.random.default_rng(707)
    vocabulary = sorted(lexicon.positive_terms)[:10] + sorted(lexicon.negative_terms)[:10] + [
        "the", "a", "market", "q1",
    ]
    order = {1: 2, None: 1, 0: 0}
    monotone = True
    for _ in range(300):
        tokens = list(rng.choice(vocabulary, size=rng.integers(0, 15)))
        before = dictionary_classify(tokens, lexicon)
        extra = str(rng.choice(sorted(lexicon.positive_terms)))
        after = dictionary_classify(tokens + [extra], lexicon)
        if order[after] < order[before]:
            monotone = False
    report(
        7,
        "dictionary: tie and no-hit are neutral; adding positive words is monotone",
        tie is None and no_hit is None and monotone,
        "300 random token sequences",
    )


def test_criterion_08_metric_arithmetic():
    predicted = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    gold = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
    rep = score_predictions(predicted, gold)
    exact_ok = (
        rep.tp == 3 and rep.fp == 1 and rep.fn == 2 and rep.tn == 4
        and rep.precision == 0.75
        and rep.recall == 0.6
        and abs(rep.f1 - 2 * 0.75 * 0.6 / 1.35) < 1e-15
        and rep.accuracy == 0.7
    )
    with_neutral = score_predictions([1, None, 0, None], [1, 0, 0, 1])
    partition_ok = (
        with_neutral.neutral_rate
        + (with_neutral.tp + with_neutral.fp + with_neutral.tn + with_neutral.fn)
        / 4
        == 1.0
    )
    report(
        8,
        "hand-computed confusion reproduced exactly; neutral + classified = 1",
        exact_ok and partition_ok,
        f"precision {rep.precision}, recall {rep.recall}, f1 {rep.f1:.6f}",
    )


def test_criterion_09_training_determinism(tmp_path):
    from test_cli import synthetic_corpus_files

    corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=30, instances=4, dim=8)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    argv = ["--embedding-format", "sentence", "--epochs", "5", "--seed", "11"]
    rc1 = main(["train", str(corpus), str(vectors), str(m1)] + argv)
    rc2 = main(["train", str(corpus), str(vectors), str(m2)] + argv)
    identical = m1.read_bytes() == m2.read_bytes()
    report(
        9,
        "repeated cmd_train with one manifest yields byte-identical model files",
        rc1 == 0 and rc2 == 0 and identical,
        f"{m1.stat().st_size} bytes each",
    )


def test_criterion_10_directional_comparison_on_external_corpus():
    data_dir = os.environ.get("MILSENT_EVAL_DATA")
    if not data_dir:
        print("SKIP criterion 10: MILSENT_EVAL_DATA not set (optional, data-dependent)")
        pytest.skip("optional criterion: set MILSENT_EVAL_DATA to a directory with "
                    "corpus.jsonl and embeddings.txt")
    corpus_path = Path(data_dir) / "corpus.jsonl"
    embeddings_path = Path(data_dir) / "embeddings.txt"
    docs = load_corpus(corpus_path)
    store = load_embeddings(embeddings_path)

    train_docs, test_docs = temporal_split(docs, ratio=0.8)
    train_docs = [d for d in train_docs if d.label is not None and d.sentences]
    evaluation = [
        d for d in test_docs
        if any(s.predicted_label is not None for s in d.sentences)
    ] or [
        d for d in train_docs
        if any(s.predicted_label is not None for s in d.sentences)
    ]

    dataset = to_mil_dataset(train_docs, embed_matrix(train_docs, store))
    mil_model = train(dataset, TrainConfig(seed=0)).model

    from milsent.preprocess import tokenize

    token_lists = [tokenize(s.text) for d in train_docs for s in d.sentences]
    doc_tokens = [[t for s in d.sentences for t in tokenize(s.text)] for d in train_docs]
    index = build_vocabulary_index(token_lists)
    bow_model = train_bow_logreg(
        [bow_featurize(tokens, index) for tokens in doc_tokens],
        [d.label for d in train_docs],
        index,
    )

    X_eval = embed_matrix(evaluation, store)
    sentences = [sentence for doc in evaluation for sentence in doc.sentences]
    gold, mil_pred, bow_pred = [], [], []
    for sentence, x in zip(sentences, X_eval):
        if sentence.predicted_label is None:
            continue
        gold.append(sentence.predicted_label)
        mil_pred.append(label_and_score(mil_model, x)[0])
        bow_pred.append(bow_predict(bow_model, tokenize(sentence.text))[0])
    mil_accuracy = score_predictions(mil_pred, gold).accuracy
    bow_accuracy = score_predictions(bow_pred, gold).accuracy
    report(
        10,
        "MIL sentence accuracy >= bag-of-words logistic regression (external data)",
        mil_accuracy >= bow_accuracy,
        f"MIL {mil_accuracy:.4f} vs BoW {bow_accuracy:.4f} on {len(gold)} sentences",
    )
