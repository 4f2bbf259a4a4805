import csv
import json
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from milsent.corpus import Document, SentenceInstance
from milsent.mil import MilDataset, document_vote, sentence_labels, sentence_scores


def make_doc(doc_id="d1", ticker="AAA", when=date(2005, 5, 12), text="some text",
             sentences=(), label=None, abnormal_return=None):
    return Document(
        id=doc_id,
        ticker=ticker,
        published_at=when,
        raw_text=text,
        sentences=tuple(sentences),
        label=label,
        abnormal_return=abnormal_return,
    )


def make_sentence(text="a sentence", tokens=(), label=None, score=None):
    return SentenceInstance(
        text=text,
        tokens=tuple(tokens),
        predicted_label=label,
        score=score,
    )


def dataset_of(groups):
    """The `MilDataset` of (instance matrix, label) pairs, stacked in order."""
    matrices, labels = zip(*groups)
    return MilDataset(np.concatenate(matrices), [len(m) for m in matrices], labels)


def label_and_score(model, x):
    """(label, score) of one sentence vector x, scored as a one-row matrix."""
    score = float(sentence_scores(model, np.asarray(x, dtype=float)[None])[0])
    return int(sentence_labels(score)), score


def vote_of(model, group):
    """`document_vote` over the sentence labels and scores of one group."""
    scores = sentence_scores(model, group)
    return document_vote(sentence_labels(scores), scores)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def write_price_csv(path, observations):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "close"])
        for day, price in observations:
            writer.writerow([day.isoformat(), f"{price:.8f}"])


@pytest.fixture
def market_fixture():
    """Noise-free linked stock/index series: r_stock = 0.001 + 1.5 r_market."""
    rng = np.random.default_rng(11)
    start = date(2005, 1, 3)
    days = [start + timedelta(days=i) for i in range(45)]
    market_returns = rng.uniform(-0.02, 0.02, size=len(days) - 1)
    market = [100.0]
    stock = [50.0]
    for r in market_returns:
        market.append(market[-1] * (1.0 + r))
        stock.append(stock[-1] * (1.0 + 0.001 + 1.5 * r))
    return days, market, stock
