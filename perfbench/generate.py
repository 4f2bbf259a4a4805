"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` (or a seed) and returns
plain records or writes plain files; the same seed gives byte-identical
files. The program under test only ever sees these files. Generator truth
(gold sentence labels, generating clusters) is returned to the harness and
written only into gold corpora for ``milsent evaluate``; score-bulk's input
doubles as its gold corpus, and ``predict`` replaces the labels it carries.
"""

from __future__ import annotations

import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np

# Fixed, seed-independent neutral vocabulary: the workload seed varies the
# documents, not the language they are written in.
_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w")
_VOWELS = ("a", "e", "i", "o", "u")
_CODAS = ("", "n", "r", "s", "l", "t", "m")

START_DAY = date(2005, 1, 3)  # a Monday
ESTIMATION_LEAD = 60  # trading days kept free of events at the series start


def neutral_words(count: int = 400) -> list[str]:
    """`count` distinct two-syllable pseudo-words, the same on every call."""
    rng = np.random.default_rng(0)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        parts = []
        for _ in range(2):
            parts.append(_ONSETS[rng.integers(len(_ONSETS))])
            parts.append(_VOWELS[rng.integers(len(_VOWELS))])
            parts.append(_CODAS[rng.integers(len(_CODAS))])
        word = "".join(parts)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def load_lexicon(src_root: Path) -> tuple[list[str], list[str]]:
    """The package's demo polarity lists: (positive terms, negative terms)."""
    data = src_root / "milsent" / "data"
    lists = []
    for name in ("demo_positive.txt", "demo_negative.txt"):
        text = (data / name).read_text(encoding="utf-8")
        lists.append(sorted({line.strip().lower() for line in text.splitlines() if line.strip()}))
    return lists[0], lists[1]


def trading_days(n_days: int) -> list[date]:
    """A weekday calendar of `n_days` trading days from START_DAY."""
    days = []
    day = START_DAY
    while len(days) < n_days:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


class TextGenerator:
    """Sentences of three to six neutral words and three polarity terms.

    A sentence's gold label is the polarity of the terms planted in it. With
    ``decorate``, sentences also carry numbers, dates and URLs, and some
    documents end in a contact block, so that cleaning has work to do; the
    decorations never end a sentence, so the cleaned text splits back into
    exactly the generated sentences.
    """

    def __init__(self, positive: list[str], negative: list[str], decorate: bool):
        self.polar = {1: positive, 0: negative}
        self.neutral = neutral_words()
        self.decorate = decorate

    def vocabulary(self) -> list[str]:
        return sorted(set(self.neutral) | set(self.polar[1]) | set(self.polar[0]))

    def sentence(self, rng: np.random.Generator, label: int) -> tuple[str, list[str]]:
        n_neutral = int(rng.integers(3, 7))
        words = [self.neutral[i] for i in rng.integers(len(self.neutral), size=n_neutral)]
        terms = self.polar[label]
        for _ in range(3):
            words.insert(int(rng.integers(0, len(words))), terms[rng.integers(len(terms))])
        tokens = list(words)
        if self.decorate:
            roll = rng.random()
            pos = int(rng.integers(1, len(words)))
            if roll < 0.25:
                words.insert(pos, f"{rng.uniform(0.1, 99.9):.1f}%")
            elif roll < 0.35:
                words.insert(pos, f"-{rng.uniform(0.1, 9.9):.1f}")
            elif roll < 0.45:
                words.insert(pos, f"on {START_DAY + timedelta(days=int(rng.integers(0, 3650)))}")
            elif roll < 0.50:
                words.insert(pos, f"www.{self.neutral[rng.integers(len(self.neutral))]}.com/news")
        text = " ".join(words)
        return text[0].upper() + text[1:] + ".", tokens

    def document(self, rng: np.random.Generator,
                 n_sentences: int) -> tuple[int, list[tuple[str, list[str], int]]]:
        """(majority label, [(sentence text, tokens, gold label)]).

        Fewer than half of the sentences disagree with the document, so the
        majority label is never a tie.
        """
        label = int(rng.integers(0, 2))
        minority = min(int(rng.binomial(n_sentences, 0.25)), (n_sentences - 1) // 2)
        labels = [label] * (n_sentences - minority) + [1 - label] * minority
        rng.shuffle(labels)
        return label, [(*self.sentence(rng, lab), lab) for lab in labels]


def raw_news(rng: np.random.Generator, text: TextGenerator, n_docs: int,
             tickers: list[str], days: list[date]) -> tuple[list[dict], dict]:
    """Raw news records, one event day per (ticker, day), plus gold truth.

    Documents come in publication order and the n-th has 6 + n % 4
    sentences, so any run of consecutive documents, such as the oldest ones a
    temporal split trains on, has a sentence count that does not depend on
    the seed. Returns (records, truth) with truth[doc_id] = (label,
    [sentence labels]).
    """
    slots = [(t, d) for d in range(ESTIMATION_LEAD, len(days)) for t in range(len(tickers))]
    chosen = rng.choice(len(slots), size=n_docs, replace=False)
    records, truth = [], {}
    for n, slot in enumerate(sorted(int(c) for c in chosen)):
        ticker, day = slots[slot]
        label, sentences = text.document(rng, 6 + n % 4)
        body = " ".join(s for s, _, _ in sentences)
        if rng.random() < 0.3:
            body += " Contact: investor relations, phone +49 89 1234 567."
        doc_id = f"n{n:05d}"
        records.append({"id": doc_id, "ticker": tickers[ticker],
                        "published_at": days[day].isoformat(), "text": body})
        truth[doc_id] = (label, [lab for _, _, lab in sentences])
    return records, truth


def write_prices(prices_dir: Path, rng: np.random.Generator, tickers: list[str],
                 days: list[date], events: list[tuple[str, str, int]]) -> Path:
    """Market-model price CSVs with planted event-day abnormal returns.

    Each stock return is alpha + beta * index return + noise; on each event
    (ticker, ISO day, label) the return gets an extra +-5..9% whose sign is
    the document's majority label. Returns the index file path.
    """
    prices_dir.mkdir(parents=True, exist_ok=True)
    day_index = {d.isoformat(): i for i, d in enumerate(days)}
    market = rng.normal(0.0003, 0.01, size=len(days) - 1)
    index_path = prices_dir / "INDEX.csv"
    _write_series(index_path, days, 1000.0, market)
    shocks = {t: np.zeros(len(days) - 1) for t in tickers}
    for ticker, day, label in events:
        # return i is dated days[i + 1]
        shocks[ticker][day_index[day] - 1] += (1 if label else -1) * rng.uniform(0.05, 0.09)
    for ticker in tickers:
        alpha = rng.normal(0.0, 0.0002)
        beta = rng.uniform(0.5, 1.5)
        noise = rng.normal(0.0, rng.uniform(0.008, 0.015), size=len(days) - 1)
        _write_series(prices_dir / f"{ticker}.csv", days, rng.uniform(20.0, 80.0),
                      alpha + beta * market + noise + shocks[ticker])
    return index_path


def _write_series(path: Path, days: list[date], start: float, returns: np.ndarray) -> None:
    prices = start * np.cumprod(np.concatenate([[1.0], 1.0 + returns]))
    lines = ["date,close"] + [f"{d.isoformat()},{p:.6f}" for d, p in zip(days, prices)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_word_vectors(path: Path, rng: np.random.Generator, text: TextGenerator,
                       dim: int) -> None:
    """`term v1 .. vd` lines for every generated term.

    Polarity terms lean +-0.3 along one fixed direction; neutral terms are
    isotropic noise, so word averages carry the planted sentence polarity.
    """
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    lean = {t: 0.3 for t in text.polar[1]} | {t: -0.3 for t in text.polar[0]}
    with open(path, "w", encoding="utf-8") as handle:
        for term in text.vocabulary():
            vec = rng.normal(0.0, 1.0 / np.sqrt(dim), size=dim) + lean.get(term, 0.0) * direction
            handle.write(term + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def scored_corpus(rng: np.random.Generator, text: TextGenerator, n_docs: int,
                  prefix: str) -> list[dict]:
    """Already split and tokenized documents carrying gold labels.

    The records are what ``milsent preprocess`` would write, plus gold
    ``label`` and ``sentence_labels``: input for ``predict`` and the gold
    side of ``evaluate`` at once.
    """
    records = []
    for n in range(n_docs):
        label, sentences = text.document(rng, 6 + n % 4)
        records.append({
            "id": f"{prefix}{n:06d}",
            "ticker": f"T{n % 50:02d}",
            "published_at": (START_DAY + timedelta(days=n % 3650)).isoformat(),
            "text": " ".join(s for s, _, _ in sentences),
            "sentences": [s for s, _, _ in sentences],
            "sentence_tokens": [tokens for _, tokens, _ in sentences],
            "sentence_labels": ["pos" if lab else "neg" for _, _, lab in sentences],
            "label": "pos" if label else "neg",
        })
    return records


def synthetic_vectors(corpus_path: Path, vectors_path: Path, n_groups: int,
                      per_group: int, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The `mil.generate_synthetic` corpus as a corpus file and a sentence-vector
    file keyed `doc_id:index`.

    Returns (vectors as written, generating cluster of each vector), rows in
    corpus order.
    """
    from milsent import mil

    dataset, truth = mil.generate_synthetic(n_groups, per_group, dim, separation=3.0,
                                            noise_fraction=0.1, seed=seed)
    records = []
    with open(vectors_path, "w", encoding="utf-8") as vectors:
        for g, (matrix, label) in enumerate(dataset.groups):
            doc_id = f"g{g:05d}"
            for i, row in enumerate(matrix):
                vectors.write(f"{doc_id}:{i}\t" + " ".join(repr(float(v)) for v in row) + "\n")
            records.append({
                "id": doc_id, "ticker": "SYN",
                "published_at": (START_DAY + timedelta(days=g)).isoformat(),
                "text": f"group {g}",
                "sentences": [f"instance {i}" for i in range(len(matrix))],
                "label": "pos" if label else "neg",
            })
    write_jsonl(corpus_path, records)
    return np.vstack([matrix for matrix, _ in dataset.groups]), truth


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
