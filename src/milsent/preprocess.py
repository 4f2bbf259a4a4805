"""Text normalization, sentence splitting, vocabulary and corpus filtering.

Cleaning truncates boilerplate (contact blocks, HTML), lowercases, and
replaces dates, URLs, and signed numbers with placeholder tokens so that
surface variation in numerals does not fragment the vocabulary. The
vocabulary is a set of terms: those seen at least ``min_count`` times, and
the special tokens. Terms outside it are collapsed to ``<unk>``. Documents
that are too short, or whose sentence count sits in the extreme tails of
the corpus distribution, are dropped.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from milsent.corpus import Document

UNK = "<unk>"
NUM_POS = "<num_pos>"
NUM_NEG = "<num_neg>"
DATE = "<date>"
URL = "<url>"
SPECIAL_TOKENS = (UNK, NUM_POS, NUM_NEG, DATE, URL)

DEFAULT_CUTOFF_PATTERNS = (
    r"\bcontact:",
    r"\bfor further information\b",
    r"\bend of (?:ad[- ]hoc )?announcement\b",
    r"\bdisclaimer:",
    r"<html\b",
)

_MONTH = (
    r"(?:jan(?:uary)?|feb(?:ruary)?|mar(?:ch)?|apr(?:il)?|may|jun(?:e)?|jul(?:y)?"
    r"|aug(?:ust)?|sep(?:t(?:ember)?)?|oct(?:ober)?|nov(?:ember)?|dec(?:ember)?)"
)
DEFAULT_DATE_PATTERNS = (
    r"\b\d{4}-\d{2}-\d{2}\b",
    r"\b\d{1,2}(?:st|nd|rd|th)?\s+" + _MONTH + r"\.?,?\s+\d{4}\b",
    _MONTH + r"\.?\s+\d{1,2}(?:st|nd|rd|th)?,?\s+\d{4}\b",
    r"\b\d{1,2}[./]\d{1,2}[./]\d{2,4}\b",
)
DEFAULT_URL_PATTERN = r"(?:https?://|www\.)\S+"

_NEG_NUMBER = re.compile(r"(?:(?<=^)|(?<=[\s(\[]))[-−]\d+(?:[.,]\d+)*")
_POS_NUMBER = re.compile(r"(?<!\w)\+?\d+(?:[.,]\d+)*")

# Lowercase, trailing period stripped; multi-dot entries keep internal dots.
ABBREVIATIONS = frozenset(
    {
        "approx", "mio", "bn", "mln", "no", "nos", "nr", "vs", "etc", "inc",
        "ltd", "co", "corp", "plc", "ag", "cf", "ca", "al", "resp", "est",
        "fig", "vol", "p", "pp", "mr", "mrs", "ms", "dr", "prof", "jr", "sr",
        "st", "e.g", "i.e", "u.s", "u.k", "e.u",
    }
)


@dataclass(frozen=True)
class PreprocessConfig:
    min_doc_words: int = 50
    min_count: int = 5
    cutoff_patterns: tuple[str, ...] = DEFAULT_CUTOFF_PATTERNS
    length_percentile: float = 0.01
    date_patterns: tuple[str, ...] = DEFAULT_DATE_PATTERNS
    url_pattern: str = DEFAULT_URL_PATTERN

    def __post_init__(self):
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not 0 < self.length_percentile < 0.5:
            raise ValueError("length_percentile must be in (0, 0.5)")
        object.__setattr__(self, "cutoff_patterns", tuple(self.cutoff_patterns))
        object.__setattr__(self, "date_patterns", tuple(self.date_patterns))
        for pattern in self.cutoff_patterns:
            _compile(pattern, re.IGNORECASE)
        for pattern in (self.url_pattern, *self.date_patterns):
            _compile(pattern)


def _compile(pattern: str, flags: int = 0) -> re.Pattern:
    # a huge repeat count overflows, and deep nesting recurses, inside `re`
    try:
        return re.compile(pattern, flags)
    except (re.error, OverflowError, RecursionError) as exc:
        raise ValueError(f"invalid pattern {pattern!r}: {exc}") from exc


def clean_text(text: str, config: PreprocessConfig | None = None) -> str:
    """Truncate at the first cutoff match, lowercase, tokenize dates/URLs/numbers.

    Idempotent: replacements contain no digits and cutoff patterns are
    matched case-insensitively, so a second pass is a no-op.
    """
    config = config or PreprocessConfig()
    cut = len(text)
    for pattern in config.cutoff_patterns:
        match = _compile(pattern, re.IGNORECASE).search(text)
        if match and match.start() < cut:
            cut = match.start()
    text = text[:cut].lower()
    text = _compile(config.url_pattern).sub(URL, text)
    for pattern in config.date_patterns:
        text = _compile(pattern).sub(DATE, text)
    text = _NEG_NUMBER.sub(NUM_NEG, text)
    text = _POS_NUMBER.sub(NUM_POS, text)
    return text.strip()


_BOUNDARY = re.compile(r"([.!?]+)(\s+|$)")
_LAST_WORD = re.compile(r"([\w<>]+(?:\.[\w<>]+)*)$")


def split_sentences(text: str) -> list[str]:
    """Split cleaned text on terminal punctuation, respecting abbreviations."""
    sentences: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(text):
        punct = match.group(1)
        if punct == ".":
            before = _LAST_WORD.search(text, start, match.start(1))
            if before and before.group(1).lower() in ABBREVIATIONS:
                continue
        sentence = text[start : match.end(1)].strip()
        if sentence:
            sentences.append(sentence)
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


_TOKEN = re.compile(r"<[a-z_]+>|[a-z0-9]+(?:'[a-z0-9]+)*")


def tokenize(sentence: str) -> list[str]:
    """Lowercase word tokens; punctuation dropped, special tokens kept whole."""
    return _TOKEN.findall(sentence.lower())


def build_vocabulary(corpus: Iterable[Sequence[str]], min_count: int) -> frozenset[str]:
    """The terms seen at least min_count times over all token sequences,
    and the special tokens."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(tokens)
    return frozenset(t for t, c in counts.items() if c >= min_count).union(SPECIAL_TOKENS)


def apply_vocabulary(tokens: Sequence[str], vocab: frozenset[str]) -> list[str]:
    """Replace out-of-vocabulary tokens with <unk>; length is preserved."""
    return [t if t in vocab else UNK for t in tokens]


def _word_count(doc: Document) -> int:
    s = doc.sentences
    return sum(
        len(tokens) if tokens else len(text.split()) for text, tokens in zip(s.texts, s.tokens)
    )


def _quantile(ordered: Sequence[float], q: float) -> float:
    """`np.quantile(ordered, q)` of non-empty ascending values, computed as
    numpy's default (linear) method does, to the last bit: the value at
    index (n - 1) * q, interpolated between its two neighbours from the
    nearer end."""
    index = (len(ordered) - 1) * q
    lo = math.floor(index)
    if lo >= len(ordered) - 1:
        return float(ordered[-1])
    a, b = float(ordered[lo]), float(ordered[lo + 1])
    t = index - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def filter_corpus(
    corpus: Sequence[Document], config: PreprocessConfig | None = None
) -> list[Document]:
    """Drop short documents, then trim the sentence-count distribution tails.

    Documents exactly at a percentile boundary are kept (inclusive bounds).
    Output is a subsequence of the input.
    """
    config = config or PreprocessConfig()
    survivors = [d for d in corpus if _word_count(d) >= config.min_doc_words]
    if not survivors:
        return []
    counts = [len(d.sentences) for d in survivors]
    ordered = sorted(counts)
    lo = _quantile(ordered, config.length_percentile)
    hi = _quantile(ordered, 1.0 - config.length_percentile)
    return [d for d, c in zip(survivors, counts) if lo <= c <= hi]
