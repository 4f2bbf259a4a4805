"""Document/sentence data model and corpus file I/O.

A corpus file is JSON Lines: one document object per line, UTF-8. Required
fields: ``id``, ``ticker``, ``published_at`` (ISO-8601 date), ``text``.
Optional: ``sentences`` (array of strings), ``label`` ("pos"/"neg"),
``abnormal_return`` (decimal fraction), plus pipeline-state arrays parallel
to ``sentences``: ``sentence_tokens``, ``sentence_labels``,
``sentence_scores``.

`iter_corpus` reads a corpus file one document at a time and checks every
record (ids unique across the file included) before it yields it: the
reader checks the JSON types and the label texts, and `Sentences` and
`Document` check column lengths, finiteness and label-score agreement once,
when they are built. A number is finite when `abs(value) < inf`, so any JSON
integer is, even one too large for a float. `load_corpus` is the list of
that stream. `predict` scores the stream in chunks of documents and
`evaluate` keeps only the label columns it pairs, so their memory follows a
chunk, not the corpus. `save_corpus` writes any iterable of documents.

The module also holds the two error bases the command line catches:
`UsageError` (exit code 2) and `DataError` (exit code 1). Each layer's
error class derives from one of them, so catching them executes no layer.

A document keeps its sentences as columns, not as one object per sentence:
`Sentences` is a frozen dataclass of four tuples, texts, token tuples,
labels and scores, exactly the four sentence arrays of a corpus record. It
checks the columns once, when it is built, and compares and hashes as its
columns. Every stage of the package reads and writes the columns. For
scripts that walk a document one sentence at a time, iterating
`doc.sentences` yields `SentenceInstance` views, each one checked as it is
built, and `Document` takes any iterable of such views as its sentences.
Sentence vectors are not part of a document: `embed.embed_matrix` returns
them as one matrix, one row per sentence in corpus order.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import date
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

POSITIVE = 1
NEGATIVE = 0

LABEL_TO_TEXT = {POSITIVE: "pos", NEGATIVE: "neg"}
_TEXT_TO_LABEL = {"pos": POSITIVE, "neg": NEGATIVE}


class UsageError(Exception):
    """Bad arguments, bad config, or unusable input selection. Every error
    that the command line reports with exit code 2 derives from it."""


class DataError(Exception):
    """Input data, or a computation on it, that fails a run. Every milsent
    error that the command line reports with exit code 1 derives from it."""


class CorpusError(DataError):
    """A corpus file or document violates its contract."""


def utf8_lines(handle, path, error: type[Exception], unit: str = "line"):
    """The lines of a UTF-8 text handle opened on `path`. Bytes that are not
    UTF-8 raise `error("<path>: <unit> <n>: not valid UTF-8 (<reason>)")`,
    n counted from 1. The bad line is found by a second pass over the bytes:
    a text handle decodes ahead in chunks, so a count kept while reading it
    can lag behind the bad line."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        line_no = 0
        with open(path, "rb") as raw:
            for line_no, line in enumerate(raw, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise error(f"{path}: {unit} {line_no}: not valid UTF-8 ({exc.reason})") from exc


@contextmanager
def atomic_write(path):
    """A UTF-8 text handle on a new temporary file beside `path`, moved onto
    `path` when the block ends. If the block raises, the temporary file is
    removed and `path` is left as it was: an output is whole or absent. A
    `path` that exists and is not a regular file (a pipe, /dev/stdout) is
    written in place."""
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
        return
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


# `abs(score) < inf`: false for NaN and infinities, true for an int too
# large for a float, where `math.isfinite` raises
_BELOW_INF = math.inf.__gt__


def _check_prediction(label, score) -> None:
    """The rule for one sentence's label and score: a label is 0, 1 or None
    and may stand alone (gold annotations, dictionary output); a score never
    does, is finite, and always agrees with its label."""
    if label not in (POSITIVE, NEGATIVE, None):
        raise CorpusError(f"predicted_label must be 0, 1 or None, got {label!r}")
    if score is not None:
        if label is None:
            raise CorpusError("score requires a predicted_label")
        if not _BELOW_INF(abs(score)):
            raise CorpusError(f"score {score} is not finite")
        expected = POSITIVE if score >= 0.5 else NEGATIVE
        if label != expected:
            raise CorpusError(f"predicted_label {label} inconsistent with score {score}")


@dataclass(frozen=True)
class SentenceInstance:
    """One sentence of a document, the instance of the MIL problem: the view
    that iterating `Sentences` yields."""

    text: str
    tokens: tuple[str, ...] = ()
    predicted_label: int | None = None
    score: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        _check_prediction(self.predicted_label, self.score)


_LABELS = {POSITIVE, NEGATIVE, None}
_AT_LEAST_HALF = (0.5).__le__
_SENTENCE_FIELDS = attrgetter("text", "tokens", "predicted_label", "score")


@dataclass(frozen=True, slots=True)
class Sentences:
    """The sentences of a document as columns, one entry per sentence.

    `texts`, `tokens` (one tuple of strings per sentence), `labels` and
    `scores` are given as any iterables and kept as tuples; `labels` and
    `scores` default to all None, `tokens` to all empty. The columns are
    checked once, here, and cannot be reassigned. Equality, hash and repr
    are those of the four columns; iterating builds `SentenceInstance`
    views, one per sentence.
    """

    texts: tuple[str, ...] = ()
    tokens: tuple[tuple[str, ...], ...] | None = None
    labels: tuple[int | None, ...] | None = None
    scores: tuple[float | None, ...] | None = None

    def __post_init__(self):
        texts = tuple(self.texts)
        n = len(texts)
        tokens = ((),) * n if self.tokens is None else tuple(self.tokens)
        labels = (None,) * n if self.labels is None else tuple(self.labels)
        scores = (None,) * n if self.scores is None else tuple(self.scores)
        if not len(tokens) == len(labels) == len(scores) == n:
            raise CorpusError("sentence columns have mismatched lengths")
        # whole-column tests first; the per-sentence rule only finds the
        # error, or passes the Nones that the fast test cannot read. A NaN
        # score agrees with label 0 (NaN >= 0.5 is false), so finiteness is
        # a test of its own.
        if not (_LABELS.issuperset(labels) and (
                scores.count(None) == n or (tuple(map(_AT_LEAST_HALF, scores)) == labels
                                            and all(map(_BELOW_INF, map(abs, scores)))))):
            for label, score in zip(labels, scores):
                _check_prediction(label, score)
        _set = object.__setattr__
        _set(self, "texts", texts)
        _set(self, "tokens", tokens)
        _set(self, "labels", labels)
        _set(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.texts)

    def __iter__(self):
        return map(SentenceInstance, self.texts, self.tokens, self.labels, self.scores)


@dataclass(frozen=True)
class Document:
    """A news item: the labeled group of the MIL problem. `sentences` may be
    given as any iterable of `SentenceInstance`s; it is kept as `Sentences`."""

    id: str
    ticker: str
    published_at: date
    raw_text: str
    sentences: Sentences = Sentences()
    label: int | None = None
    abnormal_return: float | None = None

    def __post_init__(self):
        if type(self.sentences) is not Sentences:
            columns = zip(*map(_SENTENCE_FIELDS, self.sentences))
            object.__setattr__(self, "sentences", Sentences(*columns))
        if self.label is not None and self.label not in (POSITIVE, NEGATIVE):
            raise CorpusError(f"document {self.id}: label must be 0 or 1")
        if self.abnormal_return is not None and not _BELOW_INF(abs(self.abnormal_return)):
            raise CorpusError(
                f"document {self.id}: abnormal return {self.abnormal_return} is not finite"
            )
        if self.label is not None and self.abnormal_return is not None:
            expected = POSITIVE if self.abnormal_return > 0 else NEGATIVE
            if self.label != expected:
                raise CorpusError(
                    f"document {self.id}: label contradicts abnormal return "
                    f"{self.abnormal_return}"
                )


_NULL = type(None)
_LABEL_TEXTS = {*_TEXT_TO_LABEL, None}


def _misfit(key: str, what: str, items: list, fits) -> CorpusError:
    """The error naming the first item of `items` that `fits` rejects. The
    callers test whole lists at C speed and only come here on failure."""
    bad = next(v for v in items if not fits(v))
    return CorpusError(f"{key} must be a list of {what}, got item {bad!r}")


def _list_field(obj: dict, key: str, types: set, what: str) -> list | None:
    """The list under `key`, or None when it is absent, null or empty, so
    that `Sentences` supplies the column's default. An item whose type is
    not in `types` is an error."""
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, list):
        raise CorpusError(f"{key} must be a list of {what}, got {value!r}")
    if not types.issuperset(map(type, value)):
        raise _misfit(key, what, value, lambda v: type(v) in types)
    return value or None


def _parse_record(line: str) -> Document:
    """The document of one corpus line; its JSON form is checked here, its
    values by `Sentences` and `Document`. Errors say what is wrong;
    `iter_corpus` prefixes them with the file and the line."""
    try:
        obj = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise CorpusError(f"malformed record: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorpusError("record is not an object")
    if "\\u" in line:  # only an escape can spell a lone surrogate
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusError(
                f"record holds text that UTF-8 cannot encode ({exc.reason})") from None
    for key in ("id", "ticker", "published_at", "text"):
        if key not in obj:
            raise CorpusError(f"record missing required field {key!r}")
        if not isinstance(obj[key], str):
            raise CorpusError(f"{key} must be a string, got {obj[key]!r}")
    try:
        published = date.fromisoformat(obj["published_at"])
    except ValueError as exc:
        raise CorpusError(f"bad published_at: {exc}") from exc
    label = obj.get("label")
    if label is not None and not (isinstance(label, str) and label in _TEXT_TO_LABEL):
        raise CorpusError(f"label must be 'pos' or 'neg', got {label!r}")
    abnormal = obj.get("abnormal_return")
    if abnormal is not None and type(abnormal) not in (int, float):
        raise CorpusError(f"abnormal_return must be a finite number, got {abnormal!r}")

    texts = _list_field(obj, "sentences", {str}, "strings") or ()
    what = "string lists or nulls"
    tokens = _list_field(obj, "sentence_tokens", {list, _NULL}, what)
    try:
        "".join(chain.from_iterable(filter(None, tokens or ())))  # a TypeError on a non-string
    except TypeError:
        raise _misfit("sentence_tokens", what, tokens,
                      lambda v: v is None or all(isinstance(t, str) for t in v)) from None
    what = "'pos', 'neg' or nulls"
    labels = _list_field(obj, "sentence_labels", {str, _NULL}, what)
    if not _LABEL_TEXTS.issuperset(labels or ()):
        raise _misfit("sentence_labels", what, labels, lambda v: v in _LABEL_TEXTS)

    sentences = Sentences(
        texts,
        tokens and [tuple(toks) if toks else () for toks in tokens],
        labels and map(_TEXT_TO_LABEL.get, labels),
        _list_field(obj, "sentence_scores", {int, float, _NULL}, "finite numbers or nulls"),
    )
    return Document(
        id=obj["id"],
        ticker=obj["ticker"],
        published_at=published,
        raw_text=obj["text"],
        sentences=sentences,
        label=_TEXT_TO_LABEL.get(label),
        abnormal_return=abnormal,
    )


def iter_corpus(path) -> Iterator[Document]:
    """The documents of a JSON-Lines corpus file, one at a time, in file
    order; an error in a record names the file and the line. The file is
    opened on the first `next`, and every record is checked before it is
    yielded, ids against those before it included, so a caller that keeps
    only some of each document holds one document at a time."""
    seen: set[str] = set()
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    with handle:
        for line_no, line in enumerate(utf8_lines(handle, path, CorpusError), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = _parse_record(line)
                if doc.id in seen:
                    raise CorpusError(f"duplicate document id {doc.id!r}")
            except CorpusError as exc:
                raise CorpusError(f"{path}: line {line_no}: {exc}") from exc
            seen.add(doc.id)
            yield doc


def load_corpus(path) -> list[Document]:
    """Every document of a JSON-Lines corpus file, read by `iter_corpus`."""
    return list(iter_corpus(path))


_LABEL_TEXT = {**LABEL_TO_TEXT, None: None}


def _record_of(doc: Document) -> dict:
    record: dict = {
        "id": doc.id,
        "ticker": doc.ticker,
        "published_at": doc.published_at.isoformat(),
        "text": doc.raw_text,
    }
    sentences = doc.sentences
    n = len(sentences)
    if n:
        # tuples encode as JSON arrays, byte for byte as lists do
        record["sentences"] = sentences.texts
        if any(sentences.tokens):
            record["sentence_tokens"] = sentences.tokens
        if sentences.labels.count(None) != n:
            record["sentence_labels"] = list(map(_LABEL_TEXT.__getitem__, sentences.labels))
            if sentences.scores.count(None) != n:
                record["sentence_scores"] = sentences.scores
    if doc.label is not None:
        record["label"] = LABEL_TO_TEXT[doc.label]
    if doc.abnormal_return is not None:
        record["abnormal_return"] = doc.abnormal_return
    return record


def save_corpus(docs: Iterable[Document], path) -> None:
    """Write a corpus file; load_corpus(save_corpus(c)) reproduces all fields.
    A non-finite number has no JSON form and fails the write, which then
    leaves any existing file at `path` untouched."""
    with atomic_write(path) as handle:
        for doc in docs:
            try:
                handle.write(json.dumps(_record_of(doc), ensure_ascii=False, allow_nan=False))
            except ValueError as exc:
                raise CorpusError(f"{path}: document {doc.id}: {exc}") from exc
            handle.write("\n")


def with_predictions(
    doc: Document, labels: Sequence[int], scores: Sequence[float]
) -> Document:
    """Attach per-sentence predictions, returning a new document."""
    sentences = doc.sentences
    if len(labels) != len(sentences) or len(scores) != len(sentences):
        raise CorpusError(f"document {doc.id}: prediction arrays mismatch sentences")
    predicted = Sentences(sentences.texts, sentences.tokens, map(int, labels),
                          map(float, scores))
    return replace(doc, sentences=predicted)
