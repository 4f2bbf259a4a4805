"""Document/sentence data model, corpus file I/O, and the MIL dataset view.

A corpus file is JSON Lines: one document object per line, UTF-8. Required
fields: ``id``, ``ticker``, ``published_at`` (ISO-8601 date), ``text``.
Optional: ``sentences`` (array of strings), ``label`` ("pos"/"neg"),
``abnormal_return`` (decimal fraction), plus pipeline-state arrays parallel
to ``sentences``: ``sentence_tokens``, ``sentence_labels``,
``sentence_scores``.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from dataclasses import dataclass, replace
from datetime import date
from typing import Iterable, Sequence

import numpy as np

POSITIVE = 1
NEGATIVE = 0

LABEL_TO_TEXT = {POSITIVE: "pos", NEGATIVE: "neg"}
_TEXT_TO_LABEL = {"pos": POSITIVE, "neg": NEGATIVE}


class CorpusError(Exception):
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


@dataclass(frozen=True)
class SentenceInstance:
    """One sentence of a document: the instance of the MIL problem."""

    text: str
    tokens: tuple[str, ...] = ()
    embedding: np.ndarray | None = None
    predicted_label: int | None = None
    score: float | None = None

    def __post_init__(self):
        if self.embedding is not None:
            emb = np.asarray(self.embedding, dtype=float)
            if emb.ndim != 1:
                raise CorpusError("sentence embedding must be a 1-d vector")
            object.__setattr__(self, "embedding", emb)
        object.__setattr__(self, "tokens", tuple(self.tokens))
        # A label may stand alone (gold annotations, dictionary output);
        # a score never does, and always agrees with its label.
        if self.score is not None:
            if self.predicted_label is None:
                raise CorpusError("score requires a predicted_label")
            expected = POSITIVE if self.score >= 0.5 else NEGATIVE
            if self.predicted_label != expected:
                raise CorpusError(
                    f"predicted_label {self.predicted_label} inconsistent with score {self.score}"
                )


@dataclass(frozen=True)
class Document:
    """A news item: the labeled group of the MIL problem."""

    id: str
    ticker: str
    published_at: date
    raw_text: str
    sentences: tuple[SentenceInstance, ...] = ()
    label: int | None = None
    abnormal_return: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if self.label is not None and self.label not in (POSITIVE, NEGATIVE):
            raise CorpusError(f"document {self.id}: label must be 0 or 1")
        if self.label is not None and self.abnormal_return is not None:
            expected = POSITIVE if self.abnormal_return > 0 else NEGATIVE
            if self.label != expected:
                raise CorpusError(
                    f"document {self.id}: label contradicts abnormal return "
                    f"{self.abnormal_return}"
                )


@dataclass(frozen=True)
class MilDataset:
    """Groups of instance vectors with binary group labels."""

    groups: tuple[tuple[np.ndarray, int], ...]
    dim: int

    def __post_init__(self):
        norm = []
        for matrix, label in self.groups:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] == 0:
                raise CorpusError("every group must be a non-empty instance matrix")
            if matrix.shape[1] != self.dim:
                raise CorpusError(
                    f"group dimension {matrix.shape[1]} != dataset dimension {self.dim}"
                )
            if label not in (POSITIVE, NEGATIVE):
                raise CorpusError("group labels must be 0 or 1")
            norm.append((matrix, int(label)))
        object.__setattr__(self, "groups", tuple(norm))

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_instances(self) -> int:
        return sum(len(matrix) for matrix, _ in self.groups)


def _is_number(value) -> bool:
    """A JSON number that is finite; booleans are not numbers here."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


_NULL = type(None)
_LABEL_TEXTS = {*_TEXT_TO_LABEL, None}


def _misfit(key: str, what: str, items: list, fits) -> CorpusError:
    """The error naming the first item of `items` that `fits` rejects. The
    callers test whole lists at C speed and only come here on failure."""
    bad = next(v for v in items if not fits(v))
    return CorpusError(f"{key} must be a list of {what}, got item {bad!r}")


def _list_field(obj: dict, key: str, types: set, what: str, n: int) -> list:
    """The list under `key`, or n nulls when it is absent, null or empty.
    An item whose type is not in `types` is an error."""
    value = obj.get(key)
    if value is None:
        return [None] * n
    if not isinstance(value, list):
        raise CorpusError(f"{key} must be a list of {what}, got {value!r}")
    if not types.issuperset(map(type, value)):
        raise _misfit(key, what, value, lambda v: type(v) in types)
    return value or [None] * n


def _parse_record(line: str) -> Document:
    """The document of one corpus line. Errors say what is wrong;
    `load_corpus` prefixes them with the file and the line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed record: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorpusError("record is not an object")
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
    if abnormal is not None and not _is_number(abnormal):
        raise CorpusError(f"abnormal_return must be a finite number, got {abnormal!r}")

    texts = _list_field(obj, "sentences", {str}, "strings", 0)
    n = len(texts)
    what = "string lists or nulls"
    tokens = _list_field(obj, "sentence_tokens", {list, _NULL}, what, n)
    try:
        "".join(chain.from_iterable(filter(None, tokens)))  # a TypeError on a non-string
    except TypeError:
        raise _misfit("sentence_tokens", what, tokens,
                      lambda v: v is None or all(isinstance(t, str) for t in v)) from None
    what = "'pos', 'neg' or nulls"
    labels = _list_field(obj, "sentence_labels", {str, _NULL}, what, n)
    if not _LABEL_TEXTS.issuperset(labels):
        raise _misfit("sentence_labels", what, labels, lambda v: v in _LABEL_TEXTS)
    what = "finite numbers or nulls"
    scores = _list_field(obj, "sentence_scores", {int, float, _NULL}, what, n)
    if not all(map(math.isfinite, [v for v in scores if type(v) is float])):
        raise _misfit("sentence_scores", what, scores,
                      lambda v: type(v) is not float or math.isfinite(v))
    if not (n == len(tokens) == len(labels) == len(scores)):
        raise CorpusError("sentence arrays have mismatched lengths")

    sentences = [
        SentenceInstance(
            text=text,
            tokens=tuple(toks) if toks else (),
            predicted_label=_TEXT_TO_LABEL.get(lab),
            score=score,
        )
        for text, toks, lab, score in zip(texts, tokens, labels, scores)
    ]
    return Document(
        id=obj["id"],
        ticker=obj["ticker"],
        published_at=published,
        raw_text=obj["text"],
        sentences=tuple(sentences),
        label=_TEXT_TO_LABEL.get(label),
        abnormal_return=abnormal,
    )


def load_corpus(path) -> list[Document]:
    """Read a JSON-Lines corpus file; an error in a record names the file
    and the line."""
    docs: list[Document] = []
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
            docs.append(doc)
    return docs


def _record_of(doc: Document) -> dict:
    record: dict = {
        "id": doc.id,
        "ticker": doc.ticker,
        "published_at": doc.published_at.isoformat(),
        "text": doc.raw_text,
    }
    if doc.sentences:
        record["sentences"] = [s.text for s in doc.sentences]
        if any(s.tokens for s in doc.sentences):
            record["sentence_tokens"] = [list(s.tokens) for s in doc.sentences]
        if any(s.predicted_label is not None for s in doc.sentences):
            record["sentence_labels"] = [
                None if s.predicted_label is None else LABEL_TO_TEXT[s.predicted_label]
                for s in doc.sentences
            ]
            if any(s.score is not None for s in doc.sentences):
                record["sentence_scores"] = [s.score for s in doc.sentences]
    if doc.label is not None:
        record["label"] = LABEL_TO_TEXT[doc.label]
    if doc.abnormal_return is not None:
        record["abnormal_return"] = doc.abnormal_return
    return record


def save_corpus(docs: Iterable[Document], path) -> None:
    """Write a corpus file; load_corpus(save_corpus(c)) reproduces all fields.
    A non-finite number has no JSON form and fails the write."""
    with open(path, "w", encoding="utf-8") as handle:
        for doc in docs:
            try:
                handle.write(json.dumps(_record_of(doc), ensure_ascii=False, allow_nan=False))
            except ValueError as exc:
                raise CorpusError(f"{path}: document {doc.id}: {exc}") from exc
            handle.write("\n")


def to_mil_dataset(corpus: Sequence[Document]) -> MilDataset:
    """One group per labeled document, in corpus order, sentences in order.

    Every document must carry a label and every sentence an embedding of the
    corpus-wide dimension.
    """
    groups = []
    dim: int | None = None
    for doc in corpus:
        if doc.label is None:
            raise CorpusError(f"document {doc.id} has no label")
        if not doc.sentences:
            raise CorpusError(f"document {doc.id} has no sentences")
        vectors = []
        for idx, sentence in enumerate(doc.sentences):
            if sentence.embedding is None:
                raise CorpusError(f"document {doc.id}: sentence {idx} has no embedding")
            if dim is None:
                dim = len(sentence.embedding)
            elif len(sentence.embedding) != dim:
                raise CorpusError(
                    f"document {doc.id}: embedding dimension "
                    f"{len(sentence.embedding)} != corpus dimension {dim}"
                )
            vectors.append(sentence.embedding)
        groups.append((np.stack(vectors), doc.label))
    return MilDataset(groups=tuple(groups), dim=0 if dim is None else dim)


def with_predictions(
    doc: Document, labels: Sequence[int], scores: Sequence[float]
) -> Document:
    """Attach per-sentence predictions, returning a new document."""
    if len(labels) != len(doc.sentences) or len(scores) != len(doc.sentences):
        raise CorpusError(f"document {doc.id}: prediction arrays mismatch sentences")
    # Python scalars first: converting numpy scalars one at a time is slower
    labels, scores = np.asarray(labels).tolist(), np.asarray(scores).tolist()
    sentences = tuple(
        SentenceInstance(text=s.text, tokens=s.tokens, embedding=s.embedding,
                         predicted_label=int(lab), score=float(score))
        for s, lab, score in zip(doc.sentences, labels, scores)
    )
    return replace(doc, sentences=sentences)
