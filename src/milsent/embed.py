"""Fixed-dimension sentence vectors from precomputed embeddings.

Three providers: precomputed sentence vectors looked up by key, word
vectors averaged into sentence vectors, and a seeded hash fallback that
needs no external model (for tests and offline runs). Averaging is
order-insensitive, a documented difference from learned sentence encoders.

The hash provider is a vector table filled on demand: each call computes
the hash vector of each distinct token once, and then averages through the
same path as word vectors.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from milsent.corpus import Document, utf8_lines
from milsent.preprocess import tokenize

log = logging.getLogger(__name__)

PRECOMPUTED_SENTENCE = "precomputed-sentence"
WORD_AVERAGE = "word-average"
HASH_FALLBACK = "hash-fallback"

DEFAULT_DIM = 300


class EmbeddingError(Exception):
    """An embedding file or lookup violates its contract."""


@dataclass(frozen=True)
class EmbeddingStore:
    dim: int
    vectors: dict[str, np.ndarray]
    provider: str
    seed: int = 0

    def __post_init__(self):
        if self.dim <= 0:
            raise EmbeddingError("embedding dimension must be positive")
        if self.provider not in (PRECOMPUTED_SENTENCE, WORD_AVERAGE, HASH_FALLBACK):
            raise EmbeddingError(f"unknown provider {self.provider!r}")

    def __len__(self) -> int:
        return len(self.vectors)


def _parse_vector_file(path, first_field_name: str, sep: str | None):
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(utf8_lines(handle, path, EmbeddingError), start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if sep is None:
                parts = line.split()
                key, values = parts[0], parts[1:]
            else:
                head, _, rest = line.partition(sep)
                key, values = head, rest.split()
            if not values:
                raise EmbeddingError(
                    f"{path}: line {line_no}: no vector components after {first_field_name}"
                )
            try:
                vec = np.array([float(v) for v in values])
            except ValueError as exc:
                raise EmbeddingError(f"{path}: line {line_no}: {exc}") from exc
            if not np.all(np.isfinite(vec)):
                raise EmbeddingError(f"{path}: line {line_no}: non-finite vector component")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise EmbeddingError(
                    f"{path}: line {line_no}: dimension {len(vec)} != {dim}"
                )
            vectors[key] = vec
    if dim is None:
        raise EmbeddingError(f"{path}: empty file, dimension undeterminable")
    return vectors, dim


def load_embeddings(path) -> EmbeddingStore:
    """Word-vector text format: `term v1 v2 ... vd`, one record per line."""
    vectors, dim = _parse_vector_file(path, "term", sep=None)
    return EmbeddingStore(dim=dim, vectors=vectors, provider=WORD_AVERAGE)


def load_sentence_embeddings(path) -> EmbeddingStore:
    """Sentence-vector format: `sentence_id<TAB>v1 v2 ... vd`."""
    vectors, dim = _parse_vector_file(path, "sentence_id", sep="\t")
    return EmbeddingStore(dim=dim, vectors=vectors, provider=PRECOMPUTED_SENTENCE)


def hash_fallback_store(dim: int = DEFAULT_DIM, seed: int = 0) -> EmbeddingStore:
    """Deterministic per-token pseudo-random unit vectors; no data needed."""
    return EmbeddingStore(dim=dim, vectors={}, provider=HASH_FALLBACK, seed=seed)


def _hash_vector(token: str, dim: int, seed: int) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
    rng = np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "big")))
    vec = rng.standard_normal(dim)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def _precomputed_vector(store: EmbeddingStore, key: str) -> np.ndarray:
    try:
        return store.vectors[key]
    except KeyError:
        raise EmbeddingError(f"no precomputed vector for sentence key {key!r}") from None


def _hash_table(tokens, store: EmbeddingStore) -> dict[str, np.ndarray]:
    """The hash vector of each distinct token, each computed once."""
    return {t: _hash_vector(t, store.dim, store.seed) for t in set(tokens)}


def _average(tokens: Sequence[str], vectors: dict[str, np.ndarray], dim: int) -> np.ndarray:
    # tokens are summed in sorted order so the mean is permutation-invariant
    # bit for bit, not just up to rounding
    known = [vectors[t] for t in sorted(tokens) if t in vectors]
    if not known:
        log.warning("all %d tokens out of vocabulary; zero vector", len(tokens))
        return np.zeros(dim)
    return np.mean(known, axis=0)


def embed_sentence(
    tokens: Sequence[str], store: EmbeddingStore, key: str | None = None
) -> np.ndarray:
    """Sentence vector for a token sequence.

    word-average: mean of in-vocabulary token vectors (zero vector, logged,
    if none are known). hash-fallback: mean of per-token hash vectors.
    precomputed-sentence: lookup by `key`.
    """
    if len(tokens) == 0:
        raise EmbeddingError("cannot embed an empty token sequence")
    if store.provider == PRECOMPUTED_SENTENCE:
        if key is None:
            raise EmbeddingError("precomputed-sentence provider requires a sentence key")
        return _precomputed_vector(store, key)
    if store.provider == HASH_FALLBACK:
        return _average(tokens, _hash_table(tokens, store), store.dim)
    return _average(tokens, store.vectors, store.dim)


def sentence_key(doc_id: str, index: int) -> str:
    """Key convention for precomputed sentence vectors."""
    return f"{doc_id}:{index}"


def embed_corpus(docs: Sequence[Document], store: EmbeddingStore) -> list[Document]:
    """Attach an embedding to every sentence of every document.

    Sentences that tokenize to nothing receive the zero vector rather than
    failing the whole corpus.
    """
    if store.provider == PRECOMPUTED_SENTENCE:
        return [
            replace(doc, sentences=tuple(
                replace(s, embedding=_precomputed_vector(store, sentence_key(doc.id, idx)))
                for idx, s in enumerate(doc.sentences)
            ))
            for doc in docs
        ]
    tokens = [[s.tokens or tuple(tokenize(s.text)) for s in doc.sentences] for doc in docs]
    vectors = store.vectors
    if store.provider == HASH_FALLBACK:
        vectors = _hash_table((t for doc in tokens for toks in doc for t in toks), store)
    out = []
    for doc, doc_tokens in zip(docs, tokens):
        sentences = []
        for idx, (sentence, toks) in enumerate(zip(doc.sentences, doc_tokens)):
            if toks:
                vec = _average(toks, vectors, store.dim)
            else:
                log.warning("document %s: sentence %d has no tokens; zero vector", doc.id, idx)
                vec = np.zeros(store.dim)
            sentences.append(replace(sentence, embedding=vec))
        out.append(replace(doc, sentences=tuple(sentences)))
    return out
