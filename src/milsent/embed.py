"""Fixed-dimension sentence vectors from precomputed embeddings.

Three providers: precomputed sentence vectors looked up by key, word
vectors averaged into sentence vectors, and a seeded hash fallback that
needs no external model (for tests and offline runs). Averaging is
order-insensitive, a documented difference from learned sentence encoders.
A vector file is held as one n x d matrix, parsed line by line into one
flat buffer: each key's vector is a row of it.

`embed_matrix` is the one embedding path: one row per sentence of a corpus,
in corpus order. Documents do not carry their vectors: `train` hands the
matrix to `mil.to_mil_dataset`, and `predict` embeds and scores one chunk
of documents per call. The two averaging providers index the corpus's
distinct known tokens in one table (word vectors, or hash vectors computed
once per token per store), group the sentences by their count k of known
tokens and average each group's gathered k-row blocks, at most
`GATHER_ROWS` token rows at a time. A sentence's tokens are summed in
sorted order with the same numpy reduction as averaging that sentence
alone, so its vector depends neither on token order nor on the rest of the
corpus. A sentence with no tokens, or with none in the vocabulary, gets the
zero vector.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

from milsent._lazy import lazy_import
from milsent.corpus import DataError, Document, utf8_lines

hashlib = lazy_import("hashlib")
np = lazy_import("numpy")
preprocess = lazy_import("milsent.preprocess")

PRECOMPUTED_SENTENCE = "precomputed-sentence"
WORD_AVERAGE = "word-average"
HASH_FALLBACK = "hash-fallback"

DEFAULT_DIM = 300

# Token rows gathered per averaging step: bounds the k x d blocks held at
# once to GATHER_ROWS * d floats, whatever the corpus size. 1024 to 4096
# rows average 45k 50-d sentences equally fast, so the smallest is kept.
GATHER_ROWS = 1024


class EmbeddingError(DataError):
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
        if self.seed < 0:
            raise EmbeddingError("seed must be a non-negative integer")
        if self.provider not in (PRECOMPUTED_SENTENCE, WORD_AVERAGE, HASH_FALLBACK):
            raise EmbeddingError(f"unknown provider {self.provider!r}")


def _parse_vector_file(path, first_field_name: str, sep: str | None):
    """(key -> vector, dim): each line's components are parsed into one flat
    buffer, and every vector is a row of the one n x dim matrix over it."""
    rows: dict[str, int] = {}
    flat = array("d")
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
            if key in rows:
                raise EmbeddingError(
                    f"{path}: line {line_no}: duplicate {first_field_name} {key!r}"
                )
            try:
                vec = array("d", map(float, values))
            except ValueError as exc:
                raise EmbeddingError(f"{path}: line {line_no}: {exc}") from exc
            # finite components can still sum to inf, so only a non-finite
            # sum is checked item by item
            if not math.isfinite(sum(vec)) and not all(map(math.isfinite, vec)):
                raise EmbeddingError(f"{path}: line {line_no}: non-finite vector component")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise EmbeddingError(
                    f"{path}: line {line_no}: dimension {len(vec)} != {dim}"
                )
            rows[key] = len(rows)
            flat += vec
    if dim is None:
        raise EmbeddingError(f"{path}: empty file, dimension undeterminable")
    return dict(zip(rows, np.frombuffer(flat).reshape(-1, dim))), dim


def load_embeddings(path) -> EmbeddingStore:
    """Word-vector text format: `term v1 v2 ... vd`, one record per line."""
    vectors, dim = _parse_vector_file(path, "term", sep=None)
    return EmbeddingStore(dim=dim, vectors=vectors, provider=WORD_AVERAGE)


def load_sentence_embeddings(path) -> EmbeddingStore:
    """Sentence-vector format: `sentence_id<TAB>v1 v2 ... vd`."""
    vectors, dim = _parse_vector_file(path, "sentence_id", sep="\t")
    return EmbeddingStore(dim=dim, vectors=vectors, provider=PRECOMPUTED_SENTENCE)


def hash_fallback_store(dim: int = DEFAULT_DIM, seed: int = 0) -> EmbeddingStore:
    """Deterministic per-token pseudo-random unit vectors; no data needed.
    The store's `vectors` start empty and keep each token's vector once it
    is first embedded, so a token costs one hash per store however many
    `embed_matrix` calls see it."""
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


def _token_table(distinct: set[str], store: EmbeddingStore):
    """(token -> row, table) over the known tokens of `distinct`, rows in
    sorted token order, so that sorting a sentence's rows sorts its tokens.
    Only these tokens are copied, never the whole store."""
    if store.provider == HASH_FALLBACK:
        for token in distinct.difference(store.vectors):
            store.vectors[token] = _hash_vector(token, store.dim, store.seed)
    vocab = sorted(t for t in distinct if t in store.vectors)
    table = np.empty((len(vocab), store.dim))
    for row, token in enumerate(vocab):
        table[row] = store.vectors[token]
    return {t: row for row, t in enumerate(vocab)}, table


def _sorted_rows(token_lists: Sequence[Sequence[str]], index: dict[str, int]):
    """(rows, counts): each list's known-token table rows in sorted order,
    the lists one after another, and the number of rows of each list."""
    n = len(token_lists)
    lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=n)
    unknown = len(index)
    rows = np.fromiter(map(index.get, chain.from_iterable(token_lists), repeat(unknown)),
                       dtype=np.intp, count=int(lengths.sum()))
    sentence = np.repeat(np.arange(n), lengths)
    known = rows < unknown
    sentence, rows = sentence[known], rows[known]
    # the sentence ids are already ascending, so one sort of these keys
    # orders the rows within each sentence and leaves `sentence` valid
    keys = sentence * (unknown + 1) + rows
    keys.sort()
    return keys - sentence * (unknown + 1), np.bincount(sentence, minlength=n)


def _averages(token_lists: Sequence[Sequence[str]], store: EmbeddingStore) -> np.ndarray:
    """One row per token list: the mean of its known token vectors, summed
    in sorted token order; the zero row when no token is known."""
    index, table = _token_table(set(chain.from_iterable(token_lists)), store)
    rows, counts = _sorted_rows(token_lists, index)
    out = np.zeros((len(token_lists), store.dim))
    for chunk, index in _rows_by_count(counts):
        out[chunk] = np.mean(table[rows[index]], axis=1)
    return out


def _rows_by_count(counts: np.ndarray):
    """Chunks (items, index) of the items with k > 0 rows each, grouped by k,
    at most `GATHER_ROWS` rows a chunk: `items` are m item positions in
    ascending order and `index` is the m x k index of their rows in the
    concatenation of all items' rows."""
    starts = np.cumsum(counts) - counts
    # the counts that occur, without np.unique: its first call imports
    # numpy.ma, about 1 MB and 10-15 ms
    ks = np.flatnonzero(np.bincount(counts))
    for k in ks[ks > 0].tolist():
        members = np.flatnonzero(counts == k)
        offsets = np.arange(k)
        step = max(1, GATHER_ROWS // k)
        for lo in range(0, len(members), step):
            chunk = members[lo:lo + step]
            yield chunk, starts[chunk, None] + offsets


def sentence_key(doc_id: str, index: int) -> str:
    """Key convention for precomputed sentence vectors."""
    return f"{doc_id}:{index}"


def embed_matrix(docs: Sequence[Document], store: EmbeddingStore) -> np.ndarray:
    """One embedding row per sentence of `docs`, in corpus order.

    precomputed-sentence rows are looked up by `sentence_key`; the averaging
    providers tokenize a sentence that carries no tokens, and a sentence
    that tokenizes to nothing gets the zero vector rather than failing the
    whole corpus.
    """
    if store.provider == PRECOMPUTED_SENTENCE:
        keys = [sentence_key(doc.id, idx) for doc in docs for idx in range(len(doc.sentences))]
        out = np.empty((len(keys), store.dim))
        for row, key in enumerate(keys):
            out[row] = _precomputed_vector(store, key)
        return out
    return _averages([
        tokens or preprocess.tokenize(text)
        for doc in docs for text, tokens in zip(doc.sentences.texts, doc.sentences.tokens)
    ], store)
