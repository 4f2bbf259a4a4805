import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milsent import embed
from milsent.mil import to_mil_dataset
from milsent.preprocess import tokenize
from milsent.embed import (
    EmbeddingError,
    EmbeddingStore,
    embed_matrix,
    hash_fallback_store,
    load_embeddings,
    load_sentence_embeddings,
    sentence_key,
)
from conftest import make_doc, make_sentence
from reference import naive_embed_matrix


class TestLoadEmbeddings:
    def test_two_records_dim_three(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("profit 1 0 0\nloss 0 1 0\n")
        store = load_embeddings(path)
        assert len(store.vectors) == 2
        assert store.dim == 3
        np.testing.assert_array_equal(store.vectors["loss"], [0.0, 1.0, 0.0])

    def test_inconsistent_dimension_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 2 3\nb 1 2 3 4\n")
        with pytest.raises(EmbeddingError, match="line 2"):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("")
        with pytest.raises(EmbeddingError, match="dimension undeterminable"):
            load_embeddings(path)

    def test_malformed_component_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 2\nb 1 oops\n")
        with pytest.raises(EmbeddingError, match="line 2"):
            load_embeddings(path)

    def test_duplicate_term_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0 1\na 5 5\n")
        with pytest.raises(EmbeddingError, match=r"vec.txt: line 3: duplicate term 'a'"):
            load_embeddings(path)

    def test_duplicate_sentence_key_names_line(self, tmp_path):
        path = tmp_path / "sent.tsv"
        path.write_text("d1:0\t1 0\nd1:1\t0 1\nd1:0\t5 5\n")
        with pytest.raises(EmbeddingError,
                           match=r"sent.tsv: line 3: duplicate sentence_id 'd1:0'"):
            load_sentence_embeddings(path)

    def test_sentence_format_tab_separated(self, tmp_path):
        path = tmp_path / "sent.tsv"
        path.write_text("d1:0\t0.5 0.5\nd1:1\t1 0\n")
        store = load_sentence_embeddings(path)
        assert store.dim == 2
        np.testing.assert_array_equal(store.vectors["d1:0"], [0.5, 0.5])

    def test_vectors_are_rows_of_one_matrix(self, tmp_path):
        path = tmp_path / "sent.tsv"
        path.write_text("d1:0\t1 2\nd1:1\t3 4\n\nd2:0\t5 6\n")
        vectors = list(load_sentence_embeddings(path).vectors.values())
        start = vectors[0].__array_interface__["data"][0]
        for row, vector in enumerate(vectors):
            assert vector.flags.c_contiguous
            assert vector.__array_interface__["data"][0] == start + row * 2 * vector.itemsize
        np.testing.assert_array_equal(vectors, [[1, 2], [3, 4], [5, 6]])

    def test_finite_components_summing_past_the_float_range_load(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 2\nbig 1e308 1e308\nsmall -1e308 -1e308\n")
        store = load_embeddings(path)
        np.testing.assert_array_equal(store.vectors["big"], [1e308, 1e308])
        np.testing.assert_array_equal(store.vectors["small"], [-1e308, -1e308])

    def test_errors_are_reported_in_line_order(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 2\nb 1 inf\na 3 4\n")
        with pytest.raises(EmbeddingError, match=r"line 2: non-finite vector component"):
            load_embeddings(path)
        path.write_text("a 1 2\na 1 nan\n")
        with pytest.raises(EmbeddingError, match=r"line 2: duplicate term 'a'"):
            load_embeddings(path)


VECTOR_FIELDS = st.sampled_from(
    ["a", "d1:0", "1", "-2.5", "0", "-0", "1e-400", "1_0", "0x10", "nan", "inf", "1e999",
     "x", "é", "\x00", "\x85", "\u2028", "\r", "\x0c", ""])
VECTOR_LINES = st.lists(
    st.lists(st.tuples(VECTOR_FIELDS, st.sampled_from([" ", "\t", "  ", ""])), max_size=5)
    .map(lambda fields: "".join(text + sep for text, sep in fields)),
    max_size=5)


class TestReaderFuzz:
    """Any vector file loads into a consistent store or raises an
    EmbeddingError that names the file and the line."""

    @settings(max_examples=400, deadline=None)
    @given(lines=VECTOR_LINES, tail=st.sampled_from([b"", b"\n", b"\xff", b"\xc3"]),
           loader=st.sampled_from([load_embeddings, load_sentence_embeddings]))
    def test_loads_or_names_the_line(self, tmp_path_factory, lines, tail, loader):
        path = tmp_path_factory.mktemp("vectors") / "v.txt"
        path.write_bytes("\n".join(lines).encode("utf-8") + tail)
        try:
            store = loader(path)
        except EmbeddingError as exc:
            assert re.match(re.escape(f"{path}: ") + r"(line \d+: .|empty file)", str(exc)), exc
            return
        assert store.dim > 0 and len(store.vectors) > 0
        for vector in store.vectors.values():
            assert vector.shape == (store.dim,) and np.all(np.isfinite(vector))


def word_store():
    return EmbeddingStore(
        dim=2,
        vectors={"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])},
        provider="word-average",
    )


def embed_one(tokens, store, doc_id="d1"):
    """The `embed_matrix` row of a document with one sentence of `tokens`."""
    doc = make_doc(doc_id, sentences=(make_sentence(" ".join(tokens), tokens=tokens),))
    (row,) = embed_matrix([doc], store)
    return row


class TestEmbedSentence:
    """`embed_matrix` on a one-sentence document."""

    def test_mean_of_two_vectors(self):
        np.testing.assert_allclose(embed_one(["a", "b"], word_store()), [0.5, 0.5])

    def test_single_token_identity(self):
        np.testing.assert_array_equal(embed_one(["a"], word_store()), [1.0, 0.0])

    def test_all_oov_gives_zero_vector(self):
        np.testing.assert_array_equal(embed_one(["x", "y"], word_store()), [0.0, 0.0])

    def test_empty_tokens_give_zero_vector(self):
        np.testing.assert_array_equal(embed_one([], word_store()), [0.0, 0.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        store = hash_fallback_store(dim=8, seed=1)
        tokens = ["profit", "fell", "after", "warning"]
        base = embed_one(tokens, store)
        for _ in range(5):
            shuffled = list(tokens)
            rng.shuffle(shuffled)
            np.testing.assert_array_equal(embed_one(shuffled, store), base)

    def test_mean_norm_bounded_by_max_input_norm(self):
        store = word_store()
        vec = embed_one(["a", "b", "a"], store)
        max_norm = max(np.linalg.norm(v) for v in store.vectors.values())
        assert np.linalg.norm(vec) <= max_norm + 1e-12

    def test_precomputed_requires_key(self):
        store = EmbeddingStore(
            dim=2, vectors={"d1:0": np.array([1.0, 2.0])}, provider="precomputed-sentence"
        )
        np.testing.assert_array_equal(embed_one(["any"], store), [1.0, 2.0])
        with pytest.raises(EmbeddingError, match="no precomputed vector for sentence key 'd9:0'"):
            embed_one(["any"], store, doc_id="d9")


class TestHashFallback:
    def test_default_dimension_is_300(self):
        assert hash_fallback_store().dim == 300

    def test_reproducible_across_stores(self):
        a = embed_one(["profit"], hash_fallback_store(dim=16, seed=7))
        b = embed_one(["profit"], hash_fallback_store(dim=16, seed=7))
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_vectors(self):
        a = embed_one(["profit"], hash_fallback_store(dim=16, seed=7))
        b = embed_one(["profit"], hash_fallback_store(dim=16, seed=8))
        assert not np.array_equal(a, b)

    def test_tokens_get_distinct_unit_vectors(self):
        store = hash_fallback_store(dim=16, seed=0)
        a = embed_one(["profit"], store)
        b = embed_one(["loss"], store)
        assert not np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_frozen_value_pinned(self):
        # regression pin: flags any change to the token-hash derivation
        vec = embed_one(["profit"], hash_fallback_store(dim=4, seed=0))
        np.testing.assert_allclose(
            vec,
            [0.44645280482297517, 0.05751240964959687,
             -0.8927977453979036, 0.016864211052269738],
            atol=1e-15,
        )


class TestEmbedCorpus:
    """`embed_matrix` over a whole corpus: one row per sentence."""

    def test_attaches_embeddings_everywhere(self):
        docs = [
            make_doc("d1", label=1, sentences=(
                make_sentence("a b", tokens=("a", "b")),
                make_sentence("b", tokens=("b",)),
            )),
        ]
        dataset = to_mil_dataset(docs, embed_matrix(docs, word_store()))
        assert dataset.n_instances == 2
        np.testing.assert_allclose(dataset.groups[0][0][0], [0.5, 0.5])

    def test_tokenizes_when_tokens_missing(self):
        docs = [make_doc("d1", sentences=(make_sentence("a b"),))]
        np.testing.assert_allclose(embed_matrix(docs, word_store()), [[0.5, 0.5]])

    def test_empty_sentence_gets_zero_vector(self):
        docs = [make_doc("d1", sentences=(make_sentence("..."),))]
        np.testing.assert_array_equal(embed_matrix(docs, word_store()), [[0.0, 0.0]])

    def test_precomputed_lookup_by_doc_and_index(self):
        store = EmbeddingStore(
            dim=2,
            vectors={sentence_key("d1", 0): np.array([3.0, 4.0])},
            provider="precomputed-sentence",
        )
        docs = [make_doc("d1", sentences=(make_sentence("anything"),))]
        np.testing.assert_array_equal(embed_matrix(docs, store), [[3.0, 4.0]])
        with pytest.raises(EmbeddingError, match="d1:1"):
            embed_matrix([make_doc("d1", sentences=(make_sentence("x"), make_sentence("y")))], store)


class TestHashTable:
    def _docs(self):
        return [
            make_doc("d1", sentences=(
                make_sentence("profit rose profit", tokens=("profit", "rose", "profit")),
                make_sentence("...", tokens=()),  # nothing to tokenize
            )),
            make_doc("d2", sentences=(
                make_sentence("Loss rose after the warning."),  # tokenized here
                make_sentence("rose", tokens=("rose",)),
            )),
        ]

    def test_one_hash_per_distinct_token_per_call(self, monkeypatch):
        calls = []
        real = embed._hash_vector

        def counting(token, dim, seed):
            calls.append(token)
            return real(token, dim, seed)

        monkeypatch.setattr(embed, "_hash_vector", counting)
        docs = self._docs()
        distinct = {t for d in docs for s in d.sentences
                    for t in s.tokens or tokenize(s.text)}
        for _ in range(2):
            calls.clear()
            embed_matrix(docs, hash_fallback_store(dim=8, seed=3))
            assert sorted(calls) == sorted(distinct)

    def test_a_store_hashes_each_token_once(self, monkeypatch):
        """`predict` embeds a corpus in chunks with one store: a token seen in
        an earlier chunk is not hashed again, and the rows do not change."""
        calls = []
        real = embed._hash_vector
        monkeypatch.setattr(embed, "_hash_vector",
                            lambda token, dim, seed: calls.append(token) or real(token, dim, seed))
        docs = self._docs()
        whole = embed_matrix(docs, hash_fallback_store(dim=8, seed=3))
        calls.clear()
        store = hash_fallback_store(dim=8, seed=3)
        parts = [embed_matrix(docs[i:i + 1], store) for i in range(len(docs))]
        assert np.array_equal(np.concatenate(parts), whole)
        assert sorted(calls) == sorted(set(calls))
        assert set(store.vectors) == set(calls)

    def test_corpus_equals_per_sentence_vectors(self):
        store = hash_fallback_store(dim=8, seed=3)
        docs = self._docs()
        X = embed_matrix(docs, store)
        sentences = [s for doc in docs for s in doc.sentences]
        assert len(X) == len(sentences)
        for sentence, got in zip(sentences, X):
            tokens = sentence.tokens or tokenize(sentence.text)
            if tokens:
                assert np.array_equal(got, embed_one(tokens, store))
                # the mean of one hash vector per occurrence, in sorted order
                occurrences = [embed._hash_vector(t, 8, 3) for t in sorted(tokens)]
                assert np.array_equal(got, np.mean(occurrences, axis=0))

    def test_token_less_sentence_gets_zero_vector(self):
        X = embed_matrix(self._docs(), hash_fallback_store(dim=8, seed=3))
        assert np.array_equal(X[1], np.zeros(8))


VOCAB = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]
OOV = ["x", "y"]


def _random_word_store(dim: int, seed: int) -> EmbeddingStore:
    # magnitudes spread over six decades, so a changed summation order shows
    rng = np.random.default_rng(seed)
    return EmbeddingStore(
        dim=dim,
        vectors={w: rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3) for w in VOCAB},
        provider=embed.WORD_AVERAGE,
    )


def _corpus(doc_sentences, tokenized):
    """Documents of token lists; an untokenized sentence carries only its text."""
    return [
        make_doc(f"d{i}", sentences=[
            make_sentence(" ".join(toks), tokens=toks if keep else ())
            for toks, keep in zip(sentences, tokenized)
        ])
        for i, sentences in enumerate(doc_sentences)
    ]


def _assert_matches_oracle(docs, store):
    got, want = embed_matrix(docs, store), naive_embed_matrix(docs, store)
    assert got.shape == want.shape == (sum(len(d.sentences) for d in docs), store.dim)
    assert np.array_equal(got, want)


class TestEmbedMatrixOracle:
    """The batched averaging equals averaging each sentence alone, bit for
    bit: same tokens, same sorted order, same numpy reduction."""

    @settings(max_examples=150, deadline=None)
    @given(
        # up to 20 tokens: k below and above numpy's 8-way unrolled sums,
        # with repeats, all-OOV and empty sentences
        doc_sentences=st.lists(
            st.lists(st.lists(st.sampled_from(VOCAB + OOV), max_size=20), max_size=5),
            max_size=5),
        tokenized=st.lists(st.booleans(), min_size=5, max_size=5),
        hashed=st.booleans(),
        dim=st.sampled_from([1, 2, 3, 9, 50]),
        seed=st.integers(0, 2**16),
        # a small chunk splits one k-group over many gathers
        gather_rows=st.sampled_from([1, 3, 16, embed.GATHER_ROWS]),
    )
    def test_equals_per_sentence_average(self, doc_sentences, tokenized, hashed, dim,
                                         seed, gather_rows):
        store = hash_fallback_store(dim, seed) if hashed else _random_word_store(dim, seed)
        with mock.patch.object(embed, "GATHER_ROWS", gather_rows):
            _assert_matches_oracle(_corpus(doc_sentences, tokenized), store)

    def test_group_larger_than_the_gather_constant(self):
        rng = np.random.default_rng(2)
        sentences = [[VOCAB[j]] for j in rng.integers(len(VOCAB), size=embed.GATHER_ROWS + 5)]
        sentences += [list(rng.choice(VOCAB + OOV, size=9)) for _ in range(40)]
        docs = _corpus([sentences[i:i + 7] for i in range(0, len(sentences), 7)], [True] * 7)
        for store in (_random_word_store(3, 1), hash_fallback_store(3, 1)):
            _assert_matches_oracle(docs, store)

    def test_precomputed_rows_in_corpus_order(self):
        store = EmbeddingStore(
            dim=2, provider=embed.PRECOMPUTED_SENTENCE,
            vectors={"d1:0": np.array([1.0, 2.0]), "d2:0": np.array([3.0, 4.0]),
                     "d2:1": np.array([5.0, 6.0])},
        )
        docs = [make_doc("d1", sentences=(make_sentence("p"),)), make_doc("d0"),
                make_doc("d2", sentences=(make_sentence("q"), make_sentence("r")))]
        np.testing.assert_array_equal(embed_matrix(docs, store), [[1, 2], [3, 4], [5, 6]])
        _assert_matches_oracle(docs, store)

    def test_empty_corpus(self):
        assert embed_matrix([], word_store()).shape == (0, 2)
        assert embed_matrix([make_doc("d1")], hash_fallback_store(dim=4)).shape == (0, 4)


def _traced_peak(fn, *args) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEmbedMatrixMemory:
    def test_peak_below_twice_the_output(self):
        # an unchunked gather would hold all 20k x 9 token vectors at once,
        # nine times the output
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(500)]
        store = EmbeddingStore(dim=64, vectors={w: rng.standard_normal(64) for w in words},
                               provider=embed.WORD_AVERAGE)
        picks = rng.integers(len(words), size=(2000, 10, 9)).tolist()
        docs = [make_doc(f"d{i}", sentences=[
                    make_sentence("s", tokens=[words[j] for j in sentence]) for sentence in doc])
                for i, doc in enumerate(picks)]
        X, peak = _traced_peak(embed_matrix, docs, store)
        assert X.shape == (20000, 64)
        assert peak < 2 * X.nbytes

    def test_peak_independent_of_store_size(self):
        # 50k vectors, 10 of them used: the table holds only the used ones
        rng = np.random.default_rng(6)
        store = EmbeddingStore(dim=32, provider=embed.WORD_AVERAGE,
                               vectors={f"w{i}": rng.standard_normal(32) for i in range(50_000)})
        store_bytes = 50_000 * 32 * 8
        docs = [make_doc(f"d{i}", sentences=[make_sentence("s", tokens=[f"w{i}", f"w{i + 1}"])])
                for i in range(9)]
        X, peak = _traced_peak(embed_matrix, docs, store)
        assert X.shape == (9, 32)
        assert peak < store_bytes / 100


def test_loading_holds_the_vectors_once(tmp_path):
    # 1 000 x 200 components, 1.6 MB as floats: a Python float per component
    # would hold 4 x that, and a second copy of the matrix 2 x
    n, d = 1000, 200
    rows = np.random.default_rng(7).standard_normal((n, d)).tolist()
    path = tmp_path / "vec.txt"
    path.write_text("".join(f"w{i} " + " ".join(map(repr, row)) + "\n"
                            for i, row in enumerate(rows)))
    store, peak = _traced_peak(load_embeddings, path)
    assert len(store.vectors) == n and store.dim == d
    assert peak < 1.5 * n * d * 8
