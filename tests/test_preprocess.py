import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milsent import preprocess
from milsent.preprocess import (
    DATE,
    NUM_POS,
    PreprocessConfig,
    SPECIAL_TOKENS,
    UNK,
    URL,
    apply_vocabulary,
    build_vocabulary,
    clean_text,
    filter_corpus,
    split_sentences,
    tokenize,
)
from conftest import make_doc, make_sentence
from reference import interpolated_quantile

CFG = PreprocessConfig()


class TestCleanText:
    def test_positive_number(self):
        # hand application of the rules: lowercase, number -> <num_pos>
        assert clean_text("Profit rose 12.5%", CFG) == "profit rose <num_pos>%"

    def test_empty(self):
        assert clean_text("", CFG) == ""

    def test_negative_number_and_date(self):
        assert (
            clean_text("Loss of -3.2 EUR on 12 May 2005", CFG)
            == "loss of <num_neg> eur on <date>"
        )

    def test_url_replacement(self):
        out = clean_text("see https://example.com/a?b=1 now", CFG)
        assert out == f"see {URL} now"

    def test_cutoff_truncates_at_first_match(self):
        out = clean_text("Good news. Contact: someone@example.com", CFG)
        assert out == "good news."

    def test_cutoff_is_case_insensitive(self):
        assert clean_text("x CONTACT: y", CFG) == clean_text("x contact: y", CFG) == "x"

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError, match="invalid pattern"):
            PreprocessConfig(cutoff_patterns=("[unclosed",))

    def test_iso_and_numeric_dates(self):
        assert clean_text("on 2005-05-12 and 12.05.2005", CFG) == f"on {DATE} and {DATE}"

    def test_digits_inside_words_survive(self):
        assert clean_text("results for q1", CFG) == "results for q1"

    @settings(max_examples=200)
    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = clean_text(text, CFG)
        assert clean_text(once, CFG) == once


class TestSplitSentences:
    def test_basic_split(self):
        assert split_sentences("a b. c d.") == ["a b.", "c d."]

    def test_abbreviations_do_not_split(self):
        assert split_sentences("approx. 5 mio. euros were lost.") == [
            "approx. 5 mio. euros were lost."
        ]

    def test_empty(self):
        assert split_sentences("") == []

    def test_question_and_exclamation(self):
        assert split_sentences("really? yes! fine.") == ["really?", "yes!", "fine."]

    def test_tail_without_terminal_punctuation(self):
        assert split_sentences("first one. trailing fragment") == [
            "first one.", "trailing fragment",
        ]

    @settings(max_examples=150)
    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Zs"), whitelist_characters=".!?"), max_size=120))
    def test_never_returns_empty_sentences(self, text):
        for sentence in split_sentences(text):
            assert sentence.strip()

    def test_concatenation_covers_non_whitespace(self):
        text = "one two. three four! five"
        joined = "".join(split_sentences(text))
        assert joined.replace(" ", "") == text.replace(" ", "")


class TestTokenize:
    def test_special_token_kept_punctuation_dropped(self):
        assert tokenize("profit rose <num_pos>%") == ["profit", "rose", NUM_POS]

    def test_lone_special_token(self):
        assert tokenize("<date>") == [DATE]

    def test_whitespace_only(self):
        assert tokenize("   ") == []

    def test_apostrophes_kept_inside_words(self):
        assert tokenize("the company's profit") == ["the", "company's", "profit"]


class TestVocabulary:
    def test_count_at_min_count_retained(self):
        vocab = build_vocabulary([["hold"] * 5], min_count=5)
        assert "hold" in vocab

    def test_count_below_min_count_excluded(self):
        vocab = build_vocabulary([["rare"] * 4], min_count=5)
        assert "rare" not in vocab

    def test_empty_corpus_keeps_special_tokens(self):
        vocab = build_vocabulary([], min_count=5)
        assert set(vocab) == set(SPECIAL_TOKENS)

    def test_min_count_validation(self):
        with pytest.raises(ValueError):
            build_vocabulary([], min_count=0)

    def test_apply_replaces_oov(self):
        vocab = frozenset({"profit"})
        assert apply_vocabulary(["rare", "profit"], vocab) == [UNK, "profit"]

    def test_apply_identity_when_all_known(self):
        vocab = frozenset({"a", "b"})
        assert apply_vocabulary(["a", "b"], vocab) == ["a", "b"]

    def test_apply_empty(self):
        assert apply_vocabulary([], frozenset()) == []

    @given(st.lists(st.sampled_from(["profit", "loss", "rare", "q1"]), max_size=40))
    def test_apply_preserves_length(self, tokens):
        vocab = frozenset({"profit", "loss"})
        assert len(apply_vocabulary(tokens, vocab)) == len(tokens)


def _doc_with_sentences(doc_id, n_sentences, words_per_sentence=12):
    sentences = tuple(
        make_sentence("w " * words_per_sentence, tokens=("w",) * words_per_sentence)
        for _ in range(n_sentences)
    )
    return make_doc(doc_id, sentences=sentences)


class TestFilterCorpus:
    def test_percentile_trim_on_uniform_counts(self):
        docs = [_doc_with_sentences(f"d{i}", i) for i in range(1, 101)]
        kept = filter_corpus(docs, PreprocessConfig(min_doc_words=1))
        counts = [len(d.sentences) for d in kept]
        # independent quantile computation on the known distribution 1..100
        lo = interpolated_quantile(range(1, 101), 0.01)
        hi = interpolated_quantile(range(1, 101), 0.99)
        assert min(counts) == 2 and max(counts) == 99
        assert all(lo <= c <= hi for c in counts)

    def test_boundary_counts_kept_inclusively(self):
        # quantiles of 1..100 at 1% are 1.99 / 99.01: only 1 and 100 fall outside
        docs = [_doc_with_sentences(f"d{i}", i) for i in range(1, 101)]
        kept = filter_corpus(docs, PreprocessConfig(min_doc_words=1))
        assert len(kept) == 98

    def test_short_document_removed(self):
        short = _doc_with_sentences("short", 1, words_per_sentence=10)
        long = _doc_with_sentences("long", 1, words_per_sentence=60)
        kept = filter_corpus([short, long], PreprocessConfig(min_doc_words=50))
        assert [d.id for d in kept] == ["long"]

    def test_empty_corpus(self):
        assert filter_corpus([], CFG) == []

    def test_output_is_subsequence(self):
        docs = [_doc_with_sentences(f"d{i}", (i * 7) % 13 + 1) for i in range(40)]
        kept = filter_corpus(docs, PreprocessConfig(min_doc_words=1, length_percentile=0.05))
        ids = [d.id for d in docs]
        kept_ids = [d.id for d in kept]
        assert kept_ids == [i for i in ids if i in set(kept_ids)]

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.integers(0, 400) | st.floats(-1e300, 1e300), min_size=1,
                           max_size=60),
           q=st.sampled_from([0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0])
           | st.floats(0.0, 1.0))
    def test_quantile_is_numpy_quantile_to_the_bit(self, values, q):
        expected = np.quantile(np.array(values, dtype=float), q)
        assert preprocess._quantile(sorted(values), q) == expected

    def test_kept_documents_match_a_numpy_quantile_trim(self):
        counts = [(i * 37) % 200 + 1 for i in range(200)]  # 1..200, shuffled
        docs = [_doc_with_sentences(f"d{i}", n, words_per_sentence=1)
                for i, n in enumerate(counts)]
        config = PreprocessConfig(min_doc_words=1, length_percentile=0.03)
        lo, hi = np.quantile(np.array(counts, dtype=float), [0.03, 0.97])
        kept = filter_corpus(docs, config)
        assert [d.id for d in kept] == [d.id for d, n in zip(docs, counts) if lo <= n <= hi]
        assert 0 < len(kept) < len(docs)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            PreprocessConfig(length_percentile=0.5)
        with pytest.raises(ValueError):
            PreprocessConfig(length_percentile=0.0)
