import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from milsent import corpus
from milsent.corpus import (
    CorpusError,
    Document,
    SentenceInstance,
    Sentences,
    load_corpus,
    save_corpus,
    with_predictions,
)
from milsent.embed import embed_matrix, hash_fallback_store
from milsent.mil import to_mil_dataset
from conftest import make_doc, make_sentence, write_jsonl


class TestLoadCorpus:
    def test_two_records_in_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "a", "ticker": "X", "published_at": "2005-05-12", "text": "first"},
            {"id": "b", "ticker": "Y", "published_at": "2005-05-13", "text": "second",
             "sentences": ["s one.", "s two."]},
        ])
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].published_at == date(2005, 5, 12)
        assert [s.text for s in docs[1].sentences] == ["s one.", "s two."]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_missing_id_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "a", "ticker": "X", "published_at": "2005-05-12", "text": "ok"},
            {"ticker": "Y", "published_at": "2005-05-13", "text": "broken"},
        ])
        with pytest.raises(CorpusError, match="line 2.*id"):
            load_corpus(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "a", "ticker": "X", "published_at": "2005-05-12", "text": "x"},
            {"id": "a", "ticker": "X", "published_at": "2005-05-13", "text": "y"},
        ])
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "ticker": "X", "published_at": "2005-05-12", "text": "x"}\n{oops\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_corpus(tmp_path / "missing.jsonl")


class TestAtomicSave:
    def test_failure_mid_corpus_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        docs = [make_doc(f"d{i}") for i in range(4)]
        save_corpus(docs[:1], path)
        before = path.read_bytes()
        real_record_of = corpus._record_of

        def fail_on_d2(doc):
            if doc.id == "d2":
                raise OSError("No space left on device")
            return real_record_of(doc)

        monkeypatch.setattr(corpus, "_record_of", fail_on_d2)
        with pytest.raises(OSError, match="No space left"):
            save_corpus(docs, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]

    def test_replaces_the_old_file_whole(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_doc("old")], path)
        save_corpus([make_doc("new1"), make_doc("new2")], path)
        assert [d.id for d in load_corpus(path)] == ["new1", "new2"]
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]

    def test_special_file_written_in_place(self):
        save_corpus([make_doc("d1")], Path(os.devnull))


class TestRoundTrip:
    def test_all_fields_bit_exact(self, tmp_path):
        sentences = (
            make_sentence("profit rose.", tokens=("profit", "rose"), label=1, score=0.875),
            make_sentence("a loss.", tokens=("a", "loss"), label=0, score=0.12345678901234567),
            make_sentence("plain."),
        )
        docs = [
            make_doc("d1", "AAA", date(2005, 5, 12), "Profit rose. A loss. Plain.",
                     sentences=sentences, label=0, abnormal_return=-0.046),
            make_doc("d2", "BBB", date(2007, 1, 2), "Nothing else."),
        ]
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        loaded = load_corpus(path)
        assert len(loaded) == 2
        for original, redone in zip(docs, loaded):
            assert original.id == redone.id
            assert original.ticker == redone.ticker
            assert original.published_at == redone.published_at
            assert original.raw_text == redone.raw_text
            assert original.label == redone.label
            assert original.abnormal_return == redone.abnormal_return
            assert len(original.sentences) == len(redone.sentences)
            for s1, s2 in zip(original.sentences, redone.sentences):
                assert s1.text == s2.text
                assert s1.tokens == s2.tokens
                assert s1.predicted_label == s2.predicted_label
                assert s1.score == s2.score

    def test_integer_beyond_float_range_loads_and_round_trips(self, tmp_path):
        # any JSON integer is finite: `abs(v) < inf` holds where math.isfinite
        # raises OverflowError
        huge = 10**400
        path, first, second = (tmp_path / name for name in ("c.jsonl", "a.jsonl", "b.jsonl"))
        write_jsonl(path, [{**VALID_RECORD, "abnormal_return": huge,
                            "sentence_scores": [huge, 0.25, None]}])
        (doc,) = load_corpus(path)
        assert doc.abnormal_return == huge and doc.sentences.scores[0] == huge
        save_corpus([doc], first)
        save_corpus(load_corpus(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert f'"abnormal_return": {huge}' in first.read_text()

    def test_save_load_save_is_stable(self, tmp_path):
        docs = [make_doc("d1", "AAA", date(2005, 5, 12), "text", label=1,
                         abnormal_return=0.0123456789)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(docs, p1)
        save_corpus(load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestInvariants:
    def test_label_must_match_abnormal_return_sign(self):
        with pytest.raises(CorpusError, match="contradicts"):
            make_doc(label=1, abnormal_return=-0.01)
        doc = make_doc(label=0, abnormal_return=-0.046)
        assert doc.label == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_abnormal_return_names_the_document(self, value):
        # caught when the document is built, not halfway through a save
        message = f"document dX: abnormal return {value} is not finite"
        with pytest.raises(CorpusError, match=re.escape(message)):
            make_doc("dX", abnormal_return=value)
        with pytest.raises(CorpusError, match=re.escape(message)):
            replace(make_doc("dX"), abnormal_return=value)

    def test_score_requires_label_and_consistency(self):
        with pytest.raises(CorpusError):
            SentenceInstance(text="x", score=0.7)
        with pytest.raises(CorpusError, match="inconsistent"):
            SentenceInstance(text="x", predicted_label=0, score=0.7)
        ok = SentenceInstance(text="x", predicted_label=1, score=0.5)
        assert ok.predicted_label == 1

    def test_label_without_score_allowed(self):
        gold = SentenceInstance(text="x", predicted_label=1)
        assert gold.score is None


def test_with_predictions_roundtrip():
    doc = make_doc(sentences=(make_sentence("a"), make_sentence("b")))
    predicted = with_predictions(doc, [1, 0], [0.9, 0.1])
    assert [s.predicted_label for s in predicted.sentences] == [1, 0]
    assert [s.score for s in predicted.sentences] == [0.9, 0.1]
    with pytest.raises(CorpusError):
        with_predictions(doc, [1], [0.9])


def test_with_predictions_keeps_fields_and_checks_each_sentence():
    doc = make_doc(sentences=(make_sentence("a b", tokens=("a", "b")),))
    predicted = with_predictions(doc, [0], [0.25])
    (sentence,) = predicted.sentences
    assert (sentence.text, sentence.tokens) == ("a b", ("a", "b"))
    assert (predicted.id, predicted.raw_text) == (doc.id, doc.raw_text)
    with pytest.raises(CorpusError, match="inconsistent"):
        with_predictions(doc, [1], [0.25])


class TestSentenceColumns:
    @pytest.mark.parametrize("label,score,message", [
        (None, 0.7, "score requires a predicted_label"),
        (0, 0.7, "predicted_label 0 inconsistent with score 0.7"),
        (1, 0.25, "predicted_label 1 inconsistent with score 0.25"),
        (2, None, "predicted_label must be 0, 1 or None, got 2"),
        ("pos", None, "predicted_label must be 0, 1 or None, got 'pos'"),
    ])
    def test_column_check_speaks_as_the_sentence_check(self, label, score, message):
        with pytest.raises(CorpusError) as single:
            SentenceInstance(text="x", predicted_label=label, score=score)
        with pytest.raises(CorpusError) as column:
            Sentences(["a", "x"], labels=[1, label], scores=[0.5, score])
        assert str(single.value) == str(column.value) == message

    def test_every_score_is_checked(self):
        with pytest.raises(CorpusError, match="inconsistent with score 0.4"):
            Sentences(["a", "b", "c"], labels=[1, 0, 1], scores=[0.9, 0.1, 0.4])
        with pytest.raises(CorpusError, match="score requires"):
            Sentences(["a", "b"], labels=[1, None], scores=[0.9, 0.1])
        # labels may stand alone, and scores may be ints, even ones too large
        # for a float
        assert Sentences(["a", "b"], labels=[None, 1], scores=[None, 1]).scores == (None, 1)
        assert Sentences(["a"], labels=[1], scores=[10**400]).scores == (10**400,)
        assert Sentences(["a", "b"], labels=[None, 1], scores=[None, 10**400])

    @pytest.mark.parametrize("columns", [
        {"tokens": [()]}, {"labels": [1, 0, 1]}, {"scores": [0.5]},
        {"tokens": [(), (), ()]}, {"labels": []},
    ])
    def test_mismatched_lengths(self, columns):
        with pytest.raises(CorpusError, match="mismatched lengths"):
            Sentences(["a", "b"], **columns)

    @pytest.mark.parametrize("label,score", [
        (0, math.nan), (1, math.nan), (1, math.inf), (0, -math.inf)])
    def test_non_finite_score_rejected(self, label, score):
        # NaN >= 0.5 is false, so a NaN score agrees with label 0 by the
        # label rule alone; it has no JSON form and would fail a later save
        message = f"score {score} is not finite"
        with pytest.raises(CorpusError, match=message):
            SentenceInstance(text="x", predicted_label=label, score=score)
        with pytest.raises(CorpusError, match=message):
            Sentences(["a", "x", "c"], labels=[1, label, 0], scores=[0.75, score, 0.25])
        with pytest.raises(CorpusError, match=message):
            with_predictions(make_doc(sentences=(make_sentence("x"),)), [label], [score])

    def test_columns_cannot_be_reassigned(self):
        sentences = Sentences(["a"])
        with pytest.raises(AttributeError):
            sentences.labels = (1,)
        with pytest.raises(AttributeError):
            del sentences.texts


class TestSentenceViews:
    """`Sentences` is its four columns; iterating it yields `SentenceInstance`
    views for scripts that walk one sentence at a time."""

    def _doc(self):
        return make_doc(sentences=(
            make_sentence("a b.", tokens=("a", "b"), label=1, score=0.75),
            make_sentence("c.", tokens=("c",)),
            make_sentence("d.", label=0),
        ))

    def test_views_read_the_columns(self):
        doc = self._doc()
        assert isinstance(doc.sentences, Sentences) and len(doc.sentences) == 3
        first, second, third = doc.sentences
        assert (first.text, first.tokens, first.predicted_label, first.score) == \
            ("a b.", ("a", "b"), 1, 0.75)
        assert second.tokens == ("c",)
        assert third == SentenceInstance("d.", predicted_label=0)
        assert [s.text for s in doc.sentences] == list(doc.sentences.texts)
        with pytest.raises(TypeError):
            doc.sentences[0]  # no indexing: read a column

    def test_equal_columns_compare_and_hash(self):
        doc = self._doc()
        columns = doc.sentences
        # what indexing, slices and `in` did, on a column
        assert columns.tokens[1] == ("c",) and columns.labels[-1] == 0
        assert columns.texts[1:] == ("c.", "d.") and columns.scores[::-1] == (None, None, 0.75)
        assert "c." in columns.texts and columns.texts.index("d.") == 2
        same = Sentences(list(columns.texts), iter(columns.tokens), columns.labels,
                         list(columns.scores))
        assert same == columns and hash(same) == hash(columns)
        assert same.texts == columns.texts and type(same.tokens) is tuple
        assert Sentences(columns.texts) != columns
        # a tuple of views is not its columns; a `Document` takes it as them
        assert columns != tuple(columns) and replace(doc, sentences=tuple(columns)) == doc
        assert make_doc().sentences == Sentences() and not make_doc().sentences
        assert doc == replace(doc) and hash(doc) == hash(replace(doc))
        assert repr(Sentences(["a."], labels=[1])) == \
            "Sentences(texts=('a.',), tokens=((),), labels=(1,), scores=(None,))"

    def test_replace_on_documents_and_views(self):
        """The three forms `perfbench/stages.py` uses: iterating
        `doc.sentences`, `replace` on a view, and a `Document` built from a
        tuple of views."""
        doc = self._doc()
        relabelled = replace(doc, sentences=tuple(
            replace(s, predicted_label=1, score=None) for s in doc.sentences))
        assert relabelled.sentences.labels == (1, 1, 1)
        assert relabelled.sentences.scores == (None, None, None)
        assert relabelled.sentences.texts == doc.sentences.texts
        assert relabelled.sentences.tokens == doc.sentences.tokens
        with pytest.raises(CorpusError, match="inconsistent"):
            replace(next(iter(doc.sentences)), predicted_label=0)
        # any iterable of sentences
        built = Document("x", "X", date(2005, 1, 3), "t", sentences=iter(doc.sentences))
        assert built.sentences == doc.sentences

    def test_documents_from_columns_compare_and_hash(self):
        columns = {"tokens": [("a",), ()], "labels": [1, 0], "scores": [0.75, 0.25]}
        one, two = (replace(make_doc(), sentences=Sentences(["a.", "b."], **columns))
                    for _ in range(2))
        assert one == two and hash(one) == hash(two)
        other = Sentences(["a.", "b."], **{**columns, "scores": [0.75, 0.0]})
        assert one != replace(one, sentences=other)


class TestNoSentenceObjects:
    """Reading, writing and predicting work on columns: no SentenceInstance
    is built, not even a view."""

    def test_load_save_and_predictions_build_none(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": f"d{i}", "ticker": "X", "published_at": "2005-05-12",
                            "text": "t", "sentences": ["a b.", "c."],
                            "sentence_tokens": [["a", "b"], None],
                            "sentence_labels": ["pos", None], "sentence_scores": [0.5, None]}
                           for i in range(3)])
        built = []
        monkeypatch.setattr(SentenceInstance, "__post_init__", lambda self: built.append(self))
        docs = load_corpus(path)
        predicted = [with_predictions(doc, [1, 0], [0.5, 0.25]) for doc in docs]
        save_corpus(predicted, tmp_path / "out.jsonl")
        X = embed_matrix(docs, hash_fallback_store(dim=3))
        assert to_mil_dataset([replace(d, label=1) for d in docs], X).n_instances == 6
        reloaded = load_corpus(tmp_path / "out.jsonl")
        assert reloaded == predicted and hash(reloaded[2]) == hash(predicted[2])
        assert reloaded[2].sentences.scores[1] == 0.25
        assert built == []
        # the probe sees a view when one is built
        assert [s.score for s in reloaded[2].sentences] == [0.5, 0.25]
        assert len(built) == 2


VALID_RECORD = {
    "id": "d1", "ticker": "X", "published_at": "2005-05-12", "text": "t",
    "sentences": ["a b.", "c.", "d."], "sentence_tokens": [["a", "b"], None, []],
    "sentence_labels": ["pos", "neg", None], "sentence_scores": [0.75, 0.25, None],
    "label": "pos", "abnormal_return": 0.01,
}
FIELDS = sorted(VALID_RECORD)
LIST_FIELDS = ["sentences", "sentence_tokens", "sentence_labels", "sentence_scores"]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from(["pos", "neg", "\ud800", "2005-02-30", "05/12/2005"]),
    st.just(10**400),  # an int no float can hold
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=2)),
             max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
MUTATION = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(FIELDS), JUNK),
    st.tuples(st.just("drop"), st.sampled_from(FIELDS), st.none()),
    st.tuples(st.just("item"), st.sampled_from(LIST_FIELDS), st.tuples(st.integers(0, 2), JUNK)),
    st.tuples(st.just("length"), st.sampled_from(LIST_FIELDS), st.integers(0, 4)),
    # a score without a label, a label that contradicts its score
    st.tuples(st.just("item"), st.just("sentence_labels"),
              st.tuples(st.integers(0, 2), st.sampled_from([None, "pos", "neg"]))),
    st.tuples(st.just("item"), st.just("sentence_scores"),
              st.tuples(st.integers(0, 2), st.sampled_from(
                  [0.5, 0.4999, 1, 0, True, float("nan"), float("inf"), None]))),
)


def _mutated(mutations) -> dict:
    record = copy.deepcopy(VALID_RECORD)
    for kind, key, value in mutations:
        if kind == "set":
            record[key] = value
        elif kind == "drop":
            record.pop(key, None)
        elif kind == "item" and isinstance(record.get(key), list) and record[key]:
            index, item = value
            record[key][index % len(record[key])] = item
        elif kind == "length" and isinstance(record.get(key), list):
            record[key] = (record[key] * 2)[:value]
    return record


def _finite_number(value) -> bool:
    # as the reader tests it: math.isfinite raises on an int too large for a float
    return type(value) in (int, float) and abs(value) < math.inf


def _assert_valid(doc: Document) -> None:
    """A loaded document holds only what the corpus format allows."""
    assert all(isinstance(v, str) for v in (doc.id, doc.ticker, doc.raw_text))
    assert doc.label in (0, 1, None)
    assert doc.abnormal_return is None or _finite_number(doc.abnormal_return)
    columns = doc.sentences
    assert all(type(text) is str for text in columns.texts)
    assert all(type(tokens) is tuple and all(type(t) is str for t in tokens)
               for tokens in columns.tokens)
    assert set(columns.labels) <= {0, 1, None}
    assert all(score is None or _finite_number(score) for score in columns.scores)


class TestReaderFuzz:
    """Any record loads and then survives a save and a load unchanged, or
    fails with a CorpusError naming the file and its line."""

    @settings(max_examples=400, deadline=None)
    @given(mutations=st.lists(MUTATION, max_size=3),
           line=st.one_of(st.none(), st.sampled_from(
               ["[1, 2]", "5", "null", '"text"', "{oops", "true", "{}"])))
    def test_loads_and_round_trips_or_names_the_line(self, mutations, line):
        if line is None:
            line = json.dumps(_mutated(mutations))  # NaN and Infinity included
        good = json.dumps({**VALID_RECORD, "id": "d0"})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.jsonl"
            path.write_text(good + "\n" + line + "\n", encoding="utf-8")
            try:
                docs = load_corpus(path)
            except CorpusError as exc:
                assert re.match(re.escape(f"{path}: line 2: ") + ".", str(exc)), str(exc)
                return
            for doc in docs:
                _assert_valid(doc)
            first, second = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            save_corpus(docs, first)
            again = load_corpus(first)
            save_corpus(again, second)
            assert first.read_bytes() == second.read_bytes()
            assert [corpus._record_of(d) for d in again] == [corpus._record_of(d) for d in docs]
            assert [len(d.sentences) for d in again] == [len(d.sentences) for d in docs]

    @pytest.mark.parametrize("fields,message", [
        ({"sentence_scores": [math.nan, 0.25, None]}, "score nan is not finite"),
        ({"sentence_labels": ["pos", "neg"]}, "sentence columns have mismatched lengths"),
        ({"abnormal_return": -math.inf}, "document d1: abnormal return -inf is not finite"),
    ], ids=["nan-score", "mismatched-columns", "infinite-return"])
    def test_value_errors_name_the_line(self, tmp_path, fields, message):
        """The checks that `Sentences` and `Document` make, reported with the
        file and the line like the reader's own."""
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{**VALID_RECORD, "id": "d0"}, {**VALID_RECORD, **fields}])
        with pytest.raises(CorpusError) as caught:
            load_corpus(path)
        assert str(caught.value) == f"{path}: line 2: {message}"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int digit limit")
    def test_integer_too_long_to_read_is_a_line_error(self, tmp_path):
        # json.loads raises a plain ValueError past Python's int digit limit
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(VALID_RECORD).replace("0.01", "1" * 5000) + "\n")
        with pytest.raises(CorpusError, match=r"line 1: malformed record: .*digits"):
            load_corpus(path)

    def test_lone_surrogate_is_a_line_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({**VALID_RECORD, "text": "\ud800"}) + "\n")
        with pytest.raises(CorpusError, match=r"line 1: record holds text that UTF-8 cannot"):
            load_corpus(path)
        # an escaped pair is one character and loads
        path.write_text(json.dumps({**VALID_RECORD, "text": "\U0001F600"}) + "\n")
        assert load_corpus(path)[0].raw_text == "\U0001F600"


def test_logistic_fit_leaves_numpy_ma_unloaded():
    code = ("import sys\n"
            "from milsent.baselines import train_bow_logreg\n"
            "train_bow_logreg([{0: 0.0}, {0: 1.0}], [0, 1], {'a': 0})\n"
            "print('numpy.ma' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"
