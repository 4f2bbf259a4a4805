from datetime import date

import numpy as np
import pytest

from milsent.corpus import (
    CorpusError,
    MilDataset,
    SentenceInstance,
    load_corpus,
    save_corpus,
    to_mil_dataset,
    with_predictions,
)
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


class TestToMilDataset:
    def _embedded_doc(self, doc_id="d1", label=1, n=3, dim=4, fill=0.5):
        sentences = tuple(
            make_sentence(f"s{i}", embedding=np.full(dim, fill + i)) for i in range(n)
        )
        return make_doc(doc_id, label=label, sentences=sentences)

    def test_single_doc_counts(self):
        dataset = to_mil_dataset([self._embedded_doc(label=1, n=3)])
        assert dataset.n_groups == 1
        assert dataset.n_instances == 3
        assert dataset.groups[0][1] == 1
        assert dataset.dim == 4

    def test_sentence_order_preserved(self):
        dataset = to_mil_dataset([self._embedded_doc(n=3)])
        matrix = dataset.groups[0][0]
        assert matrix[0][0] == 0.5 and matrix[1][0] == 1.5 and matrix[2][0] == 2.5

    def test_missing_embedding_names_doc(self):
        doc = make_doc("dX", label=1, sentences=(
            make_sentence("a", embedding=np.zeros(4)), make_sentence("b"),
        ))
        with pytest.raises(CorpusError, match="dX"):
            to_mil_dataset([doc])

    def test_missing_label(self):
        with pytest.raises(CorpusError, match="label"):
            to_mil_dataset([self._embedded_doc(label=None)])

    def test_dimension_mismatch(self):
        docs = [
            self._embedded_doc("d1", dim=3),
            self._embedded_doc("d2", dim=2),
        ]
        with pytest.raises(CorpusError, match="dimension"):
            to_mil_dataset(docs)

    def test_counts_preserved_across_corpus(self):
        rng = np.random.default_rng(5)
        docs = []
        total = 0
        for i in range(7):
            n = int(rng.integers(1, 6))
            total += n
            docs.append(self._embedded_doc(f"d{i}", label=int(rng.integers(0, 2)), n=n))
        dataset = to_mil_dataset(docs)
        assert dataset.n_instances == total
        assert dataset.n_groups == 7

    def test_empty_group_rejected(self):
        with pytest.raises(CorpusError):
            MilDataset(groups=((np.zeros((0, 3)), 1),), dim=3)


def test_with_predictions_roundtrip():
    doc = make_doc(sentences=(make_sentence("a"), make_sentence("b")))
    predicted = with_predictions(doc, [1, 0], [0.9, 0.1])
    assert [s.predicted_label for s in predicted.sentences] == [1, 0]
    assert [s.score for s in predicted.sentences] == [0.9, 0.1]
    with pytest.raises(CorpusError):
        with_predictions(doc, [1], [0.9])


def test_with_predictions_keeps_fields_and_checks_each_sentence():
    doc = make_doc(sentences=(make_sentence("a b", tokens=("a", "b"), embedding=[1.0, 2.0]),))
    predicted = with_predictions(doc, [0], [0.25])
    (sentence,) = predicted.sentences
    assert (sentence.text, sentence.tokens) == ("a b", ("a", "b"))
    np.testing.assert_array_equal(sentence.embedding, [1.0, 2.0])
    assert (predicted.id, predicted.raw_text) == (doc.id, doc.raw_text)
    with pytest.raises(CorpusError, match="inconsistent"):
        with_predictions(doc, [1], [0.25])
