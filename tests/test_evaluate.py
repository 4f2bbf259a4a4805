from datetime import date

import pytest
from hypothesis import given, strategies as st

from milsent.evaluate import (
    format_distribution,
    format_report_table,
    label_distribution,
    report_to_json,
    score_predictions,
    temporal_split,
)
from conftest import make_doc, make_sentence
from reference import confusion_metrics


def dated_docs(n=10, start_day=1):
    return [
        make_doc(f"d{i}", when=date(2005, 1, start_day + i), text=f"doc {i}")
        for i in range(n)
    ]


class TestTemporalSplit:
    def test_eighty_twenty(self):
        docs = dated_docs(10)
        train, test = temporal_split(docs, ratio=0.8)
        assert [d.id for d in train] == [f"d{i}" for i in range(8)]
        assert [d.id for d in test] == ["d8", "d9"]

    def test_ratio_one_empty_test(self):
        train, test = temporal_split(dated_docs(5), ratio=1.0)
        assert len(train) == 5 and test == []

    def test_boundary_tie_broken_by_id(self):
        same_day = [
            make_doc("b", when=date(2005, 1, 2)),
            make_doc("a", when=date(2005, 1, 2)),
            make_doc("c", when=date(2005, 1, 1)),
        ]
        train, test = temporal_split(same_day, ratio=2 / 3)
        assert [d.id for d in train] == ["c", "a"]
        assert [d.id for d in test] == ["b"]

    def test_no_training_doc_newer_than_any_test_doc(self):
        docs = dated_docs(17)
        train, test = temporal_split(docs, ratio=0.6)
        assert max(d.published_at for d in train) <= min(d.published_at for d in test)
        assert sorted(d.id for d in train + test) == sorted(d.id for d in docs)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            temporal_split([], 0.8)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            temporal_split(dated_docs(2), 1.5)


class TestScorePredictions:
    def test_perfect_predictions(self):
        report = score_predictions([1, 1, 0, 0], [1, 1, 0, 0])
        assert report.accuracy == 1.0
        assert report.f1 == 1.0
        assert report.neutral == 0

    def test_all_neutral(self):
        report = score_predictions([None, None, None], [1, 0, 1])
        assert report.accuracy == 0.0
        assert report.neutral_rate == 1.0
        assert not report.precision_defined

    def test_hand_computed_confusion(self):
        # tp=3 fp=1 fn=2 tn=4
        predicted = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        gold = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        report = score_predictions(predicted, gold)
        expected = confusion_metrics(tp=3, fp=1, tn=4, fn=2)
        assert report.tp == 3 and report.fp == 1 and report.tn == 4 and report.fn == 2
        assert report.precision == pytest.approx(expected["precision"])  # 0.75
        assert report.recall == pytest.approx(expected["recall"])  # 0.6
        assert report.f1 == pytest.approx(expected["f1"])  # ~0.6667
        assert report.accuracy == pytest.approx(expected["accuracy"])  # 0.7

    def test_neutral_counts_as_error_in_accuracy(self):
        report = score_predictions([1, None], [1, 1])
        assert report.accuracy == 0.5
        assert report.neutral == 1
        assert report.tp + report.fp + report.tn + report.fn + report.neutral == 2

    def test_counts_partition_total(self):
        predicted = [1, 0, None, 1, None, 0]
        gold = [1, 1, 0, 0, 1, 0]
        report = score_predictions(predicted, gold)
        assert report.tp + report.fp + report.tn + report.fn + report.neutral == len(gold)
        assert report.neutral_rate + (report.tp + report.fp + report.tn + report.fn) / len(gold) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            score_predictions([1], [1, 0])

    def test_gold_must_be_binary(self):
        with pytest.raises(ValueError, match="binary"):
            score_predictions([1], [None])

    @given(st.lists(st.tuples(
        st.sampled_from([0, 1, None]), st.sampled_from([0, 1])
    ), min_size=1, max_size=40), st.randoms())
    def test_permutation_invariant(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        a = score_predictions([p for p, _ in pairs], [g for _, g in pairs])
        b = score_predictions([p for p, _ in shuffled], [g for _, g in shuffled])
        assert a == b

    @given(st.lists(st.tuples(
        st.sampled_from([0, 1, None]), st.sampled_from([0, 1])
    ), min_size=1, max_size=40))
    def test_rates_bounded(self, pairs):
        report = score_predictions([p for p, _ in pairs], [g for _, g in pairs])
        for value in (report.accuracy, report.precision, report.recall, report.f1,
                      report.neutral_rate):
            assert 0.0 <= value <= 1.0
        assert report.accuracy == (report.tp + report.tn) / len(pairs)


def _predicted_doc(doc_id, doc_label, sentence_labels):
    sentences = tuple(
        make_sentence(f"s{i}", label=lab, score=0.9 if lab == 1 else 0.1)
        for i, lab in enumerate(sentence_labels)
    )
    return make_doc(doc_id, label=doc_label, sentences=sentences)


class TestLabelDistribution:
    def test_single_positive_doc_row_percentages(self):
        table = label_distribution([_predicted_doc("d1", 1, [1, 1, 0])])
        assert table.counts[1] == {1: 2, 0: 1}
        assert table.row_percent(1, 1) == pytest.approx(100 * 2 / 3)
        assert table.row_percent(1, 0) == pytest.approx(100 / 3)

    def test_every_doc_mixed(self):
        docs = [
            _predicted_doc("d1", 1, [1, 0]),
            _predicted_doc("d2", 0, [0, 1]),
        ]
        table = label_distribution(docs)
        assert table.composition_percent()["both"] == 100.0

    def test_composition_split(self):
        docs = [
            _predicted_doc("d1", 1, [1, 1]),
            _predicted_doc("d2", 1, [0, 0]),
            _predicted_doc("d3", 0, [1, 0]),
            _predicted_doc("d4", 0, [1, 0]),
        ]
        table = label_distribution(docs)
        comp = table.composition_percent()
        assert comp["only_positive"] == 25.0
        assert comp["only_negative"] == 25.0
        assert comp["both"] == 50.0

    def test_unlabeled_docs_ignored(self):
        docs = [
            _predicted_doc("d1", 1, [1]),
            make_doc("d2", sentences=(make_sentence("s", label=1, score=0.9),)),
        ]
        table = label_distribution(docs)
        assert table.n_docs == 1

    def test_format_contains_counts(self):
        text = format_distribution(label_distribution([_predicted_doc("d1", 1, [1, 1, 0])]))
        assert "2 (66.67%)" in text
        assert "1 (33.33%)" in text


class TestReportRendering:
    def _report(self):
        return score_predictions([1, 1, 0, None], [1, 0, 0, 1])

    def test_table_has_one_row_per_method(self):
        table = format_report_table({"alpha": self._report(), "beta": self._report()},
                                    title="Comparison")
        lines = table.splitlines()
        assert lines[0] == "Comparison"
        assert sum(line.startswith(("alpha", "beta")) for line in lines) == 2
        assert "Accuracy" in lines[2]

    def test_percentages_formatted(self):
        table = format_report_table({"m": score_predictions([1, 1], [1, 1])}, "t")
        assert "100.00 %" in table

    def test_neutral_column_dash_when_unused(self):
        table = format_report_table({"m": score_predictions([1, 0], [1, 0])}, "t")
        assert table.splitlines()[-1].rstrip().endswith("-")

    def test_json_variant_round_trips(self):
        import json

        payload = json.loads(report_to_json({"m": self._report()}, "t"))
        assert payload["title"] == "t"
        assert payload["methods"]["m"]["confusion"]["tp"] == 1
        assert "neutral_convention" in payload

    def test_undefined_ratios_flagged(self):
        report = score_predictions([0, 0], [0, 0])
        assert not report.precision_defined
        assert not report.recall_defined
        assert report.precision == 0.0
        table = format_report_table({"m": report}, "t")
        assert "*" in table
