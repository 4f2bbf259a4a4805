"""Temporal splitting, confusion metrics, and summary tables.

Positive is the reference class throughout. Neutral predictions (possible
only for dictionary methods) count as errors for accuracy, are reported as
a separate rate, and stay out of the precision/recall confusion. Undefined
ratios are reported as 0 with a flag, never NaN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from milsent.corpus import Document, NEGATIVE, POSITIVE

NEUTRAL_NOTE = (
    "neutral predictions count as errors for accuracy and are excluded "
    "from the precision/recall confusion"
)


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    recall: float
    precision: float
    f1: float
    neutral_rate: float
    tp: int
    fp: int
    tn: int
    fn: int
    neutral: int
    precision_defined: bool = True
    recall_defined: bool = True
    f1_defined: bool = True

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "recall": self.recall,
            "precision": self.precision,
            "f1": self.f1,
            "neutral_rate": self.neutral_rate,
            "confusion": {
                "tp": self.tp,
                "fp": self.fp,
                "tn": self.tn,
                "fn": self.fn,
                "neutral": self.neutral,
            },
            "precision_defined": self.precision_defined,
            "recall_defined": self.recall_defined,
            "f1_defined": self.f1_defined,
        }


def temporal_split(
    corpus: Sequence[Document], ratio: float = 0.8
) -> tuple[list[Document], list[Document]]:
    """Oldest ceil(ratio * n) documents train, the rest test.

    Sorting is by publication date with document id as the tie-break, so
    the boundary is deterministic and no training document is newer than
    any test document.
    """
    if not corpus:
        raise ValueError("cannot split an empty corpus")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must be in [0, 1]")
    ordered = sorted(corpus, key=lambda d: (d.published_at, d.id))
    n_train = math.ceil(ratio * len(ordered))
    return ordered[:n_train], ordered[n_train:]


def score_predictions(
    predicted: Sequence[int | None], gold: Sequence[int]
) -> EvalReport:
    """Confusion metrics with positive as the target class.

    `predicted` entries may be None (neutral); `gold` must be binary.
    """
    if len(predicted) != len(gold):
        raise ValueError(
            f"length mismatch: {len(predicted)} predictions vs {len(gold)} gold labels"
        )
    tp = fp = tn = fn = neutral = 0
    for pred, actual in zip(predicted, gold):
        if actual not in (POSITIVE, NEGATIVE):
            raise ValueError(f"gold labels must be binary, got {actual!r}")
        if pred is None:
            neutral += 1
        elif pred == POSITIVE:
            tp, fp = (tp + 1, fp) if actual == POSITIVE else (tp, fp + 1)
        elif pred == NEGATIVE:
            tn, fn = (tn + 1, fn) if actual == NEGATIVE else (tn, fn + 1)
        else:
            raise ValueError(f"predictions must be binary or None, got {pred!r}")
    total = len(gold)
    accuracy = (tp + tn) / total if total else 0.0
    precision_defined = (tp + fp) > 0
    recall_defined = (tp + fn) > 0
    precision = tp / (tp + fp) if precision_defined else 0.0
    recall = tp / (tp + fn) if recall_defined else 0.0
    f1_defined = precision_defined and recall_defined and (precision + recall) > 0
    f1 = 2 * precision * recall / (precision + recall) if f1_defined else 0.0
    return EvalReport(
        accuracy=accuracy,
        recall=recall,
        precision=precision,
        f1=f1,
        neutral_rate=neutral / total if total else 0.0,
        tp=tp, fp=fp, tn=tn, fn=fn, neutral=neutral,
        precision_defined=precision_defined,
        recall_defined=recall_defined,
        f1_defined=f1_defined,
    )


@dataclass(frozen=True)
class DistributionTable:
    """Market reaction x predicted sentence label counts, plus how documents
    mix polarities."""

    counts: dict[int, dict[int, int]]  # doc label -> sentence label -> count
    docs_both: int
    docs_only_positive: int
    docs_only_negative: int
    n_docs: int

    def row_percent(self, doc_label: int, sentence_label: int) -> float:
        row = self.counts[doc_label]
        total = row[POSITIVE] + row[NEGATIVE]
        return 100.0 * row[sentence_label] / total if total else 0.0

    def composition_percent(self) -> dict[str, float]:
        if not self.n_docs:
            return {"both": 0.0, "only_positive": 0.0, "only_negative": 0.0}
        return {
            "both": 100.0 * self.docs_both / self.n_docs,
            "only_positive": 100.0 * self.docs_only_positive / self.n_docs,
            "only_negative": 100.0 * self.docs_only_negative / self.n_docs,
        }


def label_distribution(corpus: Sequence[Document]) -> DistributionTable:
    """Tabulate predicted sentence labels against document market reactions."""
    counts = {
        POSITIVE: {POSITIVE: 0, NEGATIVE: 0},
        NEGATIVE: {POSITIVE: 0, NEGATIVE: 0},
    }
    both = only_pos = only_neg = n_docs = 0
    for doc in corpus:
        if doc.label is None:
            continue
        labels = doc.sentences.labels
        pos, neg = labels.count(POSITIVE), labels.count(NEGATIVE)
        if not pos + neg:
            continue
        n_docs += 1
        counts[doc.label][POSITIVE] += pos
        counts[doc.label][NEGATIVE] += neg
        if pos and neg:
            both += 1
        elif pos:
            only_pos += 1
        else:
            only_neg += 1
    return DistributionTable(
        counts=counts,
        docs_both=both,
        docs_only_positive=only_pos,
        docs_only_negative=only_neg,
        n_docs=n_docs,
    )


def format_distribution(table: DistributionTable) -> str:
    lines = ["Sentence-label distribution by market reaction"]
    header = f"{'Market reaction':<18}{'positive':>22}{'negative':>22}"
    lines.append(header)
    for doc_label, row_name in ((POSITIVE, "positive"), (NEGATIVE, "negative")):
        row = table.counts[doc_label]
        cells = [
            f"{row[lab]} ({table.row_percent(doc_label, lab):.2f}%)"
            for lab in (POSITIVE, NEGATIVE)
        ]
        lines.append(f"{row_name:<18}{cells[0]:>22}{cells[1]:>22}")
    comp = table.composition_percent()
    lines.append(
        f"documents mixing both polarities: {comp['both']:.2f}%  "
        f"only positive: {comp['only_positive']:.2f}%  "
        f"only negative: {comp['only_negative']:.2f}%"
    )
    return "\n".join(lines)


_COLUMNS = ("Accuracy", "Recall", "Precision", "F1-Score", "Neutral")


def _metric_cells(report: EvalReport) -> list[str]:
    cells = [
        f"{100.0 * report.accuracy:.2f} %",
        f"{100.0 * report.recall:.2f} %" + ("" if report.recall_defined else "*"),
        f"{100.0 * report.precision:.2f} %" + ("" if report.precision_defined else "*"),
        f"{100.0 * report.f1:.2f} %" + ("" if report.f1_defined else "*"),
    ]
    cells.append(f"{100.0 * report.neutral_rate:.2f} %" if report.neutral else "-")
    return cells


def format_report_table(reports: Mapping[str, EvalReport], title: str) -> str:
    """Aligned comparison table, one row per method; `*` flags a ratio whose
    denominator was zero."""
    width = max([len(name) for name in reports] + [len("Method")]) + 2
    lines = [title, f"({NEUTRAL_NOTE})"]
    lines.append(
        f"{'Method':<{width}}" + "".join(f"{c:>12}" for c in _COLUMNS)
    )
    for name, report in reports.items():
        lines.append(
            f"{name:<{width}}" + "".join(f"{c:>12}" for c in _metric_cells(report))
        )
    return "\n".join(lines)


def report_to_json(reports: Mapping[str, EvalReport], title: str) -> str:
    """Machine-readable variant of the comparison table."""
    payload = {
        "title": title,
        "neutral_convention": NEUTRAL_NOTE,
        "methods": {name: report.to_dict() for name, report in reports.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True)
