"""Abnormal returns via the market model, and price-based document labeling.

A stock's normal return on the event day is alpha + beta * market return,
with (alpha, beta) fitted by OLS over a window of trading days immediately
before the event. The abnormal return is the actual return minus that
expectation; its sign labels the document. Penny stocks, return outliers,
and documents with irrecoverable market data are dropped, with reasons.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Mapping, Sequence

import numpy as np

from milsent.corpus import Document, NEGATIVE, POSITIVE

log = logging.getLogger(__name__)


class EventStudyError(Exception):
    """Price data is unusable for the requested computation."""


@dataclass(frozen=True)
class PriceSeries:
    """Per-ticker ordered (date, close) observations."""

    ticker: str
    observations: tuple[tuple[date, float], ...]

    def __post_init__(self):
        obs = tuple((d, float(p)) for d, p in self.observations)
        for (d1, p1), (d2, _) in zip(obs, obs[1:]):
            if d2 <= d1:
                raise EventStudyError(f"{self.ticker}: dates must strictly increase")
        for d, p in obs:
            if not 0 < p < math.inf:
                raise EventStudyError(f"{self.ticker}: non-positive or non-finite price on {d}")
        object.__setattr__(self, "observations", obs)


@dataclass(frozen=True)
class MarketModel:
    alpha: float
    beta: float
    window: int = 30

    def __post_init__(self):
        if self.window < 2:
            raise EventStudyError("market-model window must be >= 2")


@dataclass(frozen=True)
class EventLabelConfig:
    penny_threshold: float = 1.0
    outlier_level: float = 0.01
    window: int = 30

    def __post_init__(self):
        if not 0 <= self.outlier_level < 0.5:
            raise ValueError("outlier_level must be in [0, 0.5)")


def load_price_series(path, ticker: str) -> PriceSeries:
    """Read a `date,close` CSV (header row required)."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["date", "close"]:
            raise EventStudyError(f"{path}: expected header 'date,close'")
        observations = []
        for row_no, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            try:
                day, close = date.fromisoformat(row[0].strip()), float(row[1])
            except (ValueError, IndexError) as exc:
                raise EventStudyError(f"{path}: row {row_no}: {exc}") from exc
            if not math.isfinite(close):
                raise EventStudyError(f"{path}: row {row_no}: close {close} is not finite")
            observations.append((day, close))
    return PriceSeries(ticker=ticker, observations=tuple(observations))


def simple_returns(series: PriceSeries) -> list[tuple[date, float]]:
    """r_t = p_t / p_{t-1} - 1, dated at t."""
    if len(series.observations) < 2:
        raise EventStudyError(f"{series.ticker}: need >= 2 observations for returns")
    out = []
    for (_, prev), (day, price) in zip(series.observations, series.observations[1:]):
        out.append((day, price / prev - 1.0))
    return out


def fit_market_model(
    stock_returns: Sequence[tuple[date, float]],
    market_returns: Sequence[tuple[date, float]],
    event_date: date,
    window: int = 30,
) -> MarketModel:
    """OLS of stock on market return over `window` days before event_date.

    Requires exactly `window` paired observations strictly before the event;
    fewer is an error rather than a silently shorter fit.
    """
    market = dict(market_returns)
    paired = [
        (d, r, market[d]) for d, r in stock_returns if d in market and d < event_date
    ]
    if len(paired) < window:
        raise EventStudyError(
            f"insufficient history before {event_date}: "
            f"{len(paired)} paired returns < window {window}"
        )
    paired = paired[-window:]
    s = np.array([r for _, r, _ in paired])
    m = np.array([r for _, _, r in paired])
    var = float(np.var(m))
    # ptp catches a constant series even when rounding leaves var != 0
    if var == 0.0 or np.ptp(m) == 0.0:
        raise EventStudyError("zero-variance market returns: singular fit")
    beta = float(np.cov(m, s, bias=True)[0, 1]) / var
    alpha = float(np.mean(s)) - beta * float(np.mean(m))
    return MarketModel(alpha=alpha, beta=beta, window=window)


def abnormal_return(model: MarketModel, stock_return: float, market_return: float) -> float:
    """Actual return minus the market-model expectation."""
    return stock_return - (model.alpha + model.beta * market_return)


@dataclass(frozen=True)
class LabelResult:
    documents: tuple[Document, ...]
    dropped: tuple[tuple[str, str], ...]  # (doc id, reason)

    def drop_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, reason in self.dropped:
            counts[reason] = counts.get(reason, 0) + 1
        return counts


def _event_ar(
    doc: Document,
    series: PriceSeries,
    index_returns: Sequence[tuple[date, float]],
    config: EventLabelConfig,
) -> float:
    stock_returns = simple_returns(series)
    market = dict(index_returns)
    paired_days = [d for d, _ in stock_returns if d in market]
    # Announcements on non-trading days take effect the next session.
    event_day = next((d for d in paired_days if d >= doc.published_at), None)
    if event_day is None:
        raise EventStudyError(f"no trading day on or after {doc.published_at}")
    prices = dict(series.observations)
    price_days = [d for d, _ in series.observations]
    prior_days = [d for d in price_days if d < event_day]
    if not prior_days:
        raise EventStudyError("no price before event day")
    if prices[prior_days[-1]] < config.penny_threshold:
        raise EventStudyError("penny stock")
    stock = dict(stock_returns)
    model = fit_market_model(stock_returns, index_returns, event_day, config.window)
    return abnormal_return(model, stock[event_day], market[event_day])


def label_documents(
    corpus: Sequence[Document],
    stock_prices: Mapping[str, PriceSeries],
    index_prices: PriceSeries,
    config: EventLabelConfig | None = None,
) -> LabelResult:
    """Attach event-day abnormal returns and sign labels to documents.

    Documents are dropped (with a reason, never fatally) for: missing or
    too-short price series, no trading day at or after the event, prior-day
    price below the penny threshold, insufficient estimation history, a
    singular market-model fit, an abnormal return in either outlier tail
    (ceil(outlier_level * n) per tail), or an abnormal return of exactly 0.
    """
    config = config or EventLabelConfig()
    index_returns = simple_returns(index_prices)

    scored: list[tuple[Document, float]] = []
    dropped: list[tuple[str, str]] = []
    for doc in corpus:
        series = stock_prices.get(doc.ticker)
        if series is None:
            dropped.append((doc.id, "no price series"))
            log.warning("document %s: no price series for %s", doc.id, doc.ticker)
            continue
        try:
            ar = _event_ar(doc, series, index_returns, config)
        except EventStudyError as exc:
            reason = str(exc)
            dropped.append((doc.id, reason))
            log.warning("document %s dropped: %s", doc.id, reason)
            continue
        scored.append((doc, ar))

    # Symmetric per-tail trim of the abnormal-return distribution.
    k = math.ceil(config.outlier_level * len(scored))
    if k > 0 and scored:
        order = sorted(range(len(scored)), key=lambda i: (scored[i][1], i))
        cut = set(order[:k]) | set(order[len(scored) - k :])
        for i in sorted(cut):
            dropped.append((scored[i][0].id, "return outlier"))
        scored = [pair for i, pair in enumerate(scored) if i not in cut]

    labeled = []
    for doc, ar in scored:
        if ar == 0.0:
            dropped.append((doc.id, "zero abnormal return"))
            continue
        label = POSITIVE if ar > 0 else NEGATIVE
        labeled.append(replace(doc, abnormal_return=ar, label=label))
    return LabelResult(documents=tuple(labeled), dropped=tuple(dropped))
