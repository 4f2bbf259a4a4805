"""Abnormal returns via the market model, and price-based document labeling.

A stock's normal return on the event day is alpha + beta * market return,
with (alpha, beta) fitted by OLS over a window of at least two trading days
immediately before the event; the window is checked before any fit. The
abnormal return is the actual return minus that expectation; its sign
labels the document. Penny stocks, return outliers, and documents with
irrecoverable market data are dropped, with reasons.

Labelling aligns each ticker's returns with the index returns once per
call, one ticker at a time, and finds each document's event day in that
alignment by bisection.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from datetime import date
from typing import Mapping, Sequence

from milsent._lazy import lazy_import
from milsent.corpus import DataError, Document, NEGATIVE, POSITIVE, utf8_lines

np = lazy_import("numpy")


class EventStudyError(DataError):
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


@dataclass(frozen=True)
class EventLabelConfig:
    penny_threshold: float = 1.0
    outlier_level: float = 0.01
    window: int = 30

    def __post_init__(self):
        if not math.isfinite(self.penny_threshold):
            raise ValueError("penny_threshold must be a finite number")
        if not 0 <= self.outlier_level < 0.5:
            raise ValueError("outlier_level must be in [0, 0.5)")
        if self.window < 2:
            raise ValueError("window must be >= 2")


def load_price_series(path, ticker: str) -> PriceSeries:
    """Read a `date,close` CSV (header row required), dates strictly
    increasing and closes positive. A bad row raises an EventStudyError
    that names the file and the row."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(utf8_lines(handle, path, EventStudyError, unit="row"))
        observations = []
        try:
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["date", "close"]:
                raise EventStudyError(f"{path}: row 1: expected header 'date,close'")
            for row_no, row in enumerate(reader, start=2):
                if not row or not "".join(row).strip():
                    continue
                try:
                    day, close = date.fromisoformat(row[0].strip()), float(row[1])
                except (ValueError, IndexError) as exc:
                    raise EventStudyError(f"{path}: row {row_no}: {exc}") from exc
                if not math.isfinite(close):
                    raise EventStudyError(f"{path}: row {row_no}: close {close} is not finite")
                if close <= 0:
                    raise EventStudyError(f"{path}: row {row_no}: close {close} is not positive")
                if observations and day <= observations[-1][0]:
                    raise EventStudyError(f"{path}: row {row_no}: date {day} does not follow "
                                          f"{observations[-1][0]}")
                observations.append((day, close))
        except csv.Error as exc:
            raise EventStudyError(f"{path}: line {reader.line_num}: {exc}") from exc
    return PriceSeries(ticker=ticker, observations=tuple(observations))


def simple_returns(series: PriceSeries) -> list[tuple[date, float]]:
    """r_t = p_t / p_{t-1} - 1, dated at t."""
    if len(series.observations) < 2:
        raise EventStudyError("need >= 2 observations for returns")
    out = []
    for (_, prev), (day, price) in zip(series.observations, series.observations[1:]):
        out.append((day, price / prev - 1.0))
    return out


def _fit(s: np.ndarray, m: np.ndarray, window: int) -> MarketModel:
    """OLS of stock returns `s` on market returns `m` over their last
    `window` entries, the paired returns before an event day."""
    if len(s) < window:
        raise EventStudyError("insufficient history: fewer paired returns than the window")
    s, m = s[-window:], m[-window:]
    var = float(np.var(m))
    # ptp catches a constant series even when rounding leaves var != 0
    if var == 0.0 or np.ptp(m) == 0.0:
        raise EventStudyError("zero-variance market returns: singular fit")
    beta = float(np.cov(m, s, bias=True)[0, 1]) / var
    alpha = float(np.mean(s)) - beta * float(np.mean(m))
    return MarketModel(alpha=alpha, beta=beta)


def fit_market_model(
    stock_returns: Sequence[tuple[date, float]],
    market_returns: Sequence[tuple[date, float]],
    event_date: date,
    window: int,
) -> MarketModel:
    """OLS of stock on market return over `window` days before event_date.

    `window` must be at least 2, and exactly `window` paired observations
    strictly before the event are required; fewer is an error rather than a
    silently shorter fit.
    """
    if window < 2:
        raise EventStudyError("market-model window must be >= 2")
    market = dict(market_returns)
    paired = [(r, market[d]) for d, r in stock_returns if d in market and d < event_date]
    s = np.array([r for r, _ in paired])
    m = np.array([r for _, r in paired])
    return _fit(s, m, window)


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


@dataclass(frozen=True)
class _Aligned:
    """One ticker's returns on the days that are also index return days."""

    days: list[date]
    stock: np.ndarray
    market: np.ndarray
    prior_close: list[float]  # the close on the price day before each day


def _align(series: PriceSeries, market: Mapping[date, float]) -> _Aligned:
    # A return day is a price day after the first, so the price day before
    # it, and its close, always exist.
    rows = [
        (day, r, market[day], prev)
        for (day, r), (_, prev) in zip(simple_returns(series), series.observations)
        if day in market
    ]
    return _Aligned(
        days=[row[0] for row in rows],
        stock=np.array([row[1] for row in rows]),
        market=np.array([row[2] for row in rows]),
        prior_close=[row[3] for row in rows],
    )


def _event_ar(doc: Document, aligned: _Aligned, config: EventLabelConfig) -> float:
    # Announcements on non-trading days take effect the next session.
    i = bisect_left(aligned.days, doc.published_at)
    if i == len(aligned.days):
        raise EventStudyError("no trading day on or after publication")
    if aligned.prior_close[i] < config.penny_threshold:
        raise EventStudyError("penny stock")
    model = _fit(aligned.stock[:i], aligned.market[:i], config.window)
    return abnormal_return(model, float(aligned.stock[i]), float(aligned.market[i]))


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
    Each ticker is aligned with the index once; only one ticker's aligned
    returns are held at a time.
    """
    config = config or EventLabelConfig()
    market = dict(simple_returns(index_prices))

    by_ticker: dict[str, list[int]] = {}
    for pos, doc in enumerate(corpus):
        by_ticker.setdefault(doc.ticker, []).append(pos)
    # per document, in corpus order: its abnormal return or its drop reason
    outcome: list[float | str] = [""] * len(corpus)
    for ticker, positions in by_ticker.items():
        series = stock_prices.get(ticker)
        try:
            if series is None:
                raise EventStudyError("no price series")
            aligned = _align(series, market)
        except EventStudyError as exc:
            for pos in positions:
                outcome[pos] = str(exc)
            continue
        for pos in positions:
            try:
                outcome[pos] = _event_ar(corpus[pos], aligned, config)
            except EventStudyError as exc:
                outcome[pos] = str(exc)
        del aligned  # before the next ticker's is built

    scored: list[tuple[Document, float]] = []
    dropped: list[tuple[str, str]] = []
    for doc, result in zip(corpus, outcome):
        if isinstance(result, str):
            dropped.append((doc.id, result))
        else:
            scored.append((doc, result))

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
