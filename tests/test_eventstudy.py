import math
import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milsent.corpus import POSITIVE, NEGATIVE
from milsent.eventstudy import (
    EventLabelConfig,
    EventStudyError,
    MarketModel,
    PriceSeries,
    abnormal_return,
    fit_market_model,
    label_documents,
    load_price_series,
    simple_returns,
)
from conftest import make_doc, write_price_csv
from reference import naive_label_documents, ols_line


def series(ticker, prices, start=date(2005, 1, 3)):
    days = [start + timedelta(days=i) for i in range(len(prices))]
    return PriceSeries(ticker, tuple(zip(days, prices)))


def test_label_config_defaults():
    config = EventLabelConfig()
    assert config.penny_threshold == 1.0
    assert config.outlier_level == 0.01
    assert config.window == 30


class TestPriceSeries:
    def test_dates_must_increase(self):
        day = date(2005, 1, 3)
        with pytest.raises(EventStudyError, match="strictly increase"):
            PriceSeries("X", ((day, 1.0), (day, 2.0)))

    def test_prices_positive(self):
        with pytest.raises(EventStudyError, match="non-positive"):
            series("X", [1.0, -2.0])

    def test_csv_loader_requires_header(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("2005-01-03,1.0\n")
        with pytest.raises(EventStudyError, match="header"):
            load_price_series(path, "X")

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "X.csv"
        days = [date(2005, 1, 3), date(2005, 1, 4)]
        write_price_csv(path, list(zip(days, [100.0, 101.5])))
        loaded = load_price_series(path, "X")
        assert loaded.observations == ((days[0], 100.0), (days[1], 101.5))


PRICE_FIELDS = st.sampled_from(
    ["2005-01-03", "2005-01-04", "2005-01-02", "2005-13-01", "20050105", "2005-W01-1",
     "1.5", "100", "0", "-1", "nan", "inf", "1e999", "abc", " ", '"', "\x00", "\r", ""])
PRICE_ROWS = st.lists(st.lists(PRICE_FIELDS, max_size=3).map(",".join), max_size=6)


class TestReaderFuzz:
    """Any price file loads into a valid series or raises an
    EventStudyError that names the file and the row."""

    @settings(max_examples=400, deadline=None)
    @given(rows=PRICE_ROWS, header=st.sampled_from(["date,close", "Date , Close,x", ""]),
           tail=st.sampled_from([b"", b"\n", b"\xff"]))
    def test_loads_or_names_the_row(self, tmp_path_factory, rows, header, tail):
        path = tmp_path_factory.mktemp("prices") / "X.csv"
        path.write_bytes("\n".join([header, *rows]).encode("utf-8") + tail)
        try:
            loaded = load_price_series(path, "X")
        except EventStudyError as exc:
            assert re.match(re.escape(f"{path}: ") + r"(row|line) \d+: .", str(exc)), exc
            return
        days = [day for day, _ in loaded.observations]
        assert days == sorted(set(days))
        assert all(0 < close < math.inf for _, close in loaded.observations)

    def test_date_out_of_order_names_the_row(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("date,close\n2005-01-04,1.0\n2005-01-04,2.0\n")
        with pytest.raises(EventStudyError,
                           match=r"X.csv: row 3: date 2005-01-04 does not follow 2005-01-04"):
            load_price_series(path, "X")

    def test_non_positive_close_names_the_row(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("date,close\n2005-01-03,1.0\n2005-01-04,0\n")
        with pytest.raises(EventStudyError, match=r"X.csv: row 3: close 0.0 is not positive"):
            load_price_series(path, "X")


class TestSimpleReturns:
    def test_ten_percent(self):
        out = simple_returns(series("X", [100.0, 110.0]))
        assert len(out) == 1
        assert out[0][1] == pytest.approx(0.10)

    def test_constant_prices_zero_returns(self):
        out = simple_returns(series("X", [42.0] * 5))
        assert all(r == 0.0 for _, r in out)

    def test_single_observation_errors(self):
        with pytest.raises(EventStudyError, match=">= 2"):
            simple_returns(series("X", [100.0]))

    def test_dated_at_second_day(self):
        s = series("X", [100.0, 110.0])
        assert simple_returns(s)[0][0] == s.observations[1][0]


class TestFitMarketModel:
    def test_recovers_noise_free_coefficients(self, market_fixture):
        days, market, stock = market_fixture
        stock_r = simple_returns(PriceSeries("S", tuple(zip(days, stock))))
        market_r = simple_returns(PriceSeries("M", tuple(zip(days, market))))
        model = fit_market_model(stock_r, market_r, event_date=days[-1], window=30)
        assert abs(model.alpha - 0.001) < 1e-9
        assert abs(model.beta - 1.5) < 1e-9
        # independent longhand OLS over the same window
        paired = [(m, s) for (d, s), (_, m) in zip(stock_r, market_r) if d < days[-1]]
        xs = [m for m, _ in paired][-30:]
        ys = [s for _, s in paired][-30:]
        ref_alpha, ref_beta = ols_line(xs, ys)
        assert model.alpha == pytest.approx(ref_alpha, abs=1e-12)
        assert model.beta == pytest.approx(ref_beta, abs=1e-12)

    def test_identical_series_gives_identity_line(self):
        rng = np.random.default_rng(2)
        days = [date(2005, 1, 3) + timedelta(days=i) for i in range(40)]
        rets = list(zip(days, rng.uniform(-0.02, 0.02, size=40)))
        model = fit_market_model(rets, rets, event_date=days[-1] + timedelta(days=1), window=30)
        assert model.alpha == pytest.approx(0.0, abs=1e-12)
        assert model.beta == pytest.approx(1.0, abs=1e-12)

    def test_constant_market_is_singular(self):
        days = [date(2005, 1, 3) + timedelta(days=i) for i in range(40)]
        stock = list(zip(days, np.linspace(-0.01, 0.01, 40)))
        market = [(d, 0.003) for d in days]
        with pytest.raises(EventStudyError, match="singular"):
            fit_market_model(stock, market, event_date=days[-1] + timedelta(days=1), window=30)

    def test_insufficient_history(self):
        days = [date(2005, 1, 3) + timedelta(days=i) for i in range(10)]
        rets = [(d, 0.01 * (i % 3 - 1)) for i, d in enumerate(days)]
        with pytest.raises(EventStudyError, match="insufficient history"):
            fit_market_model(rets, rets, event_date=days[-1], window=30)

    def test_window_validation(self):
        # checked before the fit: a window of 0 would otherwise fit the whole
        # history, and one of 1 a single return of zero variance
        days = [date(2005, 1, 3) + timedelta(days=i) for i in range(10)]
        rets = [(d, 0.01 * (i % 3 - 1)) for i, d in enumerate(days)]
        for window in (0, 1):
            with pytest.raises(EventStudyError, match="window must be >= 2"):
                fit_market_model(rets, rets, event_date=days[-1], window=window)


class TestAbnormalReturn:
    def test_identity_model_matches_market(self):
        assert abnormal_return(MarketModel(0.0, 1.0), 0.02, 0.02) == 0.0

    def test_direct_substitution(self):
        assert abnormal_return(MarketModel(0.001, 1.5), 0.05, 0.02) == pytest.approx(0.019)

    def test_zero_model_passes_through(self):
        assert abnormal_return(MarketModel(0.0, 0.0), -0.046, 0.9) == -0.046


def _flat_market(n=45, start=date(2005, 1, 3)):
    rng = np.random.default_rng(9)
    days = [start + timedelta(days=i) for i in range(n)]
    prices = [100.0]
    for r in rng.uniform(-0.01, 0.01, size=n - 1):
        prices.append(prices[-1] * (1 + r))
    return days, prices


def _stock_with_event(days, market_prices, event_index, jump, base=10.0):
    # follows the market one-to-one, then jumps on the event day
    prices = [base]
    for i in range(1, len(days)):
        r = market_prices[i] / market_prices[i - 1] - 1.0
        if i == event_index:
            r += jump
        prices.append(prices[-1] * (1 + r))
    return prices


class TestLabelDocuments:
    def setup_method(self):
        self.days, self.market_prices = _flat_market()
        self.index = PriceSeries("IDX", tuple(zip(self.days, self.market_prices)))
        self.config = EventLabelConfig(outlier_level=0.0)

    def _label(self, docs, prices, config=None):
        return label_documents(docs, prices, self.index, config or self.config)

    def test_negative_jump_labels_negative(self):
        stock = _stock_with_event(self.days, self.market_prices, 40, -0.046)
        doc = make_doc("d1", "AAA", self.days[40])
        result = self._label([doc], {"AAA": PriceSeries("AAA", tuple(zip(self.days, stock)))})
        assert len(result.documents) == 1
        labeled = result.documents[0]
        assert labeled.label == NEGATIVE
        assert labeled.abnormal_return == pytest.approx(-0.046, rel=1e-6)

    def test_sign_consistency(self):
        docs, prices = [], {}
        for i, jump in enumerate([-0.03, 0.02, 0.05, -0.01]):
            ticker = f"T{i}"
            stock = _stock_with_event(self.days, self.market_prices, 40, jump)
            prices[ticker] = PriceSeries(ticker, tuple(zip(self.days, stock)))
            docs.append(make_doc(f"d{i}", ticker, self.days[40]))
        result = self._label(docs, prices)
        assert len(result.documents) == 4
        for doc in result.documents:
            assert doc.label == (POSITIVE if doc.abnormal_return > 0 else NEGATIVE)

    def test_penny_stock_dropped(self):
        stock = _stock_with_event(self.days, self.market_prices, 40, 0.3, base=0.80)
        doc = make_doc("d1", "AAA", self.days[40])
        result = self._label([doc], {"AAA": PriceSeries("AAA", tuple(zip(self.days, stock)))})
        assert result.documents == ()
        assert result.dropped == (("d1", "penny stock"),)

    def test_missing_price_series_dropped_not_fatal(self):
        doc = make_doc("d1", "ZZZ", self.days[40])
        result = self._label([doc], {})
        assert result.documents == ()
        assert result.dropped == (("d1", "no price series"),)

    def test_zero_abnormal_return_excluded(self):
        # returns alternate exactly +0.5 / -0.5 (powers of two), so the OLS
        # fit and the event-day abnormal return are exact: alpha = 0,
        # beta = 1, AR = 0.0
        days = [date(2005, 1, 3) + timedelta(days=i) for i in range(32)]
        prices = [float(2 ** 20)]
        for i in range(31):
            prices.append(prices[-1] * (1.5 if i % 2 == 0 else 0.5))
        both = PriceSeries("AAA", tuple(zip(days, prices)))
        index = PriceSeries("IDX", tuple(zip(days, prices)))
        doc = make_doc("d1", "AAA", days[-1])
        result = label_documents([doc], {"AAA": both}, index, self.config)
        assert result.documents == ()
        assert result.dropped == (("d1", "zero abnormal return"),)

    def test_event_on_non_trading_day_rolls_forward(self):
        # remove the would-be event day from both series; the next day is used
        days = self.days[:40] + self.days[41:]
        market = self.market_prices[:40] + self.market_prices[41:]
        stock_full = _stock_with_event(self.days, self.market_prices, 41, 0.05)
        stock = stock_full[:40] + stock_full[41:]
        index = PriceSeries("IDX", tuple(zip(days, market)))
        result = label_documents(
            [make_doc("d1", "AAA", self.days[40])],
            {"AAA": PriceSeries("AAA", tuple(zip(days, stock)))},
            index,
            self.config,
        )
        assert len(result.documents) == 1
        assert result.documents[0].label == POSITIVE

    def test_outlier_trim_removes_ceil_per_tail(self):
        docs, prices = [], {}
        jumps = [(-1) ** i * 0.01 * (i + 1) for i in range(10)]
        for i, jump in enumerate(jumps):
            ticker = f"T{i}"
            stock = _stock_with_event(self.days, self.market_prices, 40, jump)
            prices[ticker] = PriceSeries(ticker, tuple(zip(self.days, stock)))
            docs.append(make_doc(f"d{i}", ticker, self.days[40]))
        config = EventLabelConfig(outlier_level=0.15)  # ceil(1.5) = 2 per tail
        result = label_documents(docs, prices, self.index, config)
        outliers = [d for d, reason in result.dropped if reason == "return outlier"]
        assert len(outliers) == 4
        assert len(result.documents) == 6
        kept_ars = sorted(d.abnormal_return for d in result.documents)
        # the most extreme jumps were +/-0.10 and +/-0.09; all survivors are milder
        assert kept_ars[0] > -0.085 and kept_ars[-1] < 0.085

    def test_insufficient_history_reason_recorded(self):
        short_days = self.days[30:]
        short_market = self.market_prices[30:]
        stock = [10.0 * p / short_market[0] for p in short_market]
        index = PriceSeries("IDX", tuple(zip(short_days, short_market)))
        result = label_documents(
            [make_doc("d1", "AAA", short_days[-1])],
            {"AAA": PriceSeries("AAA", tuple(zip(short_days, stock)))},
            index,
            self.config,
        )
        assert result.documents == ()
        assert "insufficient history" in result.dropped[0][1]


CALENDAR_START = date(2005, 1, 3)
CALENDAR_DAYS = 60


def _on_days(days, closes, ticker):
    return PriceSeries(ticker, tuple(
        (CALENDAR_START + timedelta(days=int(d)), float(p)) for d, p in zip(days, closes)))


def _random_market(rng, tickers):
    """An index and stock series on random calendar days, some days missing
    from each. The index has flat stretches (singular fits); a stock series
    is long, short (down to no observation) or a penny stock, and repeats
    some closes."""
    days = np.arange(CALENDAR_DAYS)
    closes = 100.0 * np.cumprod(1.0 + rng.normal(0.0, 0.01, CALENDAR_DAYS))
    if rng.random() < 0.5:
        start = rng.integers(0, CALENDAR_DAYS)
        closes[start : start + rng.integers(2, 10)] = closes[start]
    kept = rng.random(CALENDAR_DAYS) > 0.1
    index = _on_days(days[kept], closes[kept], "IDX")
    prices = {}
    for ticker in tickers:
        first = rng.integers(0, 15)
        last = first + rng.integers(0, 4) if rng.random() < 0.2 else rng.integers(45, 61)
        base = rng.choice([0.5, 2.0, 20.0])
        closes = base * np.cumprod(1.0 + rng.normal(0.0, 0.02, CALENDAR_DAYS))
        repeat = rng.random(CALENDAR_DAYS) < 0.1
        repeat[0] = False
        for i in np.flatnonzero(repeat):
            closes[i] = closes[i - 1]
        kept = (rng.random(CALENDAR_DAYS) > 0.1) & (days >= first) & (days < last)
        prices[ticker] = _on_days(days[kept], closes[kept], ticker)
    return index, prices


def _assert_matches_oracle(docs, prices, index, config):
    result = label_documents(docs, prices, index, config)
    labeled, dropped = naive_label_documents(docs, prices, index, config)
    assert list(result.dropped) == dropped
    assert [(d.id, d.label) for d in result.documents] == [(d.id, d.label) for d in labeled]
    for got, want in zip(result.documents, labeled):
        assert type(got.abnormal_return) is float
        assert got.abnormal_return == want.abnormal_return
    return result


class TestLabelOracle:
    """`label_documents` against the per-document oracle, which rebuilds every
    list for each document: equal abnormal returns (==) and equal drops, in
    order."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 30),
           window=st.integers(2, 10), penny=st.sampled_from([0.0, 1.0, 3.0]),
           outlier=st.sampled_from([0.0, 0.0, 0.05, 0.2]))
    def test_matches_per_document_oracle(self, seed, n_docs, window, penny, outlier):
        rng = np.random.default_rng(seed)
        tickers = ["A", "B", "C", "D"]
        index, prices = _random_market(rng, tickers)
        # interleaved tickers, one without a series; days before the first
        # and after the last trading day
        docs = [make_doc(f"d{i}", rng.choice(tickers + ["MISSING"]),
                         CALENDAR_START + timedelta(days=int(rng.integers(-3, CALENDAR_DAYS + 4))))
                for i in range(n_docs)]
        config = EventLabelConfig(penny_threshold=penny, outlier_level=outlier, window=window)
        _assert_matches_oracle(docs, prices, index, config)

    def test_every_reachable_drop_reason(self):
        rng = np.random.default_rng(5)
        index_closes = 100.0 * np.cumprod(1.0 + rng.uniform(-0.02, 0.02, 30))
        index_closes[20:25] = index_closes[20]  # zero market returns on days 21-24
        index = _on_days([d for d in range(30) if d != 10], np.delete(index_closes, 10), "IDX")
        stock_days = [d for d in range(30) if d != 5]  # the index has day 5
        prices = {
            "A": _on_days(stock_days, 20.0 * np.cumprod(1.0 + rng.uniform(-0.03, 0.03, 29)), "A"),
            "P": _on_days(stock_days, np.full(29, 0.5), "P"),
            "S": _on_days([3], [10.0], "S"),
        }
        placed = [("A", 15), ("P", 15), ("A", 10), ("A", 40), ("A", -5), ("S", 15),
                  ("A", 24), ("X", 15), ("A", 17), ("A", 19), ("A", 12), ("A", 27)]
        docs = [make_doc(f"d{i}", t, CALENDAR_START + timedelta(days=d))
                for i, (t, d) in enumerate(placed)]
        config = EventLabelConfig(outlier_level=0.2, window=3)
        result = _assert_matches_oracle(docs, prices, index, config)
        # no close before publication (d4) rolls to the first return day,
        # which has no history; "no price before event day" cannot occur,
        # since a return day always follows a price day
        assert result.dropped == (
            ("d1", "penny stock"),
            ("d3", "no trading day on or after 2005-02-12"),
            ("d4", "insufficient history before 2005-01-04: 0 paired returns < window 3"),
            ("d5", "S: need >= 2 observations for returns"),
            ("d6", "zero-variance market returns: singular fit"),
            ("d7", "no price series"),
            *((d, "return outlier") for d in ("d0", "d8", "d9", "d10")),
        )
        # d2 falls on day 10, which is no index day, and rolls to day 11
        assert [d.id for d in result.documents] == ["d2", "d11"]
