import json
from datetime import date, timedelta

import numpy as np
import pytest

from milsent.cli import main
from milsent.corpus import load_corpus
from milsent.mil import MilModel, TrainConfig, generate_synthetic, save_model
from conftest import write_jsonl, write_price_csv
from reference import naive_document_vote


def write_config(path, **overrides):
    lines = {"min_count": 1, "outlier_level": 0.0, **overrides}
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def synthetic_corpus_files(tmp_path, n_groups=40, instances=5, dim=8, seed=4):
    """Corpus + precomputed sentence-vector file realizing a synthetic MIL
    problem, so the CLI trains on exactly known data."""
    dataset, truth = generate_synthetic(n_groups, instances, dim, 3.0, 0.0, seed=seed)
    corpus_path = tmp_path / "synthetic.jsonl"
    vectors_path = tmp_path / "sentences.tsv"
    records = []
    lines = []
    for g, (matrix, label) in enumerate(dataset.groups):
        doc_id = f"g{g:03d}"
        records.append({
            "id": doc_id,
            "ticker": "SYN",
            "published_at": (date(2005, 1, 1) + timedelta(days=g)).isoformat(),
            "text": " ".join(f"sentence {g}-{i}." for i in range(len(matrix))),
            "sentences": [f"sentence {g}-{i}." for i in range(len(matrix))],
            "label": "pos" if label else "neg",
        })
        for i, row in enumerate(matrix):
            values = " ".join(repr(float(v)) for v in row)
            lines.append(f"{doc_id}:{i}\t{values}")
    write_jsonl(corpus_path, records)
    vectors_path.write_text("\n".join(lines) + "\n")
    return corpus_path, vectors_path, truth


def news_corpus(tmp_path):
    path = tmp_path / "raw.jsonl"
    body_up = (
        "Profit rose 12.5% and net income increased strongly this quarter. "
        "The company exceeded its growth forecast for 2005 with robust margins. "
        "Management raised the dividend and confirmed a record order backlog. "
        "Earnings momentum stayed strong across all operating segments. "
        "The board expressed confidence in sustained demand for the product range. "
        "Cash flow from operations improved further on higher volumes."
    )
    body_down = (
        "The company reported a loss of -3.2 EUR per share on 12 May 2005. "
        "Insolvency of a key customer will incur exceptional charges this year. "
        "Sales declined sharply and management issued a profit warning. "
        "Restructuring costs and impairment charges weighed on the result. "
        "The firm postponed its planned capacity expansion indefinitely. "
        "Credit conditions deteriorated and refinancing risk increased markedly."
    )
    write_jsonl(path, [
        {"id": "up1", "ticker": "AAA", "published_at": "2005-02-14", "text": body_up},
        {"id": "dn1", "ticker": "BBB", "published_at": "2005-02-14", "text": body_down},
    ])
    return path


def price_fixtures(tmp_path):
    prices_dir = tmp_path / "prices"
    prices_dir.mkdir()
    rng = np.random.default_rng(0)
    start = date(2005, 1, 1)
    days = [start + timedelta(days=i) for i in range(50)]
    market = [100.0]
    for r in rng.uniform(-0.01, 0.01, size=49):
        market.append(market[-1] * (1 + r))
    index_path = prices_dir / "IDX.csv"
    write_price_csv(index_path, list(zip(days, market)))
    event_index = days.index(date(2005, 2, 14))
    for ticker, jump, base in (("AAA", 0.08, 50.0), ("BBB", -0.08, 20.0)):
        prices = [base]
        for i in range(1, len(days)):
            r = market[i] / market[i - 1] - 1.0
            if i == event_index:
                r += jump
            prices.append(prices[-1] * (1 + r))
        write_price_csv(prices_dir / f"{ticker}.csv", list(zip(days, prices)))
    return prices_dir, index_path


class TestPreprocess:
    def test_tiny_corpus_succeeds_with_stats(self, tmp_path, capsys):
        raw = news_corpus(tmp_path)
        cfg = write_config(tmp_path / "demo.cfg")
        out = tmp_path / "processed.jsonl"
        assert main(["preprocess", str(raw), str(out), "--config", str(cfg)]) == 0
        assert out.exists()
        err = capsys.readouterr().err
        assert "documents: 2 in, 2 kept" in err
        assert "vocabulary:" in err
        docs = load_corpus(out)
        assert all(d.sentences for d in docs)
        assert all(s.tokens for d in docs for s in d.sentences)

    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["preprocess"]) == 2

    def test_nonexistent_input_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert main(["preprocess", str(tmp_path / "nope.jsonl"), str(out)]) == 2

    def test_all_docs_too_short_warns_and_writes_empty(self, tmp_path, capsys):
        raw = tmp_path / "short.jsonl"
        write_jsonl(raw, [
            {"id": "a", "ticker": "X", "published_at": "2005-01-01", "text": "tiny doc."},
        ])
        out = tmp_path / "processed.jsonl"
        assert main(["preprocess", str(raw), str(out)]) == 0
        assert load_corpus(out) == []
        assert "warning" in capsys.readouterr().err

    def test_manifest_written(self, tmp_path):
        raw = news_corpus(tmp_path)
        out = tmp_path / "processed.jsonl"
        cfg = write_config(tmp_path / "demo.cfg")
        main(["preprocess", str(raw), str(out), "--config", str(cfg)])
        manifest = json.loads((tmp_path / "processed.jsonl.manifest.json").read_text())
        assert manifest["command"] == "preprocess"
        assert manifest["metrics"]["documents_out"] == 2
        assert manifest["config"]["min_count"] == 1


class TestLabel:
    def test_labels_and_counts(self, tmp_path, capsys):
        raw = news_corpus(tmp_path)
        prices_dir, index_path = price_fixtures(tmp_path)
        cfg = write_config(tmp_path / "demo.cfg")
        out = tmp_path / "labeled.jsonl"
        rc = main(["label", str(raw), str(prices_dir), str(index_path), str(out),
                   "--config", str(cfg)])
        assert rc == 0
        docs = {d.id: d for d in load_corpus(out)}
        assert docs["up1"].label == 1
        assert docs["dn1"].label == 0
        err = capsys.readouterr().err
        assert "1 positive (50.00%)" in err
        assert "1 negative (50.00%)" in err

    def test_missing_ticker_dropped_and_reported(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_jsonl(raw, [
            {"id": "a", "ticker": "NOPE", "published_at": "2005-02-14", "text": "x"},
        ])
        prices_dir, index_path = price_fixtures(tmp_path)
        out = tmp_path / "labeled.jsonl"
        cfg = write_config(tmp_path / "demo.cfg")
        rc = main(["label", str(raw), str(prices_dir), str(index_path), str(out),
                   "--config", str(cfg)])
        assert rc == 0
        assert load_corpus(out) == []
        err = capsys.readouterr().err
        assert "no price series" in err and "a:" in err.replace("- a", "a")

    def test_all_zero_abnormal_returns_warns(self, tmp_path, capsys):
        # exact +/-0.5 alternating returns make the fitted model exact and
        # the event-day abnormal return exactly zero
        start = date(2005, 1, 1)
        days = [start + timedelta(days=i) for i in range(32)]
        prices = [float(2 ** 20)]
        for i in range(31):
            prices.append(prices[-1] * (1.5 if i % 2 == 0 else 0.5))
        prices_dir = tmp_path / "prices"
        prices_dir.mkdir()
        write_price_csv(prices_dir / "ZRO.csv", list(zip(days, prices)))
        index_path = tmp_path / "idx.csv"
        write_price_csv(index_path, list(zip(days, prices)))
        raw = tmp_path / "raw.jsonl"
        write_jsonl(raw, [
            {"id": "z", "ticker": "ZRO", "published_at": days[-1].isoformat(), "text": "x"},
        ])
        out = tmp_path / "labeled.jsonl"
        cfg = write_config(tmp_path / "demo.cfg")
        rc = main(["label", str(raw), str(prices_dir), str(index_path), str(out),
                   "--config", str(cfg)])
        assert rc == 0
        assert load_corpus(out) == []
        err = capsys.readouterr().err
        assert "no documents could be labeled" in err
        assert "zero abnormal return" in err


class TestTrain:
    def test_writes_model_trace_and_accuracy(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path)
        model_path = tmp_path / "model.json"
        rc = main(["train", str(corpus), str(vectors), str(model_path),
                   "--embedding-format", "sentence", "--epochs", "5", "--seed", "3"])
        assert rc == 0
        assert model_path.exists()
        err = capsys.readouterr().err
        assert "loss trace" in err
        assert "in-sample document accuracy" in err
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["metrics"]["final_loss"] < manifest["metrics"]["initial_loss"]
        assert len(manifest["metrics"]["loss_trace"]) == 6

    def test_singleton_grid_equals_plain_train(self, tmp_path):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path)
        plain = tmp_path / "plain.json"
        gridded = tmp_path / "grid.json"
        base = ["--embedding-format", "sentence", "--epochs", "3", "--seed", "3",
                "--lambda", "10", "--learning-rate", "0.05", "--momentum", "0.8"]
        assert main(["train", str(corpus), str(vectors), str(plain)] + base) == 0
        assert main(["train", str(corpus), str(vectors), str(gridded)] + base
                    + ["--grid", "lambda=10;learning_rate=0.05;momentum=0.8"]) == 0
        assert plain.read_bytes() == gridded.read_bytes()

    def test_conflicting_dim_is_usage_error(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path)
        model_path = tmp_path / "model.json"
        rc = main(["train", str(corpus), str(vectors), str(model_path),
                   "--embedding-format", "sentence", "--dim", "99"])
        assert rc == 2
        assert "conflicts" in capsys.readouterr().err

    def test_hash_embedder_needs_no_file(self, tmp_path):
        corpus, _, _ = synthetic_corpus_files(tmp_path)
        model_path = tmp_path / "model.json"
        rc = main(["train", str(corpus), "hash", str(model_path),
                   "--dim", "12", "--epochs", "1", "--seed", "0"])
        assert rc == 0
        record = json.loads(model_path.read_text())
        assert record["dim"] == 12

    def test_gamma_median_accepted(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=10)
        model_path = tmp_path / "model.json"
        rc = main(["train", str(corpus), str(vectors), str(model_path),
                   "--embedding-format", "sentence", "--epochs", "1",
                   "--gamma", "median"])
        assert rc == 0
        assert "median-heuristic gamma" in capsys.readouterr().err


class TestPredict:
    def test_recovers_synthetic_sentence_labels(self, tmp_path):
        corpus, vectors, truth = synthetic_corpus_files(
            tmp_path, n_groups=200, instances=5, dim=16, seed=42
        )
        model_path = tmp_path / "model.json"
        predicted_path = tmp_path / "predicted.jsonl"
        assert main(["train", str(corpus), str(vectors), str(model_path),
                     "--embedding-format", "sentence", "--seed", "7"]) == 0
        assert main(["predict", str(model_path), str(corpus), str(vectors),
                     str(predicted_path), "--embedding-format", "sentence"]) == 0
        docs = load_corpus(predicted_path)
        predicted = np.array([
            s.predicted_label for d in docs for s in d.sentences
        ])
        agreement = float(np.mean(predicted == truth))
        assert agreement >= 0.95
        summary = json.loads((tmp_path / "predicted.jsonl.docs.json").read_text())
        assert len(summary) == 200
        assert set(summary["g000"]) == {"label", "positive_sentences", "negative_sentences"}
        # one vote rule behind predict's summary and evaluate's document mode
        votes = []
        for doc in docs:
            scores = [s.score for s in doc.sentences]
            assert [s.predicted_label for s in doc.sentences] == [int(x >= 0.5) for x in scores]
            label, pos, neg = naive_document_vote(scores)
            assert summary[doc.id] == {"label": "pos" if label else "neg",
                                       "positive_sentences": pos, "negative_sentences": neg}
            votes.append({"id": doc.id, "ticker": doc.ticker, "text": doc.raw_text,
                          "published_at": doc.published_at.isoformat(),
                          "label": summary[doc.id]["label"]})
        votes_path, report = tmp_path / "votes.jsonl", tmp_path / "report.json"
        write_jsonl(votes_path, votes)
        assert main(["evaluate", str(votes_path), f"mil={predicted_path}", "--mode", "document",
                     "--format", "json", "--out", str(report)]) == 0
        assert json.loads(report.read_text())["methods"]["mil"]["accuracy"] == 1.0

    def test_empty_corpus_gives_empty_output(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        model_path = tmp_path / "model.json"
        main(["train", str(corpus), str(vectors), str(model_path),
              "--embedding-format", "sentence", "--epochs", "1"])
        out = tmp_path / "out.jsonl"
        assert main(["predict", str(model_path), str(empty), str(vectors), str(out),
                     "--embedding-format", "sentence"]) == 0
        assert load_corpus(out) == []

    def test_corrupted_model_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        out = tmp_path / "out.jsonl"
        rc = main(["predict", str(bad), str(corpus), str(vectors), str(out),
                   "--embedding-format", "sentence"])
        assert rc == 2

    def test_dim_mismatch_is_usage_error(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5, dim=8)
        model_path = tmp_path / "model.json"
        main(["train", str(corpus), str(vectors), str(model_path),
              "--embedding-format", "sentence", "--epochs", "1"])
        out = tmp_path / "out.jsonl"
        rc = main(["predict", str(model_path), str(corpus), "hash", str(out),
                   "--dim", "9"])
        assert rc == 2
        assert "conflicts with model dimension" in capsys.readouterr().err


class TestDeterminism:
    def test_same_manifest_gives_byte_identical_models(self, tmp_path):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["--embedding-format", "sentence", "--epochs", "4", "--seed", "11",
                "--threads", "1"]
        assert main(["train", str(corpus), str(vectors), str(m1)] + argv) == 0
        assert main(["train", str(corpus), str(vectors), str(m2)] + argv) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_predictions_byte_identical(self, tmp_path):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=20)
        model_path = tmp_path / "model.json"
        main(["train", str(corpus), str(vectors), str(model_path),
              "--embedding-format", "sentence", "--epochs", "2", "--seed", "1"])
        p1, p2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        for p in (p1, p2):
            assert main(["predict", str(model_path), str(corpus), str(vectors), str(p),
                         "--embedding-format", "sentence"]) == 0
        assert p1.read_bytes() == p2.read_bytes()


def evaluation_files(tmp_path):
    """Gold corpus plus two prediction corpora (one perfect, one mixed)."""
    gold_records, perfect, mixed = [], [], []
    labels = [[1, 1, 0], [0, 0, 1], [1, 0, 1]]
    for i, sentence_labels in enumerate(labels):
        base = {
            "id": f"d{i}",
            "ticker": "X",
            "published_at": f"2005-01-0{i + 1}",
            "text": "irrelevant",
            "sentences": [f"s{j}" for j in range(3)],
        }
        text_labels = ["pos" if lab else "neg" for lab in sentence_labels]
        gold_records.append({**base, "sentence_labels": text_labels,
                             "label": text_labels[0]})
        perfect.append({**base, "sentence_labels": text_labels,
                        "sentence_scores": [0.9 if lab else 0.1 for lab in sentence_labels]})
        flipped = ["neg" if lab else "pos" for lab in sentence_labels]
        mixed.append({**base, "sentence_labels": [text_labels[0]] + flipped[1:],
                      "sentence_scores": None})
    gold_path = tmp_path / "gold.jsonl"
    perfect_path = tmp_path / "perfect.jsonl"
    mixed_path = tmp_path / "mixed.jsonl"
    write_jsonl(gold_path, gold_records)
    write_jsonl(perfect_path, perfect)
    for record in mixed:
        record.pop("sentence_scores")
    write_jsonl(mixed_path, mixed)
    return gold_path, perfect_path, mixed_path


class TestEvaluate:
    def test_perfect_predictions_full_marks(self, tmp_path, capsys):
        gold, perfect, _ = evaluation_files(tmp_path)
        rc = main(["evaluate", str(gold), f"mil={perfect}", "--mode", "sentence"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "100.00 %" in out
        assert out.splitlines()[0].startswith("Out-of-sample")

    def test_one_row_per_method(self, tmp_path, capsys):
        gold, perfect, mixed = evaluation_files(tmp_path)
        rc = main(["evaluate", str(gold), f"mil={perfect}", f"bow={mixed}",
                   "--mode", "sentence"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("mil") for line in lines)
        assert any(line.startswith("bow") for line in lines)

    def test_hand_confusion_renders_precision(self, tmp_path, capsys):
        # tp=3 fp=1 fn=2 tn=4 -> precision 75.00%
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold_labels = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        pred_labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        base = {"ticker": "X", "text": "x"}
        write_jsonl(gold, [{
            **base, "id": "d0", "published_at": "2005-01-01",
            "sentences": [f"s{i}" for i in range(10)],
            "sentence_labels": ["pos" if lab else "neg" for lab in gold_labels],
        }])
        write_jsonl(pred, [{
            **base, "id": "d0", "published_at": "2005-01-01",
            "sentences": [f"s{i}" for i in range(10)],
            "sentence_labels": ["pos" if lab else "neg" for lab in pred_labels],
        }])
        rc = main(["evaluate", str(gold), f"m={pred}", "--mode", "sentence"])
        assert rc == 0
        assert "75.00 %" in capsys.readouterr().out

    def test_document_mode(self, tmp_path, capsys):
        gold, perfect, _ = evaluation_files(tmp_path)
        rc = main(["evaluate", str(gold), f"mil={perfect}", "--mode", "document"])
        assert rc == 0
        assert "document-level" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        gold, perfect, _ = evaluation_files(tmp_path)
        rc = main(["evaluate", str(gold), f"mil={perfect}", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["methods"]["mil"]["accuracy"] == 1.0

    def test_mismatched_sentence_counts_fail(self, tmp_path, capsys):
        gold, perfect, _ = evaluation_files(tmp_path)
        bad = tmp_path / "bad.jsonl"
        write_jsonl(bad, [{
            "id": "d0", "ticker": "X", "published_at": "2005-01-01", "text": "x",
            "sentences": ["only one"], "sentence_labels": ["pos"],
        }])
        rc = main(["evaluate", str(gold), f"m={bad}", "--mode", "sentence"])
        assert rc == 1
        assert "mismatch" in capsys.readouterr().err


class TestRender:
    def _predicted_corpus(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        write_jsonl(path, [{
            "id": "doc1", "ticker": "X", "published_at": "2005-05-12", "text": "x",
            "sentences": ["good news here.", "bad news there.", "more good news."],
            "sentence_labels": ["pos", "neg", "pos"],
            "sentence_scores": [0.9, 0.1, 0.8],
        }])
        return path

    def test_ansi_alternating_runs(self, tmp_path, capsys):
        corpus = self._predicted_corpus(tmp_path)
        assert main(["render", str(corpus), "doc1"]) == 0
        out = capsys.readouterr().out
        assert out.count("\x1b[47;30m") == 2
        assert out.count("\x1b[100;97m") == 1
        assert out.count("\x1b[0m") == 3

    def test_html_one_span_per_sentence(self, tmp_path, capsys):
        corpus = self._predicted_corpus(tmp_path)
        assert main(["render", str(corpus), "doc1", "--format", "html"]) == 0
        out = capsys.readouterr().out
        assert out.count("<span") == 3
        assert out.count('class="pos"') == 2
        assert out.count('class="neg"') == 1

    def test_unknown_doc_id(self, tmp_path, capsys):
        corpus = self._predicted_corpus(tmp_path)
        assert main(["render", str(corpus), "nope"]) == 2

    def test_unpredicted_doc_hints_predict(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        write_jsonl(path, [{
            "id": "doc1", "ticker": "X", "published_at": "2005-05-12", "text": "x",
            "sentences": ["a sentence."],
        }])
        assert main(["render", str(path), "doc1"]) == 2
        assert "predict" in capsys.readouterr().err


class TestConfigFile:
    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        raw = news_corpus(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert main(["preprocess", str(raw), str(tmp_path / "o.jsonl"),
                     "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_env_var_supplies_default_config(self, tmp_path, monkeypatch, capsys):
        raw = news_corpus(tmp_path)
        cfg = write_config(tmp_path / "demo.cfg")
        monkeypatch.setenv("MILSENT_CONFIG", str(cfg))
        out = tmp_path / "o.jsonl"
        assert main(["preprocess", str(raw), str(out)]) == 0
        manifest = json.loads((tmp_path / "o.jsonl.manifest.json").read_text())
        assert manifest["config"]["min_count"] == 1

    def test_seed_key_is_usage_error(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = 5\n")
        rc = main(["train", str(corpus), str(vectors), str(tmp_path / "model.json"),
                   "--embedding-format", "sentence", "--epochs", "1", "--config", str(cfg)])
        assert rc == 2
        assert "'seed'" in capsys.readouterr().err

    def test_config_flag_only_where_read(self, tmp_path):
        cfg = str(write_config(tmp_path / "demo.cfg"))
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        model, predicted = str(tmp_path / "model.json"), str(tmp_path / "predicted.jsonl")
        assert main(["train", str(corpus), str(vectors), model, "--embedding-format",
                     "sentence", "--epochs", "1", "--config", cfg]) == 0
        for argv in (
            ["predict", model, str(corpus), str(vectors), predicted,
             "--embedding-format", "sentence"],
            ["evaluate", str(corpus), predicted, "--mode", "document"],
            ["render", predicted, "g000"],
        ):
            assert main(argv + ["--config", cfg]) == 2
            assert main(argv) == 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_vector_file_rejected_with_line(self, tmp_path, capsys, bad):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        model_path = tmp_path / "model.json"
        assert main(["train", str(corpus), str(vectors), str(model_path),
                     "--embedding-format", "sentence", "--epochs", "1"]) == 0
        lines = vectors.read_text().splitlines()
        key, values = lines[2].split("\t")
        lines[2] = key + "\t" + " ".join([bad] + values.split()[1:])
        vectors.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["predict", str(model_path), str(corpus), str(vectors),
                   str(tmp_path / "out.jsonl"), "--embedding-format", "sentence"])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(vectors) in err and "line 3" in err

    @pytest.mark.parametrize("score,label", [
        (float("nan"), "neg"), (float("inf"), "pos"), ("0.9", "pos"), (True, "pos"),
    ], ids=["nan", "inf", "string", "bool"])
    def test_corpus_score_rejected_with_line(self, tmp_path, capsys, score, label):
        gold, perfect, _ = evaluation_files(tmp_path)
        records = [json.loads(line) for line in perfect.read_text().splitlines()]
        records[1]["sentence_scores"][0] = score
        records[1]["sentence_labels"][0] = label
        write_jsonl(perfect, records)
        rc = main(["evaluate", str(gold), f"mil={perfect}", "--mode", "document"])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_return_is_not_saved(self, tmp_path, capsys):
        # a nan or inf event-day close would yield a non-finite abnormal
        # return, which has no JSON form: the price file is rejected, naming
        # the row, before anything is written
        for close in ("nan", "inf"):
            work = tmp_path / close
            work.mkdir()
            raw = news_corpus(work)
            prices_dir, index_path = price_fixtures(work)
            prices = prices_dir / "BBB.csv"
            lines = prices.read_text().splitlines()
            row = next(i for i, line in enumerate(lines, 1) if line.startswith("2005-02-14"))
            lines[row - 1] = f"2005-02-14,{close}"
            prices.write_text("\n".join(lines) + "\n")
            out = work / "labeled.jsonl"
            cfg = write_config(work / "demo.cfg")
            rc = main(["label", str(raw), str(prices_dir), str(index_path), str(out),
                       "--config", str(cfg)])
            assert rc == 1
            err = capsys.readouterr().err
            assert str(prices) in err and f"row {row}" in err
            assert not out.exists()

    def test_overflowing_score_names_document(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        model_path = tmp_path / "model.json"
        save_model(MilModel(theta=np.ones(8), dim=8, config=TrainConfig(use_bias=False)),
                   model_path)
        lines = vectors.read_text().splitlines()
        key, values = lines[2].split("\t")
        assert key.startswith("g000:")
        lines[2] = key + "\t" + " ".join(["1e308"] * len(values.split()))
        vectors.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        rc = main(["predict", str(model_path), str(corpus), str(vectors), str(out),
                   "--embedding-format", "sentence"])
        assert rc == 1
        assert "g000" in capsys.readouterr().err
        assert not out.exists()
