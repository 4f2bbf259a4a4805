import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import milsent
from milsent import cli, embed
from milsent.cli import main
from milsent.corpus import (CorpusError, Document, SentenceInstance, Sentences, load_corpus,
                            save_corpus)
from milsent.embed import load_embeddings
from milsent.eventstudy import EventLabelConfig
from milsent.mil import (MilModel, TrainConfig, TrainingError, generate_synthetic, load_model,
                         save_model)
from milsent.preprocess import PreprocessConfig
from conftest import write_jsonl, write_price_csv
from reference import (naive_document_pairs, naive_document_vote, naive_embed_matrix,
                       naive_majority_label, naive_predict, naive_sentence_pairs)


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

    def test_manifest_spans_the_run(self, tmp_path, monkeypatch):
        def slow_load(path):
            time.sleep(0.2)
            return load_corpus(path)

        monkeypatch.setattr(cli, "load_corpus", slow_load)
        out = tmp_path / "processed.jsonl"
        assert main(["preprocess", str(news_corpus(tmp_path)), str(out)]) == 0
        manifest = json.loads((tmp_path / "processed.jsonl.manifest.json").read_text())
        started, finished = (datetime.fromisoformat(manifest[key])
                             for key in ("started_at", "finished_at"))
        assert (finished - started).total_seconds() >= 0.2


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
        assert "dropped (no price series" in err
        # each dropped document is named in the manifest, not on stderr
        assert "a:" not in err
        metrics = json.loads((tmp_path / "labeled.jsonl.manifest.json").read_text())["metrics"]
        reason = metrics["dropped_documents"][0][1]
        assert metrics["dropped_documents"] == [["a", reason]]
        assert "no price series" in reason
        assert metrics["dropped"] == 1 and metrics["dropped_by_reason"] == {reason: 1}

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

    def test_each_drop_is_listed_once(self, tmp_path):
        # a separate process, so that a log record would reach the real stderr
        raw = tmp_path / "raw.jsonl"
        write_jsonl(raw, [
            {"id": "orphan-doc", "ticker": "NOPE", "published_at": "2005-02-14", "text": "x"},
            {"id": "early-doc", "ticker": "AAA", "published_at": "2005-01-02", "text": "x"},
        ])
        prices_dir, index_path = price_fixtures(tmp_path)
        cfg = write_config(tmp_path / "demo.cfg")
        env = {**os.environ, "PYTHONPATH": str(Path(milsent.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "milsent.cli", "label", str(raw), str(prices_dir),
             str(index_path), str(tmp_path / "labeled.jsonl"), "--config", str(cfg)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        # stderr gives counts per reason; the manifest lists each document once
        assert "orphan-doc" not in proc.stderr and "early-doc" not in proc.stderr
        metrics = json.loads((tmp_path / "labeled.jsonl.manifest.json").read_text())["metrics"]
        assert [doc_id for doc_id, _ in metrics["dropped_documents"]] == ["orphan-doc",
                                                                         "early-doc"]
        assert sum(metrics["dropped_by_reason"].values()) == metrics["dropped"] == 2


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

    def test_zero_vector_sentences_summarized(self, tmp_path, capsys):
        corpus, vectors = word_average_files(tmp_path, n_docs=6)
        model_path = tmp_path / "model.json"
        assert main(["train", str(corpus), str(vectors), str(model_path),
                     "--epochs", "1", "--seed", "3"]) == 0
        err = capsys.readouterr().err
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        zero = manifest["metrics"]["zero_vector_sentences"]
        assert zero >= 2
        assert err.count("zero vector") == 1
        assert f"warning: {zero} of {manifest['metrics']['instances']} sentences" in err

    def test_no_zero_vector_line_without_zero_vectors(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        model_path = tmp_path / "model.json"
        assert main(["train", str(corpus), str(vectors), str(model_path),
                     "--embedding-format", "sentence", "--epochs", "1"]) == 0
        assert "zero vector" not in capsys.readouterr().err
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["metrics"]["zero_vector_sentences"] == 0

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

    def test_grid_trains_each_cell_once(self, tmp_path, monkeypatch):
        # the selected cell's result is kept, not trained a second time
        corpus, vectors, _ = synthetic_corpus_files(tmp_path)
        calls = []
        real_train = cli.mil.train

        def counting(dataset, config=None):
            calls.append(config)
            return real_train(dataset, config)

        monkeypatch.setattr(cli.mil, "train", counting)
        rc = main(["train", str(corpus), str(vectors), str(tmp_path / "model.json"),
                   "--embedding-format", "sentence", "--epochs", "2", "--seed", "3",
                   "--grid", "lambda=1,10;learning_rate=0.05;momentum=0,0.8"])
        assert rc == 0
        assert len(calls) == 4
        assert len(set(calls)) == 4

    def test_tied_grid_selects_the_smallest_cell_in_the_given_order(self, tmp_path, capsys):
        """With no epoch every cell ties: the smallest (lambda, learning_rate,
        momentum) is selected, and stderr and the manifest list the cells
        lambda-major, then learning_rate, then momentum, whatever the order
        of the entries, each axis's values in the order given."""
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=8)
        model = tmp_path / "model.json"
        assert main(["train", str(corpus), str(vectors), str(model),
                     "--embedding-format", "sentence", "--epochs", "0",
                     "--grid", "momentum=0.8,0;lambda=10,1;learning_rate=0.5,0.05"]) == 0
        cells = list(itertools.product((10.0, 1.0), (0.5, 0.05), (0.8, 0.0)))
        err = capsys.readouterr().err
        listed = [line.split(":")[0] for line in err.splitlines() if line.startswith("  lambda=")]
        assert listed == [f"  lambda={lam} learning_rate={lr} momentum={mom}"
                          for lam, lr, mom in cells]
        assert "\nselected: lambda=1.0 learning_rate=0.05 momentum=0.0\n" in err
        grid = json.loads((tmp_path / "model.json.manifest.json").read_text())["metrics"]["grid"]
        assert [(c["lambda"], c["learning_rate"], c["momentum"]) for c in grid] == cells
        assert len({c["accuracy"] for c in grid}) == 1
        assert {c["error"] for c in grid} == {None}
        saved = json.loads(model.read_text())["config"]
        assert (saved["lam"], saved["learning_rate"], saved["momentum"]) == (1.0, 0.05, 0.0)

    def test_grid_whose_every_cell_fails_names_the_first_error(self, tmp_path, capsys,
                                                              monkeypatch):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)

        def failing(dataset, config=None):
            raise TrainingError(f"no step at lambda {config.lam}")

        monkeypatch.setattr(cli.mil, "train", failing)
        model = tmp_path / "model.json"
        assert main(["train", str(corpus), str(vectors), str(model),
                     "--embedding-format", "sentence", "--grid", "lambda=2,1"]) == 1
        assert capsys.readouterr().err == (
            "error: every grid configuration failed to train; the first: no step at lambda 2.0\n")
        assert not model.exists()

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

    @pytest.mark.parametrize("gamma", [[], ["--gamma", "median"]], ids=["fixed", "median"])
    def test_empty_corpus_names_the_corpus(self, tmp_path, capsys, gamma):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        model_path = tmp_path / "model.json"
        assert main(["train", str(empty), "hash", str(model_path), *gamma]) == 1
        assert capsys.readouterr().err == f"error: {empty}: no documents to train on\n"
        assert not model_path.exists()

    def test_unlabelled_document_names_the_corpus(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=3)
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        del records[1]["label"]
        write_jsonl(corpus, records)
        rc = main(["train", str(corpus), str(vectors), str(tmp_path / "model.json"),
                   "--embedding-format", "sentence"])
        assert rc == 1
        assert f"error: {corpus}: document g001 has no label" in capsys.readouterr().err

    def test_gamma_median_accepted(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=10)
        model_path = tmp_path / "model.json"
        rc = main(["train", str(corpus), str(vectors), str(model_path),
                   "--embedding-format", "sentence", "--epochs", "1",
                   "--gamma", "median"])
        assert rc == 0
        assert "median-heuristic gamma" in capsys.readouterr().err


def word_average_files(tmp_path, n_docs=40, seed=8):
    """A word-vector file and a labelled corpus whose sentences mix given and
    missing tokens, repeats, out-of-vocabulary words and token-less text."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    vectors = tmp_path / "words.txt"
    with open(vectors, "w", encoding="utf-8") as handle:
        for w in words:
            vec = rng.standard_normal(6) * 10.0 ** rng.uniform(-2, 2)
            handle.write(w + " " + " ".join(repr(float(v)) for v in vec) + "\n")
    records = []
    for d in range(n_docs):
        sentences = [list(rng.choice(words + ["oov"], size=int(rng.integers(1, 14))))
                     for _ in range(int(rng.integers(1, 6)))]
        records.append({
            "id": f"d{d:02d}", "ticker": "X", "published_at": "2005-01-03", "text": "t",
            "sentences": [" ".join(s) for s in sentences],
            "sentence_tokens": [s if d % 3 else None for s in sentences],
            "label": "pos" if d % 2 else "neg",
        })
    records.append({"id": "zeros", "ticker": "X", "published_at": "2005-01-04", "text": "t",
                     "sentences": ["oov oov", "...", "w1 oov"], "label": "neg"})
    corpus = tmp_path / "words.jsonl"
    write_jsonl(corpus, records)
    return corpus, vectors


class TestPredict:
    def test_equals_per_document_stacking_byte_for_byte(self, tmp_path, capsys):
        corpus, vectors = word_average_files(tmp_path)
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": "bare", "ticker": "X",
                                     "published_at": "2005-01-05", "text": "t"}) + "\n")
        model_path, out = tmp_path / "model.json", tmp_path / "pred.jsonl"
        rng = np.random.default_rng(3)
        save_model(MilModel(theta=rng.standard_normal(7), dim=6, config=TrainConfig()), model_path)
        assert main(["predict", str(model_path), str(corpus), str(vectors), str(out)]) == 0

        ref_docs, summaries = naive_predict(
            load_model(model_path), load_corpus(corpus), load_embeddings(vectors))
        ref = tmp_path / "ref.jsonl"
        save_corpus(ref_docs, ref)
        assert out.read_bytes() == ref.read_bytes()
        assert (tmp_path / "pred.jsonl.docs.json").read_text() == \
            json.dumps(summaries, indent=2, sort_keys=True) + "\n"
        assert "bare" not in summaries and load_corpus(out)[-1].sentences == Sentences()
        # one summary line and one manifest count for the zero-vector sentences
        X = naive_embed_matrix(load_corpus(corpus), load_embeddings(vectors))
        zero = [x for x in X if not x.any()]
        assert len(zero) >= 2
        total = len(X)
        err = capsys.readouterr().err
        assert err.count("zero vector") == 1
        assert f"warning: {len(zero)} of {total} sentences embedded as the zero vector" in err
        manifest = json.loads((tmp_path / "pred.jsonl.manifest.json").read_text())
        assert manifest["metrics"] == {"zero_vector_sentences": len(zero)}

    @pytest.mark.parametrize("gather_rows", [5, embed.GATHER_ROWS])
    def test_corpus_scores_equal_per_document_scoring(self, tmp_path, monkeypatch,
                                                       gather_rows):
        """Documents of 1 to 12 sentences, and documents without sentences,
        embedded `gather_rows` token rows at a time (1030 one-sentence
        documents exceed the real gather): the whole corpus, scored in one
        call, byte for byte against scoring each document's rows alone."""
        monkeypatch.setattr(embed, "GATHER_ROWS", gather_rows)
        rng = np.random.default_rng(12)
        words = [f"w{i}" for i in range(40)]
        vectors = tmp_path / "words.txt"
        vectors.write_text("".join(
            w + " " + " ".join(repr(float(v)) for v in rng.standard_normal(5) * 3) + "\n"
            for w in words))
        counts = [int(k) for k in rng.permutation(np.repeat(np.arange(13), 9))]
        counts += [1] * 1030 if gather_rows == embed.GATHER_ROWS else []
        write_jsonl(tmp_path / "c.jsonl", [
            {"id": f"d{i:04d}", "ticker": "X", "published_at": "2005-01-03", "text": "t",
             "sentences": [" ".join(rng.choice(words, size=int(rng.integers(1, 6))))
                           for _ in range(k)]}
            for i, k in enumerate(counts)])
        model_path, out = tmp_path / "model.json", tmp_path / "pred.jsonl"
        save_model(MilModel(theta=rng.standard_normal(6), dim=5, config=TrainConfig()),
                   model_path)
        assert main(["predict", str(model_path), str(tmp_path / "c.jsonl"), str(vectors),
                     str(out)]) == 0
        ref_docs, summaries = naive_predict(load_model(model_path),
                                            load_corpus(tmp_path / "c.jsonl"),
                                            load_embeddings(vectors))
        save_corpus(ref_docs, tmp_path / "ref.jsonl")
        assert out.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        assert (tmp_path / "pred.jsonl.docs.json").read_text() == \
            json.dumps(summaries, indent=2, sort_keys=True) + "\n"
        assert len(summaries) == len(counts) - counts.count(0)

    def test_overflow_names_the_first_document_in_corpus_order(self, tmp_path, capsys):
        """Documents g000-g011 have three sentences and g012-g013 two; g007
        row 1 overflows, and so do g010's last row and g013's first: the
        message names g007, the first in corpus order."""
        sizes = [3] * 12 + [2, 2]
        bad = {("g007", 1), ("g010", 2), ("g013", 0)}
        rng = np.random.default_rng(5)
        records, lines = [], []
        for g, k in enumerate(sizes):
            doc_id = f"g{g:03d}"
            records.append({"id": doc_id, "ticker": "X", "published_at": "2005-01-03",
                            "text": "t", "sentences": [f"s{i}." for i in range(k)]})
            for i in range(k):
                row = ["1e308"] * 4 if (doc_id, i) in bad else \
                    [repr(float(v)) for v in rng.standard_normal(4)]
                lines.append(f"{doc_id}:{i}\t" + " ".join(row))
        write_jsonl(tmp_path / "c.jsonl", records)
        (tmp_path / "v.tsv").write_text("\n".join(lines) + "\n")
        model_path, out = tmp_path / "model.json", tmp_path / "out.jsonl"
        save_model(MilModel(theta=np.ones(4), dim=4, config=TrainConfig(use_bias=False)),
                   model_path)
        rc = main(["predict", str(model_path), str(tmp_path / "c.jsonl"),
                   str(tmp_path / "v.tsv"), str(out), "--embedding-format", "sentence"])
        assert rc == 1
        assert "error: document g007: row 1: linear score inf is not finite" in \
            capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("field,bad,message", [
        ("theta", "[NaN", "theta contains non-finite values"),
        ("theta", "[Infinity", "theta contains non-finite values"),
        ("theta", "[-Infinity", "theta contains non-finite values"),
        # numbers that overflow a float
        ("theta", "[1" + "0" * 400, "int too large to convert to float"),
        ("dim", "1e400", "dim must be a JSON int, got inf"),
        # JSON values of the wrong type
        ("dim", "2.7", "dim must be a JSON int, got 2.7"),
        ("dim", '"2"', "dim must be a JSON int, got '2'"),
        ("use_bias", '"false"', "config use_bias must be a JSON bool, got 'false'"),
    ], ids=["NaN", "Infinity", "-Infinity", "theta-400-digits", "dim-1e400", "dim-float",
            "dim-string", "use-bias-string"])
    def test_non_finite_theta_is_a_malformed_model(self, tmp_path, capsys, field, bad,
                                                   message):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5, dim=2)
        model_path = tmp_path / "model.json"
        save_model(MilModel(theta=np.ones(3), dim=2, config=TrainConfig()), model_path)
        good = {"theta": '"theta":[1.0', "dim": '"dim":2', "use_bias": '"use_bias":true'}[field]
        text = model_path.read_text()
        assert text.count(good) == 1
        model_path.write_text(text.replace(good, f'"{field}":{bad}'))
        out = tmp_path / "out.jsonl"
        rc = main(["predict", str(model_path), str(corpus), str(vectors), str(out),
                   "--embedding-format", "sentence"])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {model_path}: malformed model record: "
                                           f"{message}\n")
        assert not out.exists()

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


def _bare(doc_id):
    """A corpus record without sentences."""
    return {"id": doc_id, "ticker": "X", "published_at": "2005-01-05", "text": "t"}


class TestPredictChunks:
    """`predict` embeds and scores `PREDICT_CHUNK_DOCS` documents at a time;
    its outputs do not depend on where the chunks fall."""

    CHUNK = 4

    def _files(self, tmp_path, theta):
        corpus, vectors = word_average_files(tmp_path, n_docs=28)
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        # zero-vector sentences in chunk 0, as in the last document ("zeros")
        records.insert(1, {**_bare("zeros0"), "sentences": ["oov oov", "w2 w3", "..."]})
        # documents without sentences close chunk 0, open chunk 1, fill all
        # of chunk 2 and end the corpus, in a last chunk of one document
        for at, doc_id in ((3, "bare0"), (4, "bare1"), *((8 + i, f"bare{2 + i}")
                                                         for i in range(4))):
            records.insert(at, _bare(doc_id))
        records.append(_bare("bare_last"))
        assert len(records) % self.CHUNK == 1
        write_jsonl(corpus, records)
        model = tmp_path / "model.json"
        save_model(MilModel(theta=theta, dim=6, config=TrainConfig(use_bias=False)), model)
        return model, corpus, vectors

    def _predict(self, monkeypatch, capsys, chunk, *paths):
        monkeypatch.setattr(cli, "PREDICT_CHUNK_DOCS", chunk)
        capsys.readouterr()
        code = main(["predict", *map(str, paths)])
        return code, capsys.readouterr().err

    def test_outputs_equal_the_one_chunk_run(self, tmp_path, monkeypatch, capsys):
        model, corpus, vectors = self._files(tmp_path, np.random.default_rng(3).standard_normal(6))
        runs = {}
        for chunk in (self.CHUNK, 10_000):
            out = tmp_path / f"pred{chunk}.jsonl"
            code, err = self._predict(monkeypatch, capsys, chunk, model, corpus, vectors, out)
            assert code == 0
            metrics = json.loads(Path(f"{out}.manifest.json").read_text())["metrics"]
            runs[chunk] = out.read_bytes(), Path(f"{out}.docs.json").read_bytes(), err, metrics
        assert runs[self.CHUNK] == runs[10_000]

        # zero-vector sentences fall in several chunks, and one line gives
        # their total
        docs = load_corpus(corpus)
        X = embed.embed_matrix(docs, load_embeddings(vectors))
        doc_of_row = np.repeat(np.arange(len(docs)), [len(d.sentences) for d in docs])
        zero = ~X.any(axis=1)
        assert len(set((doc_of_row[zero] // self.CHUNK).tolist())) >= 2
        err = runs[self.CHUNK][2]
        assert err.count("zero vector") == 1
        assert f"warning: {zero.sum()} of {len(X)} sentences embedded as the zero vector" in err
        assert runs[self.CHUNK][3] == {"zero_vector_sentences": int(zero.sum())}

    def test_overflow_in_a_later_chunk_names_its_document(self, tmp_path, monkeypatch, capsys):
        model, corpus, vectors = self._files(tmp_path, np.ones(6))
        with open(vectors, "a", encoding="utf-8") as handle:
            handle.write("huge " + " ".join(["1e308"] * 6) + "\n")
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        for at, doc_id in ((14, "blowup"), (21, "blowup_later")):
            records.insert(at, {**_bare(doc_id), "sentences": ["w1 w2", "huge"]})
        write_jsonl(corpus, records)
        out = tmp_path / "out.jsonl"
        code, err = self._predict(monkeypatch, capsys, self.CHUNK, model, corpus, vectors, out)
        assert code == 1
        assert err == "error: document blowup: row 1: linear score inf is not finite\n"
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith((".out", "out"))] == []

    @pytest.mark.parametrize("embedding,message", [
        (["no-such-vectors.txt"], "embedding file not found: "),
        (["hash", "--dim", "99"], "embedding dimension 99 conflicts with model dimension 6"),
    ], ids=["missing-file", "wrong-dim"])
    def test_empty_corpus_still_checks_the_store(self, tmp_path, monkeypatch, capsys,
                                                 embedding, message):
        """The store is built and checked before the corpus is read: a store
        that cannot score the model's documents exits 2 and writes nothing,
        even for a corpus without documents."""
        model, _, _ = self._files(tmp_path, np.ones(6))
        empty, out = tmp_path / "empty.jsonl", tmp_path / "out.jsonl"
        empty.write_text("\n")
        if embedding[0] != "hash":
            embedding = [tmp_path / embedding[0]]
        code, err = self._predict(monkeypatch, capsys, self.CHUNK, model, empty, *embedding,
                                  out)
        assert code == 2 and err.startswith(f"error: {message}")
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith((".out", "out"))] == []


def _memory_corpus(path, n_docs, seed=0):
    """Gold-labelled documents of ten 40-token sentences over 40 words, about
    the length of a news article."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    records = []
    for d in range(n_docs):
        sentences = [list(rng.choice(words, size=40)) for _ in range(10)]
        labels = ["pos" if s.count("w0") > 1 else "neg" for s in sentences]
        records.append({"id": f"doc{d:05d}", "ticker": "X", "published_at": "2005-01-03",
                        "text": " ".join(w for s in sentences for w in s),
                        "sentences": [" ".join(s) for s in sentences],
                        "sentence_tokens": sentences, "sentence_labels": labels,
                        "label": labels[0]})
    write_jsonl(path, records)
    return path


class TestMemoryFollowsAChunk:
    """The tracemalloc peak of `predict` and `evaluate` on a corpus four
    times larger stays under 1.5 times the peak on the base corpus: they
    hold one chunk of documents, not the corpus. What does grow with the
    corpus is small: `predict`'s per-document votes and `evaluate`'s label
    columns, a few hundred bytes a document against the tens of kilobytes
    of one parsed document. Holding the corpus (16 and 64 documents here)
    reads close to 4 times the base peak."""

    def _peak(self, argv) -> int:
        tracemalloc.start()
        try:
            assert main([*map(str, argv)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_less_than_the_corpus(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "PREDICT_CHUNK_DOCS", 4)
        rng = np.random.default_rng(1)
        vectors = tmp_path / "words.txt"
        vectors.write_text("".join(
            f"w{i} " + " ".join(map(repr, rng.standard_normal(6).tolist())) + "\n"
            for i in range(40)))
        model = tmp_path / "model.json"
        save_model(MilModel(theta=rng.standard_normal(6), dim=6,
                            config=TrainConfig(use_bias=False)), model)
        peaks = {}
        # the first pass executes the layers and fills caches, outside the count
        for size in ("base", "base", "large"):
            gold = _memory_corpus(tmp_path / f"{size}.jsonl", 16 if size == "base" else 64)
            predicted = tmp_path / f"{size}.pred.jsonl"
            peaks[size] = (
                self._peak(["predict", model, gold, vectors, predicted]),
                *(self._peak(["evaluate", gold, f"mil={predicted}", "--mode", mode,
                              "--out", tmp_path / f"{size}.{mode}.txt"])
                  for mode in ("sentence", "document")))
        capsys.readouterr()
        for command, base, large in zip(("predict", "evaluate sentence", "evaluate document"),
                                        peaks["base"], peaks["large"]):
            assert large < 1.5 * base, (command, base, large)


class TestDeterminism:
    def test_same_manifest_gives_byte_identical_models(self, tmp_path):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["--embedding-format", "sentence", "--epochs", "4", "--seed", "11"]
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

    def test_document_mode_votes_each_prediction(self, tmp_path, capsys):
        """A tied vote goes by the mean score, or stays neutral without scores."""
        base = {"ticker": "X", "published_at": "2005-01-01", "text": "x"}
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        predictions = [("pos", ["pos", "neg"], [0.9, 0.4]),   # mean 0.65: pos
                       ("neg", ["pos", "neg"], [0.6, 0.1]),   # mean 0.35: neg
                       ("neg", ["pos", "pos", "neg"], None),  # majority: pos
                       ("pos", ["pos", "neg"], None)]         # tie, no scores: neutral
        write_jsonl(gold, [{**base, "id": f"d{i}", "label": label}
                           for i, (label, _, _) in enumerate(predictions)])
        write_jsonl(pred, [{**base, "id": f"d{i}", "sentences": ["s"] * len(labels),
                            "sentence_labels": labels, "sentence_scores": scores}
                           for i, (_, labels, scores) in enumerate(predictions)])
        assert main(["evaluate", str(gold), f"m={pred}", "--mode", "document",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["methods"]["m"]["accuracy"] == 0.5

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_manifest_records_each_report(self, tmp_path, capsys, fmt):
        """The manifest of `--out` holds each method's report; the report
        file is what the command prints without `--out`."""
        gold, perfect, mixed = evaluation_files(tmp_path)
        argv = ["evaluate", str(gold), f"mil={perfect}", f"bow={mixed}", "--format", fmt]
        out = tmp_path / "report.txt"
        assert main(argv) == 0
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        metrics = json.loads((tmp_path / "report.txt.manifest.json").read_text())["metrics"]
        assert main(argv[:-1] + ["json"]) == 0
        assert metrics == json.loads(capsys.readouterr().out)["methods"]
        assert list(metrics) == ["bow", "mil"] and metrics["mil"]["accuracy"] == 1.0

    def test_json_format(self, tmp_path, capsys):
        gold, perfect, _ = evaluation_files(tmp_path)
        rc = main(["evaluate", str(gold), f"mil={perfect}", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["methods"]["mil"]["accuracy"] == 1.0

    @pytest.mark.parametrize("entries", [
        ["mil={perfect}", "mil={gold}"],
        ["{perfect}", "perfect={mixed}"],
    ])
    def test_repeated_method_name_is_usage_error(self, tmp_path, capsys, entries):
        gold, perfect, mixed = evaluation_files(tmp_path)
        paths = {"gold": gold, "perfect": perfect, "mixed": mixed}
        out = tmp_path / "report.txt"
        argv = [entry.format(**paths) for entry in entries]
        assert main(["evaluate", str(gold), *argv, "--out", str(out)]) == 2
        name = argv[1].partition("=")[0]
        assert f"method name {name!r} given twice" in capsys.readouterr().err
        assert not out.exists()

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

    def test_malformed_record_names_its_file(self, tmp_path, capsys):
        # with several corpus inputs only the file name tells which is broken
        gold, perfect, _ = evaluation_files(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(perfect.read_text().splitlines()[0] + "\n{bad json\n")
        rc = main(["evaluate", str(gold), f"mil={bad}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}: line 2: malformed record" in err


def _labelled_docs(draw_labels, draw_scores, prefix):
    docs = []
    for i, (labels, scored) in enumerate(zip(draw_labels, draw_scores)):
        scores = [None if lab is None or not scored else (0.75 if lab else 0.25)
                  for lab in labels]
        docs.append(Document(f"{prefix}{i}", "X", date(2005, 1, 3), "t",
                             sentences=Sentences([f"s{j}" for j in range(len(labels))],
                                                 labels=labels, scores=scores)))
    return docs


LABEL_LISTS = st.lists(st.lists(st.sampled_from([None, 0, 1]), max_size=6), max_size=6)


class TestEvaluatePairingOracle:
    @settings(max_examples=300, deadline=None)
    @given(gold=LABEL_LISTS, predicted=LABEL_LISTS,
           scored=st.lists(st.booleans(), min_size=6, max_size=6),
           doc_labels=st.lists(st.sampled_from([None, 0, 1]), min_size=6, max_size=6),
           drop=st.sets(st.integers(0, 5), max_size=2))
    def test_pairs_and_votes_equal_the_per_sentence_code(self, gold, predicted, scored,
                                                         doc_labels, drop):
        gold_docs = [replace(doc, label=label) for doc, label in
                     zip(_labelled_docs(gold, [False] * len(gold), "d"), doc_labels)]
        pred_docs = [d for i, d in enumerate(_labelled_docs(predicted, scored, "d"))
                     if i not in drop]

        def outcome(pairing, *files):
            try:
                return pairing(*files)
            except CorpusError as exc:
                return str(exc)

        # what `evaluate` keeps of each file, by sentence and by document
        kept = {
            "sentence": ([(doc.id, doc.sentences.labels) for doc in gold_docs],
                         {doc.id: doc.sentences.labels for doc in pred_docs},
                         "gold sentence", naive_sentence_pairs),
            "document": ([(doc.id, (doc.label,)) for doc in gold_docs],
                         {doc.id: (cli._majority_label(doc),) for doc in pred_docs},
                         "document", naive_document_pairs),
        }
        for gold_labels, pred_labels, unit, naive in kept.values():
            assert outcome(cli._label_pairs, gold_labels, pred_labels, "p.jsonl", unit) == \
                outcome(naive, gold_docs, pred_docs, "p.jsonl")
        for doc in pred_docs:
            assert cli._majority_label(doc) == naive_majority_label(doc)


class TestNoSentenceObjects:
    def test_no_command_builds_one(self, tmp_path, monkeypatch):
        """Every command reads and writes the sentence columns: none builds a
        `SentenceInstance` view."""
        raw = news_corpus(tmp_path)
        prices_dir, index_path = price_fixtures(tmp_path)
        cfg = write_config(tmp_path / "demo.cfg")
        corpus, vectors = word_average_files(tmp_path, n_docs=12)
        model_path, out = tmp_path / "model.json", tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        write_jsonl(gold, [{**r, "sentence_labels": ["pos"] * len(r["sentences"])}
                           for r in records])
        built = []
        monkeypatch.setattr(SentenceInstance, "__post_init__", lambda self: built.append(self))
        commands = [
            ["preprocess", raw, tmp_path / "p.jsonl", "--config", cfg],
            ["label", tmp_path / "p.jsonl", prices_dir, index_path, tmp_path / "l.jsonl",
             "--config", cfg],
            ["train", corpus, vectors, model_path, "--epochs", "1"],
            ["predict", model_path, corpus, vectors, out],
            *(["evaluate", gold, f"mil={out}", "--mode", mode, "--out", tmp_path / f"{mode}.txt"]
              for mode in ("sentence", "document")),
            *(["render", out, "d01", "--format", fmt, "--out", tmp_path / f"d01.{fmt}"]
              for fmt in ("ansi", "html")),
        ]
        for argv in commands:
            assert main(list(map(str, argv))) == 0, argv
        assert built == []


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

    def test_a_bad_line_after_the_document_fails(self, tmp_path, capsys):
        """`render` keeps only the document it shows, but checks every line."""
        corpus = self._predicted_corpus(tmp_path)
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write("{bad json\n")
        assert main(["render", str(corpus), "doc1"]) == 1
        assert f"{corpus}: line 2: malformed record" in capsys.readouterr().err

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


LAYERS_PROBE = """
import json, sys, types
from milsent.cli import main
code = main(sys.argv[1:])
# a module registered for lazy loading is not yet a plain ModuleType, and
# reading its type does not load it
print(json.dumps([code, sorted(name for name, module in sys.modules.items()
                               if (name == "numpy" or name.startswith("milsent."))
                               and type(module) is types.ModuleType)]))
"""


def _probe(code: str, *argv) -> str:
    """The last stdout line of `code`, run with ARGV in a new interpreter."""
    src = str(Path(milsent.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env={**os.environ, "PYTHONPATH": src}, check=True,
                          capture_output=True, text=True)
    return done.stdout.splitlines()[-1]


def _executed_layers(*argv, exit_code=0) -> set[str]:
    """The layers (and numpy) that `milsent ARGV`, run alone in a new
    interpreter, executes; the command must exit with `exit_code`."""
    code, executed = json.loads(_probe(LAYERS_PROBE, *argv))
    assert code == exit_code
    return {name.removeprefix("milsent.") for name in executed} - {"_lazy"}


class TestLayersOnFirstUse:
    # the layers a tracer rebinds in `cli` right after importing it
    TRACED_LAYERS = ("corpus", "preprocess", "eventstudy", "embed", "mil", "baselines",
                     "evaluate")
    NUMERIC = {"numpy", "embed", "eventstudy", "baselines"}

    def test_importing_cli_registers_every_traced_layer(self):
        registered = _probe(
            "import sys, milsent.cli\n"
            f"print(all('milsent.' + name in sys.modules for name in {self.TRACED_LAYERS}))")
        assert registered == "True"

    def test_each_command_runs_only_the_layers_it_calls(self, tmp_path):
        raw, processed = news_corpus(tmp_path), tmp_path / "processed.jsonl"
        cfg = write_config(tmp_path / "demo.cfg")
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=10)
        model, predicted = tmp_path / "model.json", tmp_path / "pred.jsonl"
        gold, perfect, _ = evaluation_files(tmp_path)

        assert _executed_layers("--version") == {"cli", "config", "corpus"}
        ran = _executed_layers("preprocess", raw, processed, "--config", cfg)
        assert "preprocess" in ran and not ran & (self.NUMERIC | {"mil", "evaluate"})
        for argv in (("train", corpus, vectors, model, "--epochs", "1"),
                     ("predict", model, corpus, vectors, predicted)):
            ran = _executed_layers(*argv, "--embedding-format", "sentence")
            assert {"numpy", "embed", "mil"} <= ran
        for argv in (("evaluate", gold, f"mil={perfect}", "--mode", "sentence"),
                     ("evaluate", corpus, f"mil={predicted}", "--mode", "document",
                      "--out", tmp_path / "report.txt")):
            ran = _executed_layers(*argv)
            assert "evaluate" in ran and not ran & self.NUMERIC
        ran = _executed_layers("render", predicted, "g000", "--format", "html")
        assert not ran & (self.NUMERIC | {"mil", "preprocess", "evaluate"})

    def test_median_gamma_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.median's first call imports numpy.ma, about 1 MB and 10-15 ms
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=10)
        loaded = _probe("import sys\nfrom milsent.cli import main\n"
                        "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)",
                        "train", corpus, vectors, tmp_path / "model.json", "--epochs", "1",
                        "--embedding-format", "sentence", "--gamma", "median")
        assert loaded == "0 False"

    def test_an_error_executes_no_layer_to_be_caught(self, tmp_path):
        """`main` catches the two error bases of `corpus`, so reporting an
        error executes no layer that the command did not run."""
        gold, _, _ = evaluation_files(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{bad json\n")
        usage = ("evaluate", gold, f"mil={tmp_path / 'missing.jsonl'}")
        failure = ("evaluate", gold, f"mil={bad}")
        render = ("render", bad, "doc1")
        for argv, exit_code in ((usage, 2), (failure, 1), (render, 1)):
            assert _executed_layers(*argv, exit_code=exit_code) == {"cli", "config", "corpus"}

    def test_bare_import_executes_nothing_and_resolves_every_name(self):
        resolved = _probe(
            "import sys, types, milsent\n"
            "before = [n for n, m in sys.modules.items()\n"
            "          if n.startswith('milsent.') and type(m) is types.ModuleType]\n"
            "names = [getattr(milsent, name) for name in milsent.__all__]\n"
            "print(before, milsent.mil.document_vote([1]), milsent.corpus.POSITIVE,\n"
            "      milsent.train is milsent.mil.train, set(milsent.__all__) <= set(dir(milsent)))")
        assert resolved == "[] (1, 1, 0) 1 True True"


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


# Every config key: its values in file order, the manifest field that must
# carry them, and the value expected there (none of them a default).
KEY_VALUES = {
    "min_doc_words": (["7"], "min_doc_words", 7),
    "min_count": (["2"], "min_count", 2),
    "length_percentile": (["0.2"], "length_percentile", 0.2),
    "cutoff_pattern": ([r"\bsee also\b", r"\bnotice:"], "cutoff_patterns",
                       [r"\bsee also\b", r"\bnotice:"]),
    "date_pattern": ([r"\b\d{4}\b"], "date_patterns", [r"\b\d{4}\b"]),
    "url_pattern": ([r"https?://\S+"], "url_pattern", r"https?://\S+"),
    "penny_threshold": (["0.5"], "penny_threshold", 0.5),
    "outlier_level": (["0"], "outlier_level", 0.0),
    "window": (["20"], "window", 20),
    "lambda": (["3"], "lam", 3.0),
    "learning_rate": (["0.1"], "learning_rate", 0.1),
    "momentum": (["0.5"], "momentum", 0.5),
    "epochs": (["1", "2"], "epochs", 2),
    "groups_per_batch": (["4"], "groups_per_batch", 4),
    "kernel_gamma": (["0.5"], "kernel_gamma", 0.5),
    "use_bias": (["no"], "use_bias", False),
}

# Each training flag, its value, the field it sets and the value expected there.
TRAIN_FLAGS = [
    ("--lambda", "4", "lam", 4.0),
    ("--learning-rate", "0.2", "learning_rate", 0.2),
    ("--momentum", "0.6", "momentum", 0.6),
    ("--epochs", "1", "epochs", 1),
    ("--gamma", "0.25", "kernel_gamma", 0.25),
]


def write_key_values(path):
    path.write_text("".join(f"{key} = {raw}\n"
                            for key, (raws, _, _) in KEY_VALUES.items() for raw in raws))
    return path


class TestConfigKeys:
    def test_every_key_reaches_the_manifest(self, tmp_path):
        cfg = str(write_key_values(tmp_path / "all.cfg"))
        raw = news_corpus(tmp_path)
        prices_dir, index_path = price_fixtures(tmp_path)
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=8)
        runs = [
            (cli._PREPROCESS_KEYS, PreprocessConfig(), tmp_path / "p.jsonl",
             ["preprocess", str(raw)]),
            (cli._EVENT_KEYS, EventLabelConfig(), tmp_path / "l.jsonl",
             ["label", str(raw), str(prices_dir), str(index_path)]),
            (cli._TRAIN_KEYS, TrainConfig(), tmp_path / "m.json",
             ["train", str(corpus), str(vectors), "--embedding-format", "sentence"]),
        ]
        assert set(KEY_VALUES) == {key for keys, *_ in runs for key in keys}
        for keys, defaults, out, argv in runs:
            assert main(argv + [str(out), "--config", cfg]) == 0
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            assert "threads" not in manifest
            for key in keys:
                _, field, expected = KEY_VALUES[key]
                default = getattr(defaults, field)
                assert expected != (list(default) if isinstance(default, tuple) else default)
                assert manifest["config"][field] == expected, key

    def test_train_flag_beats_its_key(self, tmp_path):
        cfg = str(write_key_values(tmp_path / "all.cfg"))
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=8)
        model = tmp_path / "m.json"
        flags = [arg for flag, raw, _, _ in TRAIN_FLAGS for arg in (flag, raw)]
        assert main(["train", str(corpus), str(vectors), str(model), "--embedding-format",
                     "sentence", "--config", cfg, *flags]) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        saved = json.loads(model.read_text())["config"]
        for flag, _, field, expected in TRAIN_FLAGS:
            assert manifest["config"][field] == saved[field] == expected, flag
        assert manifest["config"]["groups_per_batch"] == KEY_VALUES["groups_per_batch"][2]

    @pytest.mark.parametrize("command,lines,line_no", [
        ("preprocess", ["cutoff_pattern = [unclosed"], 1),
        ("preprocess", ["min_count = 1", "cutoff_pattern = a{4294967296}"], 2),
        ("preprocess", ["cutoff_pattern = " + "(" * 1000 + "a" + ")" * 1000], 1),
        ("preprocess", [r"date_pattern = \d", "date_pattern = [x"], 2),
        ("preprocess", ["url_pattern = (?<=a+)b"], 1),
        ("label", ["# prices", "penny_threshold = nan"], 2),
        ("label", ["outlier_level = 0", "window = 1"], 2),
        ("train", ["lambda = nan"], 1),
        ("train", ["learning_rate = inf"], 1),
        ("train", ["use_bias = no", "kernel_gamma = nan"], 2),
        ("train", ["epochs = x"], 1),
    ], ids=["unclosed", "overflow", "recursion", "second-date", "url", "penny-nan",
            "window-one", "lambda-nan", "learning-rate-inf", "gamma-nan", "epochs-overridden"])
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, command, lines, line_no):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        prices_dir, index_path = price_fixtures(tmp_path)
        out = tmp_path / "out.json"
        argv = {
            "preprocess": ["preprocess", str(empty), str(out)],
            "label": ["label", str(empty), str(prices_dir), str(index_path), str(out)],
            # the flag overrides `epochs`, yet a malformed key is still an error
            "train": ["train", str(corpus), str(vectors), str(out),
                      "--embedding-format", "sentence", "--epochs", "1"],
        }[command]
        assert main(argv + ["--config", str(cfg)]) == 2
        assert f"{cfg}: line {line_no}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--lambda", "nan"), ("--learning-rate", "inf"), ("--gamma", "nan"),
        ("--grid", "lambda=1,nan"),
    ])
    def test_non_finite_flag_is_named(self, tmp_path, capsys, flag, value):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        out = tmp_path / "m.json"
        assert main(["train", str(corpus), str(vectors), str(out),
                     "--embedding-format", "sentence", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--dim", "0", "embedding dimension must be positive"),
        ("--seed", "-1", "seed must be a non-negative integer"),
    ], ids=["dim-0", "seed-negative"])
    def test_out_of_range_store_flag_is_named(self, tmp_path, capsys, command, flag, value,
                                              message):
        """`--dim` and `--seed` set the `hash` store, so a value it rejects
        exits 2 naming the flag, in `train` and in `predict` alike."""
        corpus, _, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        model, out = tmp_path / "model.json", tmp_path / "out"
        save_model(MilModel(theta=np.ones(5), dim=4, config=TrainConfig()), model)
        dim = [] if flag == "--dim" else ["--dim", "4"]
        argv = {"train": ["train", str(corpus), "hash", str(out), "--epochs", "1"],
                "predict": ["predict", str(model), str(corpus), "hash", str(out)]}[command]
        assert main(argv + dim + [flag, value]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} {value}: {message}\n")
        assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]

    def test_empty_grid_axis_is_named(self, tmp_path, capsys):
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        out = tmp_path / "m.json"
        assert main(["train", str(corpus), str(vectors), str(out),
                     "--embedding-format", "sentence", "--grid", "lambda="]) == 2
        assert capsys.readouterr().err == "error: empty value list in grid entry 'lambda='\n"
        assert not out.exists()

    def test_grid_is_checked_before_any_input_is_read(self, tmp_path, capsys):
        # like a config key, a bad grid entry fails before the corpus is read
        corpus, _, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        corpus.write_text("{bad json\n" + corpus.read_text())
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "m.json"
        assert main(["train", str(corpus), "hash", str(out), "--grid", "lam=1"]) == 2
        assert capsys.readouterr().err.startswith("error: bad grid entry 'lam=1'")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("entry", ["lr=0.1", "lam=1,10", "LAMBDA=1,2"])
    def test_grid_entry_is_a_training_key(self, tmp_path, capsys, entry):
        """A grid entry is named by its config key: `lambda`, `learning_rate`
        or `momentum`, spelled as in a config file; no alias is taken."""
        corpus, vectors, _ = synthetic_corpus_files(tmp_path, n_groups=5)
        out = tmp_path / "m.json"
        assert main(["train", str(corpus), str(vectors), str(out),
                     "--embedding-format", "sentence", "--grid", entry]) == 2
        assert f"error: bad grid entry {entry!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["preprocess", "a", "b"], ["label", "a", "b", "c", "d"], ["train", "a", "b", "c"],
        ["predict", "a", "b", "c", "d"], ["evaluate", "a", "b"], ["render", "a", "b"],
    ], ids=lambda argv: argv[0])
    def test_threads_flag_is_gone(self, capsys, argv):
        assert main(argv + ["--threads", "1"]) == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err


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


class TestWrongTypedFields:
    @pytest.mark.parametrize("fields,message", [
        ({"sentences": 5}, "sentences must be a list of strings, got 5"),
        ({"sentences": [5]}, "sentences must be a list of strings, got item 5"),
        ({"sentences": ["a b."], "sentence_tokens": [5]},
         "sentence_tokens must be a list of string lists or nulls, got item 5"),
        ({"sentences": ["a b."], "sentence_tokens": ["ab"]},
         "sentence_tokens must be a list of string lists or nulls, got item 'ab'"),
        ({"sentences": ["a b."], "sentence_tokens": [["a", 5]]},
         "sentence_tokens must be a list of string lists or nulls, got item ['a', 5]"),
        ({"label": ["pos"]}, "label must be 'pos' or 'neg', got ['pos']"),
        ({"sentences": ["a."], "sentence_labels": [["pos"]]},
         "sentence_labels must be a list of 'pos', 'neg' or nulls, got item ['pos']"),
        ({"sentences": ["a."], "sentence_labels": ["up"]},
         "sentence_labels must be a list of 'pos', 'neg' or nulls, got item 'up'"),
        ({"text": 5}, "text must be a string, got 5"),
        ({"id": None}, "id must be a string, got None"),
        ({"published_at": 20050101}, "published_at must be a string, got 20050101"),
        ({"label": "pos", "abnormal_return": "x"},
         "abnormal_return must be a finite number, got 'x'"),
        ({"sentences": ["a."], "sentence_labels": ["pos"], "sentence_scores": 5},
         "sentence_scores must be a list of finite numbers or nulls, got 5"),
    ], ids=["sentences", "sentence-item", "tokens", "token-string", "token-number", "label",
            "sentence-label", "sentence-label-text", "text", "id", "published-at",
            "abnormal-return", "scores"])
    def test_wrong_type_names_file_and_line(self, tmp_path, capsys, fields, message):
        record = {"id": "a", "ticker": "X", "published_at": "2005-01-01",
                  "text": "Profit rose. Sales fell."}
        raw = tmp_path / "raw.jsonl"
        write_jsonl(raw, [{**record, "id": "ok"}, {**record, **fields}])
        out = tmp_path / "out.jsonl"
        assert main(["preprocess", str(raw), str(out)]) == 1
        assert f"error: {raw}: line 2: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestNotUtf8:
    @pytest.mark.parametrize("reader,code,where", [
        ("config", 2, "line 2"),
        ("corpus", 1, "line 2"),
        # past the first chunk a text handle decodes ahead
        ("vectors", 1, "line 150"),
        ("prices", 1, "row 5"),
        ("model", 2, ""),
    ], ids=["config", "corpus", "vectors", "prices", "model"])
    def test_bad_bytes_name_the_file(self, tmp_path, capsys, reader, code, where):
        raw = news_corpus(tmp_path)
        cfg = write_config(tmp_path / "demo.cfg")
        prices_dir, index_path = price_fixtures(tmp_path)
        corpus, vectors, _ = synthetic_corpus_files(tmp_path)
        model = tmp_path / "model.json"
        save_model(MilModel(theta=np.zeros(9), dim=8, config=TrainConfig()), model)
        out = tmp_path / "out.jsonl"
        preprocess = ["preprocess", str(raw), str(out), "--config", str(cfg)]
        bad_file, argv = {
            "config": (cfg, preprocess),
            "corpus": (raw, preprocess),
            "vectors": (vectors, ["train", str(corpus), str(vectors), str(out),
                                  "--embedding-format", "sentence", "--epochs", "1"]),
            "prices": (prices_dir / "BBB.csv",
                       ["label", str(raw), str(prices_dir), str(index_path), str(out),
                        "--config", str(cfg)]),
            "model": (model, ["predict", str(model), str(corpus), str(vectors), str(out),
                              "--embedding-format", "sentence"]),
        }[reader]
        line_no = int(where.split()[1]) if where else 1
        lines = bad_file.read_bytes().split(b"\n")
        lines[line_no - 1] = b"\xff" + lines[line_no - 1]
        bad_file.write_bytes(b"\n".join(lines))
        assert main(argv) == code
        err = capsys.readouterr().err
        assert f"{bad_file}: {where}" in err
        assert "UTF-8" in err or "utf-8" in err
        assert not out.exists()
