"""milsent benchmark: seeded workloads run through the real `milsent` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src/`
there, one subprocess per pipeline stage, exactly as a user would run it.
Inputs are generated from --seed. The workload is repeated for about
--seconds seconds; each end-to-end timing is the median over repetitions.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
untraced and then again with every stage under `tracer.py`, and prints the
per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed stage or output
check makes `correct` false and the exit code 1. Without `src/milsent` in
the checkout the command exits 2 and prints no result.

See perfbench/README.md for the workloads, the metrics and which layer
each one should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170.0  # every stage is killed past this point of the run
SETUP_LAUNCHES = 7

# Workload sizes. `full` is what the benchmark measures; `tiny` only proves
# the harness works and is never reported as a result.
SIZES = {
    "train-dense": {
        "full": {"groups": 250, "per_group": 10, "dim": 50, "epochs": 10, "min_acc": 0.75},
        "tiny": {"groups": 12, "per_group": 4, "dim": 8, "epochs": 2, "min_acc": 0.0},
    },
    "news-pipeline": {
        "full": {"docs": 500, "tickers": 50, "days": 2500, "dim": 100, "epochs": 10,
                 "train_ratio": 0.3, "min_acc": 0.7},
        "tiny": {"docs": 60, "tickers": 4, "days": 300, "dim": 16, "epochs": 2,
                 "train_ratio": 0.4, "min_acc": 0.0},
    },
    "score-bulk": {
        "full": {"docs": 6000, "train_docs": 150, "dim": 50, "epochs": 10, "min_acc": 0.9},
        "tiny": {"docs": 30, "train_docs": 20, "dim": 8, "epochs": 2, "min_acc": 0.0},
    },
}

END_TO_END = {  # name -> unit
    "wall_s": "s", "sentences_per_s": "sentences/s", "peak_rss_mb": "MB",
    "setup_s": "s", "sentence_acc": "ratio", "doc_acc": "ratio",
}

CLI_STAGES = ("preprocess", "label", "train", "predict", "evaluate")

# Per-layer metric -> (unit, end-to-end metric and workload it should move).
PER_LAYER = {
    **{f"cli.{s}.{m}": (u, f"{e} of the workload running {s}")
       for s in CLI_STAGES for m, u, e in (("wall_s", "s", "wall_s"),
                                           ("rss_mb", "MB", "peak_rss_mb"))},
    "cli.other_s": ("s", "wall_s, all workloads (start-up and CLI glue)"),
    "corpus.load_s": ("s", "wall_s, sentences_per_s on score-bulk"),
    "corpus.save_s": ("s", "wall_s, sentences_per_s on score-bulk"),
    "corpus.docs": ("count", "wall_s, sentences_per_s on score-bulk"),
    "corpus.self_s": ("s", "wall_s, sentences_per_s on score-bulk"),
    "preprocess.clean_s": ("s", "wall_s on news-pipeline"),
    "preprocess.vocab_s": ("s", "wall_s on news-pipeline"),
    "preprocess.filter_s": ("s", "wall_s on news-pipeline"),
    "preprocess.tokens": ("count", "wall_s on news-pipeline"),
    "preprocess.kept_ratio": ("ratio", "wall_s on news-pipeline"),
    "preprocess.self_s": ("s", "wall_s on news-pipeline"),
    "eventstudy.prices_load_s": ("s", "wall_s on news-pipeline"),
    "eventstudy.label_s": ("s", "wall_s on news-pipeline"),
    "eventstudy.label_ms_per_doc": ("ms/doc", "wall_s on news-pipeline"),
    "eventstudy.labeled_ratio": ("ratio", "wall_s on news-pipeline"),
    "eventstudy.self_s": ("s", "wall_s on news-pipeline"),
    "embed.vectors_load_s": ("s", "wall_s on news-pipeline and score-bulk"),
    "embed.corpus_s": ("s", "wall_s on news-pipeline (hash) and score-bulk (word-average)"),
    "embed.tokens_per_s": ("tokens/s", "wall_s on news-pipeline and score-bulk"),
    "embed.zero_vector_sentences": ("count", "sentence_acc on news-pipeline and score-bulk"),
    "embed.self_s": ("s", "wall_s on news-pipeline and score-bulk"),
    "mil.train_s": ("s", "wall_s on train-dense"),
    "mil.loss_trace_s": ("s", "wall_s on train-dense"),
    "mil.grad_steps_s": ("s", "wall_s on train-dense (derived: train_s - loss_trace_s)"),
    "mil.loss_peak_mb": ("MB", "peak_rss_mb on train-dense"),
    "mil.pair_terms": ("count", "wall_s on train-dense (computed)"),
    "mil.kernel_bytes": ("B", "peak_rss_mb on train-dense (computed)"),
    "mil.gamma_s": ("s", "wall_s on train-dense"),
    "mil.score_s": ("s", "wall_s on score-bulk"),
    "mil.sentences_scored_per_s": ("sentences/s", "sentences_per_s on score-bulk"),
    "mil.self_s": ("s", "wall_s on train-dense and score-bulk"),
    "baselines.bow_fit_s": ("s", "wall_s, peak_rss_mb on news-pipeline"),
    "baselines.bow_iterations": ("count", "wall_s on news-pipeline"),
    "baselines.bow_predict_s": ("s", "wall_s on news-pipeline"),
    "baselines.dictionary_s": ("s", "wall_s on news-pipeline"),
    "baselines.self_s": ("s", "wall_s on news-pipeline"),
    "evaluate.score_s": ("s", "wall_s on score-bulk"),
    "evaluate.self_s": ("s", "wall_s on score-bulk"),
    "trace.overhead_s": ("s", "none: traced wall minus untraced wall"),
}

class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Stage:
    name: str
    target: str  # "cli": a milsent subcommand; "stages": a stages.py step
    argv: list


@dataclass
class StageRun:
    stage: Stage
    start: float
    end: float
    rss_mb: float
    code: int
    spans: list | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Workload:
    name: str
    sizes: dict
    steps: list  # Stage, or a callable run untimed between stages
    outputs: list  # files every repetition must reproduce byte for byte
    check: Callable[[], dict]  # -> {"sentences", "sentence_acc", "doc_acc"}
    setup: list = field(default_factory=list)  # stages run once, untimed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


# ------------------------------------------------------------------ processes


class Runner:
    """Starts one stage process at a time and reaps it with os.wait4."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.launches = 0

    def argv(self, stage: Stage, spans_path: Path | None) -> list:
        if spans_path is not None:
            return [sys.executable, str(BENCH / "tracer.py"), str(spans_path), stage.target,
                    "--", *stage.argv]
        if stage.target == "cli":
            return [sys.executable, "-m", "milsent.cli", *stage.argv]
        return [sys.executable, str(BENCH / "stages.py"), *stage.argv]

    def run(self, stage: Stage, spans_path: Path | None = None) -> StageRun:
        self.launches += 1
        log = self.work / "logs" / f"{self.launches:04d}-{stage.name}"
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self.argv(stage, spans_path), stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StageRun(stage, start, end, usage.ru_maxrss / 1024.0, proc.returncode)
        if spans_path is not None and spans_path.is_file():
            run.spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        return run

    def setup_seconds(self, launches_per_iteration: int) -> float | None:
        """Fixed start-up cost of one repetition: `milsent --version` (interpreter,
        imports, parser) once per process the repetition starts; the median of
        SETUP_LAUNCHES launches, times that count."""
        times = []
        for _ in range(SETUP_LAUNCHES):
            run = self.run(Stage("version", "cli", ["--version"]))
            if run.code != 0:
                return None
            times.append(run.wall)
        return launches_per_iteration * statistics.median(times)


# ------------------------------------------------------------------ workloads


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _majority(labels: list[int], scores: list[float] | None) -> int | None:
    """The documented document rule: majority of sentence labels, a tie
    decided by the mean score against 0.5."""
    pos = sum(labels)
    neg = len(labels) - pos
    if pos != neg:
        return 1 if pos > neg else 0
    if scores:
        return 1 if sum(scores) / len(scores) >= 0.5 else 0
    return None


def _score_corpus(path: Path, truth: dict) -> dict:
    """Accuracies of a predicted corpus file against generator truth."""
    hits = total = doc_hits = 0
    records = _read_jsonl(path)
    for record in records:
        doc_label, gold = truth[record["id"]]
        labels = [1 if lab == "pos" else 0 for lab in record["sentence_labels"]]
        if len(labels) != len(gold):
            raise CheckFailed(f"{path.name}: {record['id']} has {len(labels)} predicted "
                              f"sentences, {len(gold)} generated")
        hits += sum(p == g for p, g in zip(labels, gold))
        total += len(gold)
        doc_hits += _majority(labels, record.get("sentence_scores")) == doc_label
    if not records:
        raise CheckFailed(f"{path.name}: no predicted documents")
    return {"sentences": total, "sentence_acc": hits / total,
            "doc_acc": doc_hits / len(records)}


def _check_report(path: Path, method: str, expected: float, what: str) -> None:
    accuracy = json.loads(path.read_text(encoding="utf-8"))["methods"][method]["accuracy"]
    if accuracy != expected:
        raise CheckFailed(f"{path.name}: {method} {what} accuracy {accuracy} != {expected} "
                          f"recomputed from the predictions")


def _sentence_count(path: Path) -> int:
    return sum(len(r.get("sentences") or []) for r in _read_jsonl(path))


def _write_config(path: Path, **values) -> Path:
    """A flat config file. Generated sentences are short, so word-average and
    hash vectors are short too: without the bias term a step of 5 learns them
    in ten epochs, where the defaults stay at chance."""
    values = {"use_bias": "false", "learning_rate": 5, **values}
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def train_dense(work: Path, seed: int, sizes: dict) -> Workload:
    import numpy as np

    from generate import synthetic_vectors

    corpus, vectors, model = work / "corpus.jsonl", work / "vectors.tsv", work / "model.json"
    X, truth = synthetic_vectors(corpus, vectors, sizes["groups"], sizes["per_group"],
                                 sizes["dim"], seed)

    def check() -> dict:
        record = json.loads(model.read_text(encoding="utf-8"))
        theta = np.array(record["theta"])
        z = X @ theta[:-1] + theta[-1] if record["config"]["use_bias"] else X @ theta
        predicted = (z >= 0).astype(int)  # sigmoid(z) >= 0.5
        scores = 1.0 / (1.0 + np.exp(-z))
        per = sizes["per_group"]
        doc_hits = 0
        for g in range(sizes["groups"]):
            rows = slice(g * per, (g + 1) * per)
            true_doc = 1 if 2 * int(truth[rows].sum()) >= per else 0
            doc_hits += _majority(list(predicted[rows]), list(scores[rows])) == true_doc
        return {"sentences": len(truth), "sentence_acc": float(np.mean(predicted == truth)),
                "doc_acc": doc_hits / sizes["groups"]}

    train = Stage("train", "cli", ["train", str(corpus), str(vectors), str(model),
                                   "--embedding-format", "sentence", "--epochs",
                                   str(sizes["epochs"]), "--gamma", "median",
                                   "--seed", str(seed)])
    return Workload("train-dense", sizes, [train], [model], check)


def news_pipeline(work: Path, seed: int, sizes: dict) -> Workload:
    import numpy as np

    from generate import (TextGenerator, load_lexicon, raw_news, trading_days,
                          write_jsonl, write_prices)

    rng = np.random.default_rng(seed)
    text = TextGenerator(*load_lexicon(SRC), decorate=True)
    days = trading_days(sizes["days"])
    tickers = [f"T{i:02d}" for i in range(sizes["tickers"])]
    records, truth = raw_news(rng, text, sizes["docs"], tickers, days)
    raw = work / "raw.jsonl"
    write_jsonl(raw, records)
    index = write_prices(work / "prices", rng, tickers, days,
                         [(r["ticker"], r["published_at"], truth[r["id"]][0]) for r in records])

    f = {name: work / name for name in (
        "processed.jsonl", "labeled.jsonl", "train.jsonl", "test.jsonl", "gold.jsonl",
        "model.json", "predicted.jsonl", "bow.jsonl", "dictionary.jsonl",
        "eval_sentence.json", "eval_document.json")}
    embed = ["hash", "--dim", str(sizes["dim"]), "--seed", str(seed)]
    # documents of six short sentences hold fewer than the default 50 words
    config = ["--config", str(_write_config(work / "pipeline.cfg", min_doc_words=30))]

    def write_gold() -> None:
        gold = []
        for doc in _read_jsonl(f["test.jsonl"]):
            label, labels = truth[doc["id"]]
            if len(labels) != len(doc["sentences"]):
                raise CheckFailed(f"preprocess split {doc['id']} into {len(doc['sentences'])} "
                                  f"sentences, {len(labels)} were generated")
            gold.append({**{k: doc[k] for k in ("id", "ticker", "published_at", "text",
                                                "sentences")},
                         "sentence_labels": ["pos" if lab else "neg" for lab in labels],
                         "label": "pos" if label else "neg"})
        write_jsonl(f["gold.jsonl"], gold)

    methods = [f"mil={f['predicted.jsonl']}", f"bow={f['bow.jsonl']}",
               f"dictionary={f['dictionary.jsonl']}"]
    steps = [
        Stage("preprocess", "cli", ["preprocess", str(raw), str(f["processed.jsonl"]), *config]),
        Stage("label", "cli", ["label", str(f["processed.jsonl"]), str(index.parent),
                               str(index), str(f["labeled.jsonl"])]),
        Stage("split", "stages", ["split", str(f["labeled.jsonl"]), str(f["train.jsonl"]),
                                  str(f["test.jsonl"]), "--train-ratio",
                                  str(sizes["train_ratio"])]),
        write_gold,
        Stage("train", "cli", ["train", str(f["train.jsonl"]), *embed, str(f["model.json"]),
                               "--epochs", str(sizes["epochs"]), "--gamma", "median", *config]),
        Stage("predict", "cli", ["predict", str(f["model.json"]), str(f["test.jsonl"]),
                                 *embed, str(f["predicted.jsonl"])]),
        Stage("baselines", "stages", ["baselines", str(f["train.jsonl"]),
                                      str(f["test.jsonl"]), str(f["bow.jsonl"]),
                                      str(f["dictionary.jsonl"])]),
        *(Stage("evaluate", "cli", ["evaluate", str(f["gold.jsonl"]), *methods, "--mode", mode,
                                    "--format", "json", "--out", str(f[f"eval_{mode}.json"])])
          for mode in ("sentence", "document")),
    ]

    def check() -> dict:
        if _sentence_count(f["predicted.jsonl"]) != _sentence_count(f["test.jsonl"]):
            raise CheckFailed("predict changed the number of sentences")
        result = _score_corpus(f["predicted.jsonl"], truth)
        _check_report(f["eval_sentence.json"], "mil", result["sentence_acc"], "sentence")
        _check_report(f["eval_document.json"], "mil", result["doc_acc"], "document")
        return result

    outputs = [f[k] for k in ("processed.jsonl", "labeled.jsonl", "train.jsonl", "test.jsonl",
                              "model.json", "predicted.jsonl", "bow.jsonl",
                              "dictionary.jsonl", "eval_sentence.json", "eval_document.json")]
    return Workload("news-pipeline", sizes, steps, outputs, check)


def score_bulk(work: Path, seed: int, sizes: dict) -> Workload:
    import numpy as np

    from generate import TextGenerator, load_lexicon, scored_corpus, write_jsonl, \
        write_word_vectors

    rng = np.random.default_rng(seed)
    text = TextGenerator(*load_lexicon(SRC), decorate=False)
    vectors = work / "vectors.txt"
    write_word_vectors(vectors, rng, text, sizes["dim"])
    bulk, train = work / "bulk.jsonl", work / "train.jsonl"
    records = scored_corpus(rng, text, sizes["docs"], "b")
    write_jsonl(bulk, records)
    write_jsonl(train, scored_corpus(rng, text, sizes["train_docs"], "t"))
    truth = {r["id"]: (1 if r["label"] == "pos" else 0,
                       [1 if lab == "pos" else 0 for lab in r["sentence_labels"]])
             for r in records}
    model, predicted = work / "model.json", work / "predicted.jsonl"
    reports = {mode: work / f"eval_{mode}.json" for mode in ("sentence", "document")}
    seed_flag = ["--seed", str(seed)]
    pretrain = Stage("train", "cli", ["train", str(train), str(vectors), str(model),
                                      "--epochs", str(sizes["epochs"]), *seed_flag,
                                      "--config", str(_write_config(work / "train.cfg"))])
    steps = [
        Stage("predict", "cli", ["predict", str(model), str(bulk), str(vectors),
                                 str(predicted), *seed_flag]),
        *(Stage("evaluate", "cli", ["evaluate", str(bulk), f"mil={predicted}", "--mode", mode,
                                    "--format", "json", "--out", str(reports[mode])])
          for mode in ("sentence", "document")),
    ]

    def check() -> dict:
        if _sentence_count(predicted) != _sentence_count(bulk):
            raise CheckFailed("predict changed the number of sentences")
        result = _score_corpus(predicted, truth)
        _check_report(reports["sentence"], "mil", result["sentence_acc"], "sentence")
        _check_report(reports["document"], "mil", result["doc_acc"], "document")
        return result

    return Workload("score-bulk", sizes, steps, [predicted, *reports.values()], check,
                    setup=[pretrain])


WORKLOADS = {"train-dense": train_dense, "news-pipeline": news_pipeline,
             "score-bulk": score_bulk}


# ------------------------------------------------------------------ measuring


def run_iteration(workload: Workload, runner: Runner, tally: Tally,
                  spans_dir: Path | None) -> list[StageRun] | None:
    """One pass over the workload's stages; None if a stage or step failed."""
    runs = []
    for n, step in enumerate(workload.steps):
        if callable(step):
            try:
                step()
            except CheckFailed as exc:
                tally.record(False, str(exc))
                return None
            continue
        spans_path = None if spans_dir is None else spans_dir / f"{n:02d}-{step.name}.json"
        run = runner.run(step, spans_path)
        if not tally.record(run.code == 0, f"stage {step.name} exited {run.code}"):
            return None
        runs.append(run)
    return runs


def measure(workload: Workload, runner: Runner, tally: Tally, budget: float,
            min_iterations: int, digests: dict, traced: bool = False) -> list[list[StageRun]]:
    """Repeat the workload for about `budget` seconds; every repetition must
    reproduce the first one's outputs byte for byte."""
    iterations: list[list[StageRun]] = []
    start = time.perf_counter()
    while True:
        spans_dir = None
        if traced:
            spans_dir = runner.work / "spans" / f"{len(iterations):03d}"
            spans_dir.mkdir(parents=True)
        runs = run_iteration(workload, runner, tally, spans_dir)
        if runs is None:
            break
        iterations.append(runs)
        for path in workload.outputs:
            if not tally.record(path.is_file(), f"{path.name} was not written"):
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if path.name in digests:
                tally.record(digest == digests[path.name],
                             f"{path.name} differs between two runs of the same input")
            else:
                digests[path.name] = digest
        now = time.perf_counter()
        per_iteration = (now - start) / len(iterations)
        if now + per_iteration > runner.deadline - 5.0:
            break
        if len(iterations) >= min_iterations and now - start + per_iteration > budget:
            break
    return iterations


def end_to_end(iterations: list[list[StageRun]], sentences: int) -> dict:
    walls = [sum(r.wall for r in runs) for runs in iterations]
    return {
        "wall_s": statistics.median(walls),
        "sentences_per_s": statistics.median(sentences / w for w in walls),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in runs) for runs in iterations),
    }


def merge_spans(runs: list[StageRun]) -> list[dict]:
    """Stage spans from the harness with each stage's own spans nested below."""
    merged: list[dict] = []
    for run in runs:
        layer = "cli" if run.stage.target == "cli" else "script"
        root = len(merged)
        merged.append({"name": f"{layer}.{run.stage.name}", "start": run.start,
                       "end": run.end, "parent": None, "stage": run.stage.name,
                       "counts": {"rss_mb": run.rss_mb}})
        for name, start, end, parent, counts in run.spans or []:
            merged.append({"name": name, "start": start, "end": end,
                           "parent": root if parent is None else root + 1 + parent,
                           "stage": run.stage.name, "counts": counts or {}})
    return merged


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced repetition."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_time = {layer: 0.0 for layer in (*LAYERS, "cli")}
    for i, span in enumerate(spans):
        layer = span["name"].split(".")[0]
        if layer == "trace":
            continue
        self_time["cli" if layer == "script" else layer] += (
            span["end"] - span["start"] - child_time[i])

    def total(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def count(name, key, stage=None):
        return sum(s["counts"].get(key, 0) for s in spans
                   if s["name"] == name and (stage is None or s["stage"] == stage))

    def ratio(a, b):
        return a / b if b else 0.0

    probes = [s["counts"] for s in spans if s["name"] == "trace.probe"]
    train_s = total("mil.train")
    loss_trace_s = sum((p["epochs"] + 1) * p["loss_s"] for p in probes)
    score_s = sum(s["end"] - s["start"] for s in spans if s["stage"] == "predict"
                  and s["name"].startswith("mil.") and s["name"] != "mil.load_model")
    embed_s = total("embed.embed_corpus")
    label_s = total("eventstudy.label_documents")
    labeled_in = count("eventstudy.label_documents", "docs_in")
    m = {
        "cli.other_s": self_time["cli"],
        "corpus.load_s": total("corpus.load_corpus"),
        "corpus.save_s": total("corpus.save_corpus"),
        "corpus.docs": count("corpus.load_corpus", "docs"),
        "preprocess.clean_s": total("preprocess.clean_text", "preprocess.split_sentences",
                                    "preprocess.tokenize"),
        "preprocess.vocab_s": total("preprocess.build_vocabulary",
                                    "preprocess.apply_vocabulary"),
        "preprocess.filter_s": total("preprocess.filter_corpus"),
        "preprocess.tokens": count("preprocess.build_vocabulary", "tokens"),
        "preprocess.kept_ratio": ratio(count("preprocess.filter_corpus", "docs_out"),
                                       count("preprocess.filter_corpus", "docs_in")),
        "eventstudy.prices_load_s": total("eventstudy.load_price_series"),
        "eventstudy.label_s": label_s,
        "eventstudy.label_ms_per_doc": 1000.0 * ratio(label_s, labeled_in),
        "eventstudy.labeled_ratio": ratio(count("eventstudy.label_documents", "docs_out"),
                                          labeled_in),
        "embed.vectors_load_s": total("embed.load_embeddings", "embed.load_sentence_embeddings",
                                      "embed.hash_fallback_store"),
        "embed.corpus_s": embed_s,
        "embed.tokens_per_s": ratio(count("embed.embed_corpus", "tokens"), embed_s),
        "embed.zero_vector_sentences": count("embed.embed_corpus", "zero_vectors"),
        "mil.train_s": train_s,
        "mil.loss_trace_s": loss_trace_s,
        "mil.grad_steps_s": train_s - loss_trace_s,
        "mil.loss_peak_mb": max((p["loss_peak_bytes"] for p in probes), default=0) / 2**20,
        "mil.pair_terms": sum(p["pair_terms"] for p in probes),
        "mil.kernel_bytes": max((p["kernel_bytes"] for p in probes), default=0),
        "mil.gamma_s": total("mil.median_heuristic_gamma"),
        "mil.score_s": score_s,
        "mil.sentences_scored_per_s": ratio(
            count("embed.embed_corpus", "sentences", stage="predict"), score_s),
        "baselines.bow_fit_s": total("baselines.build_vocabulary_index",
                                     "baselines.bow_featurize", "baselines.train_bow_logreg"),
        "baselines.bow_iterations": count("baselines.train_bow_logreg", "iterations"),
        "baselines.bow_predict_s": total("baselines.bow_predict"),
        "baselines.dictionary_s": total("baselines.load_demo_dictionary",
                                        "baselines.load_dictionary",
                                        "baselines.dictionary_classify"),
        "evaluate.score_s": sum(s["end"] - s["start"] for s in spans
                                if s["name"].startswith("evaluate.")
                                and s["name"] != "evaluate.temporal_split"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["_traced_wall"] = sum(s["end"] - s["start"] for s in spans if s["parent"] is None) - sum(
        s["end"] - s["start"] for s in spans if s["name"].startswith("trace."))
    return m


def stage_metrics(iterations: list[list[StageRun]]) -> dict:
    metrics = {}
    for stage in CLI_STAGES:
        walls, rss = [], []
        for runs in iterations:
            mine = [r for r in runs if r.stage.target == "cli" and r.stage.name == stage]
            walls.append(sum(r.wall for r in mine))
            rss.append(max((r.rss_mb for r in mine), default=0.0))
        metrics[f"cli.{stage}.wall_s"] = statistics.median(walls)
        metrics[f"cli.{stage}.rss_mb"] = statistics.median(rss)
    return metrics


# ------------------------------------------------------------------ reporting


def provenance(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas,
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "git_commit": commit, "workload": workload.name, "seed": seed,
        "sizes": workload.sizes, "run_seconds": seconds, "trace": trace,
    }


def _fmt(value) -> str:
    if isinstance(value, list):
        return " ".join(_fmt(v) for v in value)
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(tally: Tally, metrics: dict, units: dict, prov: dict, extra: dict,
           moves: dict | None = None) -> int:
    print(f"# milsent benchmark: {prov['workload']} seed {prov['seed']}")
    for name, value in {**metrics, **extra}.items():
        line = f"{name:32s} {_fmt(value):>14s} {units.get(name, '')}"
        if moves:
            line += f"   -> {moves.get(name, '')}"
        print(line.rstrip())
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": tally.failed == 0, "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    out = BENCH / "_out"
    out.mkdir(exist_ok=True)
    mode = "trace" if prov["trace"] else "e2e"
    (out / f"result-{prov['workload']}-{mode}-seed{prov['seed']}.json").write_text(
        json.dumps({**result, "extra": extra, "provenance": prov, "failures": tally.notes},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


SPAN_FIELDS = ("run_id", "workload", "iteration", "name", "start", "end", "parent", "stage",
               "counts")


def write_spans(traced: list[list[StageRun]], prov: dict) -> Path:
    """One header line, then one JSON array per span in SPAN_FIELDS order.
    Only the workload's latest traced run is kept: a score-bulk run holds
    about 150k spans."""
    run_id = uuid.uuid4().hex[:12]
    path = BENCH / "_out" / f"spans-{prov['workload']}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"run_id": run_id, "fields": SPAN_FIELDS,
                                 "provenance": prov}) + "\n")
        for n, runs in enumerate(traced):
            for span in merge_spans(runs):
                handle.write(json.dumps([run_id, prov["workload"], n, span["name"],
                                         span["start"], span["end"], span["parent"],
                                         span["stage"], span["counts"]]) + "\n")
    return path


def run(args, workload: Workload, runner: Runner, tally: Tally, prov: dict) -> int:
    for stage in workload.setup:
        done = runner.run(stage)
        tally.record(done.code == 0, f"set-up stage {stage.name} exited {done.code}")
    if tally.failed:
        return report(tally, {}, {}, prov, {})
    setup_s = None
    if not args.trace:
        setup_s = runner.setup_seconds(sum(isinstance(step, Stage) for step in workload.steps))
        if not tally.record(setup_s is not None, "milsent --version failed"):
            return report(tally, {}, {}, prov, {})
    digests: dict = {}
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(workload, runner, tally, budget, 1 if args.trace else 2, digests)
    if not untraced:
        return report(tally, {}, {}, prov, {})
    try:
        quality = workload.check()
        tally.record(True, "outputs")
        floor = workload.sizes["min_acc"]
        tally.record(min(quality["sentence_acc"], quality["doc_acc"]) >= floor,
                     f"accuracy below {floor}: {quality}")
    except CheckFailed as exc:
        tally.record(False, str(exc))
        quality = {"sentences": 0, "sentence_acc": 0.0, "doc_acc": 0.0}
    e2e = end_to_end(untraced, quality["sentences"])
    prov["iterations"] = len(untraced)

    if not args.trace:
        metrics = {**e2e, "setup_s": setup_s, "sentence_acc": quality["sentence_acc"],
                   "doc_acc": quality["doc_acc"]}
        extra = {"op_fail_ratio": tally.failed / tally.attempted,
                 "sentences": quality["sentences"],
                 "iteration_walls": [sum(r.wall for r in runs) for runs in untraced]}
        return report(tally, metrics, {**END_TO_END, "op_fail_ratio": "ratio",
                                       "sentences": "count", "iteration_walls": "s"},
                      prov, extra)

    traced = measure(workload, runner, tally, args.seconds / 2, 1, digests, traced=True)
    if not traced:
        return report(tally, {}, {}, prov, {})
    per_iteration = [layer_metrics(merge_spans(runs)) for runs in traced]
    metrics = stage_metrics(untraced)
    for name in per_iteration[0]:
        metrics[name] = statistics.median(m[name] for m in per_iteration)
    traced_wall = metrics.pop("_traced_wall")
    metrics["trace.overhead_s"] = traced_wall - e2e["wall_s"]
    prov["traced_iterations"] = len(traced)
    extra = {"untraced_wall_s": e2e["wall_s"], "traced_wall_s": traced_wall,
             "spans_file": str(write_spans(traced, prov).relative_to(ROOT))}
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return report(tally, {name: metrics[name] for name in PER_LAYER},
                  {**units, "untraced_wall_s": "s", "traced_wall_s": "s"}, prov, extra,
                  moves={name: move for name, (_, move) in PER_LAYER.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a harness self-test size, never a result")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "milsent" / "cli.py").is_file():
        print(f"error: no milsent sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runner_deadline = time.perf_counter() + RUN_LIMIT_S
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](work, args.seed, SIZES[args.workload][args.size])
        prov = provenance(workload, args.seed, args.seconds, bool(args.trace))
        return run(args, workload, Runner(work, runner_deadline), tally, prov)
    finally:
        if tally.failed == 0:
            shutil.rmtree(work, ignore_errors=True)
        else:
            print(f"work files kept in {work}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
