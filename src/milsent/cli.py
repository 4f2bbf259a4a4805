"""Pipeline entry point: one command with subcommands.

preprocess -> label -> train -> predict -> evaluate, plus render for the
per-sentence highlighted view of a document. Diagnostics go to stderr and
data to files or stdout, so outputs stay pipeable. Every file-producing run
writes a `<output>.manifest.json` sufficient to reproduce it. Exit codes:
0 success, 1 runtime/data failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import html as html_mod
import json
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import milsent
from milsent import config as configfile
from milsent import embed, eventstudy, evaluate, mil, preprocess
from milsent.baselines import DictionaryError
from milsent.corpus import (
    CorpusError,
    Document,
    NEGATIVE,
    POSITIVE,
    SentenceInstance,
    load_corpus,
    save_corpus,
    to_mil_dataset,
    with_predictions,
)

CONFIG_ENV_VAR = "MILSENT_CONFIG"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_LABEL_TEXT = {POSITIVE: "pos", NEGATIVE: "neg"}


class UsageError(Exception):
    """Bad arguments, bad config, or unusable input selection."""


def _eprint(*parts) -> None:
    print(*parts, file=sys.stderr)


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


@dataclass
class RunManifest:
    """Record of one command invocation, enough to reproduce it."""

    command: str
    version: str
    config: dict
    inputs: dict
    outputs: dict
    seed: int | None
    threads: int
    started_at: str
    finished_at: str | None = None
    metrics: dict | None = None

    def write(self, path) -> None:
        self.finished_at = datetime.now(timezone.utc).isoformat()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.__dict__, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _manifest(command: str, args, config: dict, inputs: dict, outputs: dict) -> RunManifest:
    return RunManifest(
        command=command,
        version=milsent.__version__,
        config=config,
        inputs={k: str(v) for k, v in inputs.items()},
        outputs={k: str(v) for k, v in outputs.items()},
        seed=getattr(args, "seed", None),
        threads=getattr(args, "threads", 1),
        started_at=datetime.now(timezone.utc).isoformat(),
    )


def _manifest_path(args, output_path) -> Path:
    if getattr(args, "manifest", None):
        return Path(args.manifest)
    return Path(str(output_path) + ".manifest.json")


def _load_config_values(args) -> dict[str, list[str]]:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    _require_file(path, "config file")
    return configfile.load_flat_config(path)


def _preprocess_config(values) -> preprocess.PreprocessConfig:
    get = configfile.get_scalar
    try:
        return preprocess.PreprocessConfig(
            min_doc_words=get(values, "min_doc_words", int, 50),
            cutoff_patterns=configfile.get_list(
                values, "cutoff_pattern", preprocess.DEFAULT_CUTOFF_PATTERNS
            ),
            length_percentile=get(values, "length_percentile", float, 0.01),
            date_patterns=configfile.get_list(
                values, "date_pattern", preprocess.DEFAULT_DATE_PATTERNS
            ),
            url_pattern=get(values, "url_pattern", str, preprocess.DEFAULT_URL_PATTERN),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _event_config(values) -> eventstudy.EventLabelConfig:
    get = configfile.get_scalar
    try:
        return eventstudy.EventLabelConfig(
            penny_threshold=get(values, "penny_threshold", float, 1.0),
            outlier_level=get(values, "outlier_level", float, 0.01),
            window=get(values, "window", int, 30),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _train_config(values, args, gamma: float | None) -> mil.TrainConfig:
    get = configfile.get_scalar
    try:
        return mil.TrainConfig(
            lam=args.lam if args.lam is not None else get(values, "lambda", float, 10.0),
            learning_rate=(
                args.learning_rate
                if args.learning_rate is not None
                else get(values, "learning_rate", float, 0.05)
            ),
            momentum=(
                args.momentum
                if args.momentum is not None
                else get(values, "momentum", float, 0.8)
            ),
            epochs=args.epochs if args.epochs is not None else get(values, "epochs", int, 25),
            groups_per_batch=get(values, "groups_per_batch", int, 32),
            kernel_gamma=gamma if gamma is not None else get(values, "kernel_gamma", float, 1.0),
            seed=args.seed,
            use_bias=get(values, "use_bias", bool, True),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _dataclass_dict(obj) -> dict:
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in ((f, getattr(obj, f)) for f in obj.__dataclass_fields__)
    }


# ---------------------------------------------------------------- preprocess


def cmd_preprocess(args) -> int:
    _require_file(args.corpus_in, "input corpus")
    values = _load_config_values(args)
    pconfig = _preprocess_config(values)
    min_count = configfile.get_scalar(values, "min_count", int, 5)

    docs = load_corpus(args.corpus_in)
    split_docs: list[tuple[Document, list[tuple[str, list[str]]]]] = []
    token_lists: list[list[str]] = []
    for doc in docs:
        text = preprocess.clean_text(doc.raw_text, pconfig)
        sentences = []
        for sentence_text in preprocess.split_sentences(text):
            tokens = preprocess.tokenize(sentence_text)
            token_lists.append(tokens)
            sentences.append((sentence_text, tokens))
        split_docs.append((doc, sentences))

    distinct_terms = len({t for tokens in token_lists for t in tokens})
    vocab = preprocess.build_vocabulary(token_lists, min_count=min_count)

    processed = []
    for doc, sentences in split_docs:
        instances = tuple(
            SentenceInstance(
                text=text, tokens=tuple(preprocess.apply_vocabulary(tokens, vocab))
            )
            for text, tokens in sentences
        )
        processed.append(replace(doc, sentences=instances))
    kept = preprocess.filter_corpus(processed, pconfig)

    save_corpus(kept, args.corpus_out)
    if not kept:
        _eprint("warning: no documents survived preprocessing")
    _eprint(f"documents: {len(docs)} in, {len(kept)} kept")
    _eprint(f"vocabulary: {distinct_terms} distinct terms, {len(vocab)} retained "
            f"(min_count={min_count})")

    manifest = _manifest(
        "preprocess", args,
        config={**_dataclass_dict(pconfig), "min_count": min_count},
        inputs={"corpus": args.corpus_in},
        outputs={"corpus": args.corpus_out},
    )
    manifest.metrics = {
        "documents_in": len(docs),
        "documents_out": len(kept),
        "vocabulary_distinct": distinct_terms,
        "vocabulary_retained": len(vocab),
    }
    manifest.write(_manifest_path(args, args.corpus_out))
    return EXIT_OK


# --------------------------------------------------------------------- label


def cmd_label(args) -> int:
    _require_file(args.corpus_in, "input corpus")
    _require_file(args.index_file, "index price file")
    prices_dir = Path(args.prices_dir)
    if not prices_dir.is_dir():
        raise UsageError(f"prices directory not found: {prices_dir}")
    values = _load_config_values(args)
    config = _event_config(values)

    docs = load_corpus(args.corpus_in)
    index = eventstudy.load_price_series(args.index_file, ticker="__index__")
    prices: dict[str, eventstudy.PriceSeries] = {}
    for ticker in sorted({d.ticker for d in docs}):
        path = prices_dir / f"{ticker}.csv"
        if path.is_file():
            prices[ticker] = eventstudy.load_price_series(path, ticker)

    result = eventstudy.label_documents(docs, prices, index, config)
    save_corpus(result.documents, args.corpus_out)

    n_pos = sum(1 for d in result.documents if d.label == POSITIVE)
    n_neg = len(result.documents) - n_pos
    total = len(result.documents)
    if total:
        _eprint(
            f"labeled: {n_pos} positive ({100.0 * n_pos / total:.2f}%), "
            f"{n_neg} negative ({100.0 * n_neg / total:.2f}%)"
        )
    else:
        _eprint("warning: no documents could be labeled")
    for reason, count in sorted(result.drop_counts().items()):
        _eprint(f"dropped ({reason}): {count}")
    for doc_id, reason in result.dropped:
        _eprint(f"  - {doc_id}: {reason}")

    manifest = _manifest(
        "label", args,
        config=_dataclass_dict(config),
        inputs={"corpus": args.corpus_in, "prices_dir": args.prices_dir,
                "index": args.index_file},
        outputs={"corpus": args.corpus_out},
    )
    manifest.metrics = {
        "labeled_positive": n_pos,
        "labeled_negative": n_neg,
        "dropped": len(result.dropped),
    }
    manifest.write(_manifest_path(args, args.corpus_out))
    return EXIT_OK


# --------------------------------------------------------------------- train


def _build_store(args) -> embed.EmbeddingStore:
    source = args.embeddings
    fmt = "hash" if source == "hash" else args.embedding_format
    if fmt == "hash":
        dim = args.dim if args.dim is not None else embed.DEFAULT_DIM
        return embed.hash_fallback_store(dim=dim, seed=args.seed)
    _require_file(source, "embedding file")
    if fmt == "sentence":
        store = embed.load_sentence_embeddings(source)
    else:
        store = embed.load_embeddings(source)
    if args.dim is not None and args.dim != store.dim:
        raise UsageError(
            f"--dim {args.dim} conflicts with embedding file dimension {store.dim}"
        )
    return store


def _parse_grid(text: str, base: mil.TrainConfig) -> mil.GridSpec:
    names = {"lambda": "lam", "lr": "learning_rate", "learning_rate": "learning_rate",
             "momentum": "momentum", "lam": "lam"}
    lists = {"lam": (base.lam,), "learning_rate": (base.learning_rate,),
             "momentum": (base.momentum,)}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip().lower()
        if not sep or key not in names:
            raise UsageError(
                f"bad grid entry {part!r}; expected lambda=...;learning_rate=...;momentum=..."
            )
        try:
            lists[names[key]] = tuple(float(v) for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise UsageError(f"bad grid values in {part!r}: {exc}") from exc
        if not lists[names[key]]:
            raise UsageError(f"empty value list in grid entry {part!r}")
    return mil.GridSpec(
        lam_values=lists["lam"],
        learning_rate_values=lists["learning_rate"],
        momentum_values=lists["momentum"],
    )


def cmd_train(args) -> int:
    _require_file(args.corpus_in, "input corpus")
    values = _load_config_values(args)
    docs = load_corpus(args.corpus_in)
    store = _build_store(args)
    dataset = to_mil_dataset(embed.embed_corpus(docs, store))

    gamma: float | None = None
    if args.gamma is not None:
        if args.gamma == "median":
            gamma = mil.median_heuristic_gamma(dataset, seed=args.seed)
            _eprint(f"median-heuristic gamma: {gamma:.6g}")
        else:
            try:
                gamma = float(args.gamma)
            except ValueError:
                raise UsageError(f"--gamma must be a number or 'median', got {args.gamma!r}")
    config = _train_config(values, args, gamma)

    grid_cells = None
    if args.grid:
        spec = _parse_grid(args.grid, config)
        config, cells = mil.grid_search(dataset, spec, config)
        grid_cells = [
            {"lambda": c.lam, "learning_rate": c.learning_rate, "momentum": c.momentum,
             "accuracy": c.accuracy, "error": c.error}
            for c in cells
        ]
        _eprint("grid search (in-sample document accuracy):")
        for cell in cells:
            shown = "failed: " + cell.error if cell.accuracy is None else f"{cell.accuracy:.4f}"
            _eprint(
                f"  lambda={cell.lam} learning_rate={cell.learning_rate} "
                f"momentum={cell.momentum}: {shown}"
            )
        _eprint(
            f"selected: lambda={config.lam} learning_rate={config.learning_rate} "
            f"momentum={config.momentum}"
        )

    result = mil.train(dataset, config)
    accuracy = mil.document_accuracy(result.model, dataset)
    mil.save_model(result.model, args.model_out)

    _eprint("loss trace (full data, initial + per epoch):")
    for epoch, value in enumerate(result.loss_trace):
        _eprint(f"  epoch {epoch}: {value:.6g}")
    if config.epochs:
        decreased = result.loss_trace[-1] < result.loss_trace[0]
        _eprint(f"final loss {'<' if decreased else '>='} initial loss")
    _eprint(f"in-sample document accuracy: {accuracy:.4f}")

    manifest = _manifest(
        "train", args,
        config=_dataclass_dict(config),
        inputs={"corpus": args.corpus_in, "embeddings": args.embeddings},
        outputs={"model": args.model_out},
    )
    manifest.metrics = {
        "groups": dataset.n_groups,
        "instances": dataset.n_instances,
        "initial_loss": result.loss_trace[0],
        "final_loss": result.loss_trace[-1],
        "in_sample_document_accuracy": accuracy,
        "loss_trace": list(result.loss_trace),
    }
    if grid_cells is not None:
        manifest.metrics["grid"] = grid_cells
    manifest.write(_manifest_path(args, args.model_out))
    return EXIT_OK


# ------------------------------------------------------------------- predict


def cmd_predict(args) -> int:
    _require_file(args.model, "model file")
    _require_file(args.corpus_in, "input corpus")
    model = mil.load_model(args.model)
    docs = load_corpus(args.corpus_in)

    doc_summaries: dict[str, dict] = {}
    out_docs: list[Document] = []
    if docs:
        store = _build_store(args)
        if store.dim != model.dim:
            raise UsageError(
                f"embedding dimension {store.dim} conflicts with model dimension {model.dim}"
            )
        for doc in embed.embed_corpus(docs, store):
            if not doc.sentences:
                out_docs.append(doc)
                continue
            try:
                scores = mil.sentence_scores(
                    model, np.stack([s.embedding for s in doc.sentences]))
            except ValueError as exc:
                raise ValueError(f"document {doc.id}: {exc}") from exc
            labels = mil.sentence_labels(scores)
            doc_label, n_pos, n_neg = mil.document_vote(labels, scores)
            doc_summaries[doc.id] = {
                "label": _LABEL_TEXT[doc_label],
                "positive_sentences": n_pos,
                "negative_sentences": n_neg,
            }
            out_docs.append(with_predictions(doc, labels, scores))

    save_corpus(out_docs, args.corpus_out)
    docs_path = Path(str(args.corpus_out) + ".docs.json")
    with open(docs_path, "w", encoding="utf-8") as handle:
        json.dump(doc_summaries, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _eprint(f"predicted {sum(len(d.sentences) for d in out_docs)} sentences "
            f"in {len(out_docs)} documents")

    manifest = _manifest(
        "predict", args,
        config={"model_dim": model.dim, "use_bias": model.config.use_bias},
        inputs={"model": args.model, "corpus": args.corpus_in,
                "embeddings": args.embeddings},
        outputs={"corpus": args.corpus_out, "documents": str(docs_path)},
    )
    manifest.write(_manifest_path(args, args.corpus_out))
    return EXIT_OK


# ------------------------------------------------------------------ evaluate


def _sentence_pairs(gold_docs, pred_docs, pred_name: str):
    pred_by_id = {d.id: d for d in pred_docs}
    predicted, gold = [], []
    for doc in gold_docs:
        gold_labels = [s.predicted_label for s in doc.sentences]
        if not any(label is not None for label in gold_labels):
            continue
        pred_doc = pred_by_id.get(doc.id)
        if pred_doc is None:
            raise CorpusError(f"label-file mismatch: document {doc.id} missing from {pred_name}")
        if len(pred_doc.sentences) != len(doc.sentences):
            raise CorpusError(
                f"label-file mismatch: document {doc.id} has {len(doc.sentences)} gold "
                f"sentences but {len(pred_doc.sentences)} predicted"
            )
        for gold_label, pred_sentence in zip(gold_labels, pred_doc.sentences):
            if gold_label is None:
                continue
            gold.append(gold_label)
            predicted.append(pred_sentence.predicted_label)
    if not gold:
        raise CorpusError("no gold sentence labels found in the gold corpus")
    return predicted, gold


def _majority_label(doc: Document) -> int | None:
    """Vote of the labelled sentences; ties consult scores only if all have one."""
    labels = [s.predicted_label for s in doc.sentences if s.predicted_label is not None]
    scores = [s.score for s in doc.sentences]
    return mil.document_vote(labels, None if None in scores else scores)[0]


def _document_pairs(gold_docs, pred_docs, pred_name: str):
    pred_by_id = {d.id: d for d in pred_docs}
    predicted, gold = [], []
    for doc in gold_docs:
        if doc.label is None:
            continue
        pred_doc = pred_by_id.get(doc.id)
        if pred_doc is None:
            raise CorpusError(f"label-file mismatch: document {doc.id} missing from {pred_name}")
        gold.append(doc.label)
        predicted.append(_majority_label(pred_doc))
    if not gold:
        raise CorpusError("no document labels found in the gold corpus")
    return predicted, gold


def cmd_evaluate(args) -> int:
    _require_file(args.gold, "gold corpus")
    gold_docs = load_corpus(args.gold)
    reports: dict[str, evaluate.EvalReport] = {}
    for entry in args.predictions:
        name, sep, path = entry.partition("=")
        if not sep:
            name, path = Path(entry).stem, entry
        _require_file(path, f"predictions file for {name}")
        pred_docs = load_corpus(path)
        if args.mode == "sentence":
            predicted, gold = _sentence_pairs(gold_docs, pred_docs, path)
        else:
            predicted, gold = _document_pairs(gold_docs, pred_docs, path)
        reports[name] = evaluate.score_predictions(predicted, gold)

    title = f"Out-of-sample predictive performance ({args.mode}-level)"
    if args.format == "json":
        rendered = evaluate.report_to_json(reports, title)
    else:
        rendered = evaluate.format_report_table(reports, title)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        manifest = _manifest(
            "evaluate", args,
            config={"mode": args.mode, "format": args.format},
            inputs={"gold": args.gold, "predictions": ",".join(args.predictions)},
            outputs={"report": args.out},
        )
        manifest.write(_manifest_path(args, args.out))
    else:
        print(rendered)
    return EXIT_OK


# -------------------------------------------------------------------- render


_ANSI = {
    POSITIVE: "\x1b[47;30m",   # light gray background
    NEGATIVE: "\x1b[100;97m",  # dark gray background
}
_ANSI_RESET = "\x1b[0m"
_CSS_CLASS = {POSITIVE: "pos", NEGATIVE: "neg", None: "neutral"}

_HTML_PAGE = """<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: sans-serif; max-width: 45em; margin: 2em auto; }}
span.pos {{ background: #d9d9d9; }}
span.neg {{ background: #808080; color: #fff; }}
span.neutral {{ background: none; }}
</style>
</head>
<body>
<h3>{title}</h3>
<p>{body}</p>
</body>
</html>
"""


def _render_ansi(doc: Document) -> str:
    lines = []
    for sentence in doc.sentences:
        if sentence.predicted_label is None:
            lines.append(sentence.text)
        else:
            lines.append(f"{_ANSI[sentence.predicted_label]}{sentence.text}{_ANSI_RESET}")
    return "\n".join(lines)


def _render_html(doc: Document) -> str:
    spans = [
        f'<span class="{_CSS_CLASS[s.predicted_label]}">{html_mod.escape(s.text)}</span>'
        for s in doc.sentences
    ]
    return _HTML_PAGE.format(title=html_mod.escape(doc.id), body="\n".join(spans))


def cmd_render(args) -> int:
    _require_file(args.corpus, "corpus")
    docs = load_corpus(args.corpus)
    doc = next((d for d in docs if d.id == args.doc_id), None)
    if doc is None:
        raise UsageError(f"unknown document id {args.doc_id!r}")
    if not any(s.predicted_label is not None for s in doc.sentences):
        raise UsageError(
            f"document {args.doc_id!r} has no sentence predictions; run 'milsent predict' first"
        )
    rendered = _render_html(doc) if args.format == "html" else _render_ansi(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
        manifest = _manifest(
            "render", args,
            config={"format": args.format, "doc_id": args.doc_id},
            inputs={"corpus": args.corpus},
            outputs={"rendered": args.out},
        )
        manifest.write(_manifest_path(args, args.out))
    else:
        print(rendered)
    return EXIT_OK


# ---------------------------------------------------------------------- main


def _add_common(parser, *, seed: bool = True, config: bool = True) -> None:
    if config:
        parser.add_argument("--config", help=f"flat key-value config file "
                            f"(default: ${CONFIG_ENV_VAR})")
    parser.add_argument("--threads", type=int, default=1,
                        help="bound for parallel sections (default 1, reproducible)")
    parser.add_argument("--manifest", help="override the manifest path")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def _add_embedding_flags(parser) -> None:
    parser.add_argument("embeddings",
                        help="embedding file, or the literal 'hash' for the "
                             "deterministic fallback embedder")
    parser.add_argument("--embedding-format", choices=("word", "sentence"),
                        default="word",
                        help="word: 'term v1 .. vd' lines, averaged per sentence; "
                             "sentence: 'id<TAB>v1 .. vd' lines keyed by doc_id:index")
    parser.add_argument("--dim", type=int,
                        help="expected embedding dimension (checked against the file; "
                             "sets the dimension for 'hash')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milsent",
        description="Sentence-level sentiment for financial news via "
                    "multi-instance learning on market reactions.",
    )
    parser.add_argument("--version", action="version", version=f"milsent {milsent.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean, split, tokenize, and filter a corpus")
    p.add_argument("corpus_in")
    p.add_argument("corpus_out")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("label", help="label documents by event-day abnormal return")
    p.add_argument("corpus_in")
    p.add_argument("prices_dir", help="directory of <TICKER>.csv price files")
    p.add_argument("index_file", help="market index price CSV")
    p.add_argument("corpus_out")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="embed sentences and train the MIL classifier")
    p.add_argument("corpus_in")
    _add_embedding_flags(p)
    p.add_argument("model_out")
    p.add_argument("--lambda", dest="lam", type=float, help="document-error weight")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--gamma", help="RBF bandwidth: a number, or 'median'")
    p.add_argument("--grid", help="grid search, e.g. 'lambda=1,10;learning_rate=0.05;momentum=0.8'")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="per-sentence labels/scores and document majorities")
    p.add_argument("model")
    p.add_argument("corpus_in")
    _add_embedding_flags(p)
    p.add_argument("corpus_out")
    _add_common(p, config=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score prediction files against a gold corpus")
    p.add_argument("gold")
    p.add_argument("predictions", nargs="+", metavar="NAME=PATH",
                   help="prediction corpus files; bare paths use the file stem as name")
    p.add_argument("--mode", choices=("sentence", "document"), default="sentence")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    _add_common(p, seed=False, config=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="show one document with sentence highlighting")
    p.add_argument("corpus")
    p.add_argument("doc_id")
    p.add_argument("--format", choices=("ansi", "html"), default="ansi")
    p.add_argument("--out", help="write the rendering here instead of stdout")
    _add_common(p, seed=False, config=False)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, configfile.ConfigError, mil.ModelFormatError) as exc:
        _eprint(f"error: {exc}")
        return EXIT_USAGE
    except (
        CorpusError,
        eventstudy.EventStudyError,
        embed.EmbeddingError,
        mil.TrainingError,
        DictionaryError,
        ValueError,
        OSError,
    ) as exc:
        _eprint(f"error: {exc}")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
