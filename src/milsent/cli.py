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
from dataclasses import asdict, replace
from datetime import datetime, timezone
from itertools import compress, islice, product
from pathlib import Path

import milsent
from milsent import config as configfile
from milsent._lazy import lazy_import
from milsent.corpus import (
    CorpusError,
    DataError,
    Document,
    LABEL_TO_TEXT,
    NEGATIVE,
    POSITIVE,
    Sentences,
    UsageError,
    atomic_write,
    iter_corpus,
    load_corpus,
    save_corpus,
    with_predictions,
)

np = lazy_import("numpy")
# every stage layer executes on its first use, so a command runs only the
# layers it calls; all are in `sys.modules` once this module is imported
baselines = lazy_import("milsent.baselines")
embed = lazy_import("milsent.embed")
eventstudy = lazy_import("milsent.eventstudy")
evaluate = lazy_import("milsent.evaluate")
mil = lazy_import("milsent.mil")
preprocess = lazy_import("milsent.preprocess")

CONFIG_ENV_VAR = "MILSENT_CONFIG"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

# Documents that `predict` embeds and scores at once: its memory follows
# one chunk of documents, not the corpus. On score-bulk (6 000 documents,
# 45 000 sentences; 2-core VM, medians of 10 alternating runs) chunks of
# 250, 500, 1000 and 2000 documents took 1.36, 1.20, 1.19 and 1.21 s and
# peaked at 43, 45, 50 and 62 MB RSS.
PREDICT_CHUNK_DOCS = 1000


def _eprint(*parts) -> None:
    print(*parts, file=sys.stderr)


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(args, output_path, *, config: dict, inputs: dict, outputs: dict,
                    metrics: dict | None = None) -> None:
    """Write the record of this run, enough to reproduce it, to `--manifest`
    or `<output_path>.manifest.json`. It spans the command from the start
    `main` stamped on `args` to this call."""
    record = {
        "command": args.command,
        "version": milsent.__version__,
        "config": config,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "seed": getattr(args, "seed", None),
        "started_at": args.started_at,
        "finished_at": _now(),
        "metrics": metrics,
    }
    with atomic_write(args.manifest or f"{output_path}.manifest.json") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


# Config file key -> dataclass field, per stage. A file may hold any key of
# the three maps, so one file can steer the whole pipeline.
_PREPROCESS_KEYS = {
    "min_doc_words": "min_doc_words",
    "min_count": "min_count",
    "length_percentile": "length_percentile",
    "cutoff_pattern": "cutoff_patterns",
    "date_pattern": "date_patterns",
    "url_pattern": "url_pattern",
}
_EVENT_KEYS = {
    "penny_threshold": "penny_threshold",
    "outlier_level": "outlier_level",
    "window": "window",
}
_TRAIN_KEYS = {
    "lambda": "lam",
    "learning_rate": "learning_rate",
    "momentum": "momentum",
    "epochs": "epochs",
    "groups_per_batch": "groups_per_batch",
    "kernel_gamma": "kernel_gamma",
    "use_bias": "use_bias",
}
# the training keys that `train --grid` varies, in the order of its cells
_GRID_KEYS = ("lambda", "learning_rate", "momentum")


def _config(args, base, keys: dict[str, str]):
    """`base` with the config file's values for `keys` applied."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return base
    _require_file(path, "config file")
    values = configfile.load_flat_config(path, {**_PREPROCESS_KEYS, **_EVENT_KEYS, **_TRAIN_KEYS})
    return configfile.apply(path, values, base, keys)


def _train_config(args) -> mil.TrainConfig:
    """The config file's training keys, then each flag given on top of its key."""
    config = _config(args, mil.TrainConfig(), _TRAIN_KEYS)
    gamma = None if args.gamma == "median" else args.gamma
    if gamma is not None:
        try:
            gamma = float(gamma)
        except ValueError:
            raise UsageError(f"--gamma must be a number or 'median', got {gamma!r}")
    return _with_flags(config, (
        ("--lambda", "lam", args.lam),
        ("--learning-rate", "learning_rate", args.learning_rate),
        ("--momentum", "momentum", args.momentum),
        ("--epochs", "epochs", args.epochs),
        ("--gamma", "kernel_gamma", gamma),
        ("--seed", "seed", args.seed),
    ))


def _with_flags(base, flags):
    """The dataclass `base` with each given flag's value set on its field;
    a value its checks reject is a usage error that names the flag."""
    for flag, field, value in flags:
        if value is not None:
            try:
                base = replace(base, **{field: value})
            except (ValueError, DataError) as exc:
                raise UsageError(f"{flag} {value}: {exc}") from exc
    return base


# ---------------------------------------------------------------- preprocess


def cmd_preprocess(args) -> int:
    _require_file(args.corpus_in, "input corpus")
    pconfig = _config(args, preprocess.PreprocessConfig(), _PREPROCESS_KEYS)

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
    vocab = preprocess.build_vocabulary(token_lists, min_count=pconfig.min_count)

    processed = []
    for doc, sentences in split_docs:
        columns = Sentences(
            [text for text, _ in sentences],
            [tuple(preprocess.apply_vocabulary(tokens, vocab)) for _, tokens in sentences],
        )
        processed.append(replace(doc, sentences=columns))
    kept = preprocess.filter_corpus(processed, pconfig)

    save_corpus(kept, args.corpus_out)
    if not kept:
        _eprint("warning: no documents survived preprocessing")
    _eprint(f"documents: {len(docs)} in, {len(kept)} kept")
    _eprint(f"vocabulary: {distinct_terms} distinct terms, {len(vocab)} retained "
            f"(min_count={pconfig.min_count})")

    _write_manifest(
        args, args.corpus_out,
        config=asdict(pconfig),
        inputs={"corpus": args.corpus_in},
        outputs={"corpus": args.corpus_out},
        metrics={
            "documents_in": len(docs),
            "documents_out": len(kept),
            "vocabulary_distinct": distinct_terms,
            "vocabulary_retained": len(vocab),
        },
    )
    return EXIT_OK


# --------------------------------------------------------------------- label


def cmd_label(args) -> int:
    _require_file(args.corpus_in, "input corpus")
    _require_file(args.index_file, "index price file")
    prices_dir = Path(args.prices_dir)
    if not prices_dir.is_dir():
        raise UsageError(f"prices directory not found: {prices_dir}")
    config = _config(args, eventstudy.EventLabelConfig(), _EVENT_KEYS)

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
    drop_counts = result.drop_counts()
    for reason, count in sorted(drop_counts.items()):
        _eprint(f"dropped ({reason}): {count}")

    _write_manifest(
        args, args.corpus_out,
        config=asdict(config),
        inputs={"corpus": args.corpus_in, "prices_dir": args.prices_dir,
                "index": args.index_file},
        outputs={"corpus": args.corpus_out},
        metrics={
            "labeled_positive": n_pos,
            "labeled_negative": n_neg,
            "dropped": len(result.dropped),
            "dropped_by_reason": drop_counts,
            "dropped_documents": result.dropped,
        },
    )
    return EXIT_OK


# --------------------------------------------------------------------- train


def _build_store(args) -> embed.EmbeddingStore:
    # --dim and --seed pass a hash store's checks whatever the source
    hashed = _with_flags(embed.hash_fallback_store(),
                         (("--dim", "dim", args.dim), ("--seed", "seed", args.seed)))
    source = args.embeddings
    if source == "hash":
        return hashed
    _require_file(source, "embedding file")
    if args.embedding_format == "sentence":
        store = embed.load_sentence_embeddings(source)
    else:
        store = embed.load_embeddings(source)
    if args.dim is not None and args.dim != store.dim:
        raise UsageError(
            f"--dim {args.dim} conflicts with embedding file dimension {store.dim}"
        )
    return store


def _zero_rows(X: np.ndarray) -> int:
    """Count of the rows of X embedded as the zero vector (no tokens, or none
    in the vocabulary)."""
    return int(np.count_nonzero(~X.any(axis=1)))


def _zero_vectors(zero: int, total: int) -> int:
    """`zero` of `total` sentences embedded as the zero vector, announced in
    one stderr line when there are any."""
    if zero:
        _eprint(f"warning: {zero} of {total} sentences embedded as the zero vector")
    return zero


def _grid_configs(text: str, base: mil.TrainConfig) -> list[mil.TrainConfig]:
    """`base` with every combination of the grid's values, the axes in
    `_GRID_KEYS` order; an axis the grid leaves out keeps its `base` value."""
    axes = {key: (getattr(base, _TRAIN_KEYS[key]),) for key in _GRID_KEYS}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in axes:
            expected = ";".join(f"{name}=..." for name in _GRID_KEYS)
            raise UsageError(f"bad grid entry {part!r}; expected {expected}")
        try:
            axes[key] = tuple(float(v) for v in raw.split(",") if v.strip())
            for value in axes[key]:
                replace(base, **{_TRAIN_KEYS[key]: value})
        except ValueError as exc:
            raise UsageError(f"--grid: bad values in {part!r}: {exc}") from exc
        if not axes[key]:
            raise UsageError(f"empty value list in grid entry {part!r}")
    fields = [_TRAIN_KEYS[key] for key in _GRID_KEYS]
    return [replace(base, **dict(zip(fields, cell))) for cell in product(*axes.values())]


def _grid_cell(config: mil.TrainConfig) -> dict:
    """A config's value of each grid key, by key."""
    return {key: getattr(config, _TRAIN_KEYS[key]) for key in _GRID_KEYS}


def _grid_line(config: mil.TrainConfig) -> str:
    return " ".join(f"{key}={value}" for key, value in _grid_cell(config).items())


def cmd_train(args) -> int:
    _require_file(args.corpus_in, "input corpus")
    config = _train_config(args)
    configs = _grid_configs(args.grid, config) if args.grid else [config]
    docs = load_corpus(args.corpus_in)
    store = _build_store(args)
    X = embed.embed_matrix(docs, store)
    try:
        dataset = mil.to_mil_dataset(docs, X)
    except CorpusError as exc:
        raise CorpusError(f"{args.corpus_in}: {exc}") from exc
    zero_vectors = _zero_vectors(_zero_rows(X), len(X))
    if args.gamma == "median":
        gamma = mil.median_heuristic_gamma(dataset, seed=args.seed)
        configs = [replace(cell, kernel_gamma=gamma) for cell in configs]
        _eprint(f"median-heuristic gamma: {gamma:.6g}")

    grid_cells = None
    if args.grid:
        outcomes, result = mil.grid_search(dataset, configs)
        grid_cells = []
        _eprint("grid search (in-sample document accuracy):")
        for cell, outcome in zip(configs, outcomes):
            failed = isinstance(outcome, str)
            grid_cells.append({**_grid_cell(cell), "accuracy": None if failed else outcome,
                               "error": outcome if failed else None})
            shown = "failed: " + outcome if failed else f"{outcome:.4f}"
            _eprint(f"  {_grid_line(cell)}: {shown}")
        _eprint(f"selected: {_grid_line(result.model.config)}")
    else:
        result = mil.train(dataset, configs[0])
    config = result.model.config
    accuracy = mil.document_accuracy(result.model, dataset)
    mil.save_model(result.model, args.model_out)

    _eprint("loss trace (full data, initial + per epoch):")
    for epoch, value in enumerate(result.loss_trace):
        _eprint(f"  epoch {epoch}: {value:.6g}")
    if config.epochs:
        decreased = result.loss_trace[-1] < result.loss_trace[0]
        _eprint(f"final loss {'<' if decreased else '>='} initial loss")
    _eprint(f"in-sample document accuracy: {accuracy:.4f}")

    metrics = {
        "groups": dataset.n_groups,
        "instances": dataset.n_instances,
        "initial_loss": result.loss_trace[0],
        "final_loss": result.loss_trace[-1],
        "in_sample_document_accuracy": accuracy,
        "zero_vector_sentences": zero_vectors,
        "loss_trace": list(result.loss_trace),
    }
    if grid_cells is not None:
        metrics["grid"] = grid_cells
    _write_manifest(
        args, args.model_out,
        config=asdict(config),
        inputs={"corpus": args.corpus_in, "embeddings": args.embeddings},
        outputs={"model": args.model_out},
        metrics=metrics,
    )
    return EXIT_OK


# ------------------------------------------------------------------- predict


def _chunks(items, size: int):
    """Lists of `size` consecutive items of an iterable; the last may be shorter."""
    items = iter(items)
    return iter(lambda: list(islice(items, size)), [])


def _predicted(path, model: mil.MilModel, store: embed.EmbeddingStore, doc_summaries: dict,
               totals: dict):
    """The documents of the corpus at `path` with their sentence predictions,
    embedded and scored `PREDICT_CHUNK_DOCS` documents at a time; each
    sentence's vector and each document's scores do not depend on the
    chunk. A document without sentences passes through unchanged. Fills
    `doc_summaries` with each predicted document's vote and `totals` with
    the counts of documents, sentences and zero-vector sentences."""
    for docs in _chunks(iter_corpus(path), PREDICT_CHUNK_DOCS):
        X = embed.embed_matrix(docs, store)
        counts = np.fromiter((len(doc.sentences) for doc in docs), dtype=np.intp,
                             count=len(docs))
        try:
            votes = mil.group_votes(model, X, counts)
        except mil.ScoreError as exc:
            raise ValueError(f"document {docs[exc.index[0]].id}: {exc}") from exc
        totals["documents"] += len(docs)
        totals["sentences"] += len(X)
        totals["zero_vectors"] += _zero_rows(X)
        out_docs = []
        for doc, (labels, scores, (doc_label, n_pos, n_neg)) in zip(docs, votes):
            if not labels:
                out_docs.append(doc)
                continue
            doc_summaries[doc.id] = {
                "label": LABEL_TO_TEXT[doc_label],
                "positive_sentences": n_pos,
                "negative_sentences": n_neg,
            }
            out_docs.append(with_predictions(doc, labels, scores))
        yield from out_docs
        # let this chunk go before the next one is read: one chunk at a time
        del docs, doc, X, votes, out_docs


def cmd_predict(args) -> int:
    _require_file(args.model, "model file")
    _require_file(args.corpus_in, "input corpus")
    model = mil.load_model(args.model)
    store = _build_store(args)
    if store.dim != model.dim:
        raise UsageError(
            f"embedding dimension {store.dim} conflicts with model dimension {model.dim}")

    doc_summaries: dict[str, dict] = {}
    totals = dict.fromkeys(("documents", "sentences", "zero_vectors"), 0)
    save_corpus(_predicted(args.corpus_in, model, store, doc_summaries, totals),
                args.corpus_out)
    zero_vectors = _zero_vectors(totals["zero_vectors"], totals["sentences"])
    docs_path = Path(str(args.corpus_out) + ".docs.json")
    # one string, one write: json.dump would stream the indented text in
    # many small writes
    text = json.dumps(doc_summaries, indent=2, sort_keys=True)
    with atomic_write(docs_path) as handle:
        handle.write(text + "\n")
    _eprint(f"predicted {totals['sentences']} sentences in {totals['documents']} documents")

    _write_manifest(
        args, args.corpus_out,
        config={"model_dim": model.dim, "use_bias": model.config.use_bias},
        inputs={"model": args.model, "corpus": args.corpus_in,
                "embeddings": args.embeddings},
        outputs={"corpus": args.corpus_out, "documents": docs_path},
        metrics={"zero_vector_sentences": zero_vectors},
    )
    return EXIT_OK


# ------------------------------------------------------------------ evaluate


def _label_pairs(gold_docs, predicted: dict, pred_name: str, unit: str):
    """(predicted, gold) labels of every gold label: `gold_docs` holds
    (id, gold labels) per gold document in file order, and `predicted` the
    predicted labels of each document by id, one per gold label. By
    sentence those are the sentence labels; by document (`unit` is then
    "document") a document's label and its prediction's `_majority_label`,
    each alone in a tuple."""
    predicted_labels, gold = [], []
    for doc_id, gold_labels in gold_docs:
        if gold_labels.count(None) == len(gold_labels):
            continue
        pred = predicted.get(doc_id)
        if pred is None:
            raise CorpusError(f"label-file mismatch: document {doc_id} missing from {pred_name}")
        if len(pred) != len(gold_labels):
            raise CorpusError(
                f"label-file mismatch: document {doc_id} has {len(gold_labels)} gold "
                f"sentences but {len(pred)} predicted"
            )
        if None in gold_labels:
            kept = [label is not None for label in gold_labels]
            gold_labels = compress(gold_labels, kept)
            pred = compress(pred, kept)
        gold.extend(gold_labels)
        predicted_labels.extend(pred)
    if not gold:
        raise CorpusError(f"no {unit} labels found in the gold corpus")
    return predicted_labels, gold


def _majority_label(doc: Document) -> int | None:
    """Vote of the labelled sentences; ties consult scores only if all have one."""
    labels, scores = doc.sentences.labels, doc.sentences.scores
    if None in labels:
        labels = [label for label in labels if label is not None]
    return mil.document_vote(labels, None if None in scores else scores)[0]


def cmd_evaluate(args) -> int:
    _require_file(args.gold, "gold corpus")
    methods: dict[str, str] = {}
    for entry in args.predictions:
        name, sep, path = entry.partition("=")
        if not sep:
            name, path = Path(entry).stem, entry
        if name in methods:
            raise UsageError(f"method name {name!r} given twice: {methods[name]} and {path}")
        methods[name] = path
    # each file is read one document at a time and every record is checked,
    # but only what the pairing reads is kept: sentence labels, or a
    # document's label and the vote of its prediction
    by_sentence = args.mode == "sentence"
    unit = "gold sentence" if by_sentence else "document"
    gold_docs = [(doc.id, doc.sentences.labels if by_sentence else (doc.label,))
                 for doc in iter_corpus(args.gold)]
    reports: dict[str, evaluate.EvalReport] = {}
    for name, path in methods.items():
        _require_file(path, f"predictions file for {name}")
        predicted = {doc.id: doc.sentences.labels if by_sentence else (_majority_label(doc),)
                     for doc in iter_corpus(path)}
        reports[name] = evaluate.score_predictions(
            *_label_pairs(gold_docs, predicted, path, unit))

    title = f"Out-of-sample predictive performance ({args.mode}-level)"
    if args.format == "json":
        rendered = evaluate.report_to_json(reports, title)
    else:
        rendered = evaluate.format_report_table(reports, title)
    if args.out:
        with atomic_write(args.out) as handle:
            handle.write(rendered + "\n")
        _write_manifest(
            args, args.out,
            config={"mode": args.mode, "format": args.format},
            inputs={"gold": args.gold, "predictions": ",".join(args.predictions)},
            outputs={"report": args.out},
            metrics={name: report.to_dict() for name, report in reports.items()},
        )
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
    return "\n".join(
        text if label is None else f"{_ANSI[label]}{text}{_ANSI_RESET}"
        for text, label in zip(doc.sentences.texts, doc.sentences.labels)
    )


def _render_html(doc: Document) -> str:
    spans = [
        f'<span class="{_CSS_CLASS[label]}">{html_mod.escape(text)}</span>'
        for text, label in zip(doc.sentences.texts, doc.sentences.labels)
    ]
    return _HTML_PAGE.format(title=html_mod.escape(doc.id), body="\n".join(spans))


def cmd_render(args) -> int:
    _require_file(args.corpus, "corpus")
    doc = None
    for candidate in iter_corpus(args.corpus):  # every line is checked
        if candidate.id == args.doc_id:
            doc = candidate
    if doc is None:
        raise UsageError(f"unknown document id {args.doc_id!r}")
    if doc.sentences.labels.count(None) == len(doc.sentences):
        raise UsageError(
            f"document {args.doc_id!r} has no sentence predictions; run 'milsent predict' first"
        )
    rendered = _render_html(doc) if args.format == "html" else _render_ansi(doc)
    if args.out:
        with atomic_write(args.out) as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
        _write_manifest(
            args, args.out,
            config={"format": args.format, "doc_id": args.doc_id},
            inputs={"corpus": args.corpus},
            outputs={"rendered": args.out},
        )
    else:
        print(rendered)
    return EXIT_OK


# ---------------------------------------------------------------------- main


def _add_common(parser, *, seed: bool = True, config: bool = True) -> None:
    if config:
        parser.add_argument("--config", help=f"flat key-value config file "
                            f"(default: ${CONFIG_ENV_VAR})")
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
    args.started_at = _now()
    try:
        return args.func(args)
    # every layer's error derives from one of the bases in `corpus`, so an
    # error executes no layer just to be caught
    except UsageError as exc:
        _eprint(f"error: {exc}")
        return EXIT_USAGE
    except (DataError, ValueError, OSError) as exc:
        _eprint(f"error: {exc}")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
