"""Pipeline steps that no `milsent` subcommand covers, run as a user script.

    python3 perfbench/stages.py split LABELED TRAIN TEST --train-ratio R
    python3 perfbench/stages.py baselines TRAIN TEST BOW_OUT DICT_OUT

`split` is the paper's temporal split (oldest documents train). `baselines`
fits the bag-of-words logistic regression on the training documents and
their market labels, and writes bag-of-words and demo dictionary sentence
predictions for the test documents as corpus files that `milsent evaluate`
can score. Only library calls into `milsent` do the work.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from milsent import baselines, corpus, evaluate


def split(args) -> None:
    docs = corpus.load_corpus(args.labeled)
    train, test = evaluate.temporal_split(docs, ratio=args.train_ratio)
    corpus.save_corpus(train, args.train_out)
    corpus.save_corpus(test, args.test_out)


def fit_and_score(args) -> None:
    train_docs = corpus.load_corpus(args.train)
    test_docs = corpus.load_corpus(args.test)
    token_lists = [[t for s in d.sentences for t in s.tokens] for d in train_docs]
    labels = [d.label for d in train_docs]
    index = baselines.build_vocabulary_index(token_lists)
    features = [baselines.bow_featurize(tokens, index) for tokens in token_lists]
    model = baselines.train_bow_logreg(features, labels, index)
    dictionary = baselines.load_demo_dictionary()

    bow_docs, dict_docs = [], []
    for doc in test_docs:
        predictions = [baselines.bow_predict(model, s.tokens) for s in doc.sentences]
        bow_docs.append(corpus.with_predictions(
            doc, [label for label, _ in predictions], [score for _, score in predictions]))
        dict_docs.append(replace(doc, sentences=tuple(
            replace(s, predicted_label=baselines.dictionary_classify(s.tokens, dictionary))
            for s in doc.sentences)))
    corpus.save_corpus(bow_docs, args.bow_out)
    corpus.save_corpus(dict_docs, args.dict_out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stages.py")
    sub = parser.add_subparsers(dest="stage", required=True)
    p = sub.add_parser("split")
    p.add_argument("labeled")
    p.add_argument("train_out")
    p.add_argument("test_out")
    p.add_argument("--train-ratio", type=float, required=True)
    p.set_defaults(func=split)
    p = sub.add_parser("baselines")
    p.add_argument("train")
    p.add_argument("test")
    p.add_argument("bow_out")
    p.add_argument("dict_out")
    p.set_defaults(func=fit_and_score)
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
