"""Sentence-level sentiment for financial news, learned from market reactions.

Documents carry a binary market-reaction label; sentences do not. A
pairwise-similarity regularized logistic classifier trained on groups of
sentence embeddings transfers the document signal down to individual
sentences. The package also ships the surrounding pipeline: text
preprocessing, event-study labeling from price data, embedding ingestion,
dictionary and bag-of-words baselines, and evaluation reports.

Importing the package executes none of its modules: the names below and
`milsent.<module>` import their module on first access.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "Document": "corpus",
    "NEGATIVE": "corpus",
    "POSITIVE": "corpus",
    "SentenceInstance": "corpus",
    "Sentences": "corpus",
    "load_corpus": "corpus",
    "save_corpus": "corpus",
    "MilDataset": "mil",
    "MilModel": "mil",
    "TrainConfig": "mil",
    "to_mil_dataset": "mil",
    "train": "mil",
}
_MODULES = ("baselines", "cli", "config", "corpus", "embed", "eventstudy", "evaluate",
            "mil", "preprocess")

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"milsent.{_EXPORTS[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"milsent.{name}")
    raise AttributeError(f"module 'milsent' has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULES})
