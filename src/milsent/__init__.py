"""Sentence-level sentiment for financial news, learned from market reactions.

Documents carry a binary market-reaction label; sentences do not. A
pairwise-similarity regularized logistic classifier trained on groups of
sentence embeddings transfers the document signal down to individual
sentences. The package also ships the surrounding pipeline: text
preprocessing, event-study labeling from price data, embedding ingestion,
dictionary and bag-of-words baselines, and evaluation reports.
"""

__version__ = "0.1.0"

from milsent.corpus import (
    Document,
    NEGATIVE,
    POSITIVE,
    SentenceInstance,
    Sentences,
    load_corpus,
    save_corpus,
)
from milsent.mil import MilDataset, MilModel, TrainConfig, to_mil_dataset, train

__all__ = [
    "Document",
    "MilDataset",
    "MilModel",
    "NEGATIVE",
    "POSITIVE",
    "SentenceInstance",
    "Sentences",
    "TrainConfig",
    "load_corpus",
    "save_corpus",
    "to_mil_dataset",
    "train",
    "__version__",
]
