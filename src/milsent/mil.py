"""Multi-instance training of a sentence-level logistic classifier.

Groups of sentence vectors carry one binary label each. A `MilDataset` is
one n x d matrix `X` of every instance, group after group, with one size
and one label per group; `to_mil_dataset` builds it from a corpus and the
corpus's `embed.embed_matrix` rows, one group per document, without
copying them. The loss, its gradient and training read that layout
directly, and a minibatch gathers its groups' rows out of `X`. The
training loss couples two pressures: an RBF-similarity weighted penalty on
score differences between similar instances, averaged over all ordered
instance pairs, and a squared error between each group's mean instance
score and its label, weighted by `lam`.
Minimized by SGD with classical momentum over group minibatches; the
pair/group normalizers are re-read as batch counts on every step. The
pairwise RBF kernel is streamed over blocks of rows and never held whole,
so a loss or gradient needs O(n * KERNEL_BLOCK_ROWS) memory for n
instances. The kernel is symmetric, so each unordered instance pair is
evaluated once, about n^2 / 2 kernel entries, and the time stays O(n^2).
A block's exponents -gamma ||x_i - x_j||^2 come out of one matrix product,
[x_i, ||x_i||^2, 1] times gamma [2 x_j; -1; -||x_j||^2], clipped at 0 and
exponentiated in place.
One kernel sweep serves any number of score columns: training keeps the
scores after every epoch and traces the exact full-data loss of all epochs
in a single sweep at the end, not one sweep per epoch.

Every sentence score, in training and in prediction, comes from one
product, `_linear_scores`, which reduces each row of a C-ordered matrix on
its own: a sentence's score depends only on its own vector, not on the
rows scored with it. `sentence_scores` scores an instance matrix,
`sentence_labels` applies the 0.5 rule and `document_vote` takes the
majority. `group_votes` scores consecutive groups of any sizes in one
`sentence_scores` call and votes each group: `document_accuracy`, which
`grid_search` and the `train` command report, and the `predict` command
all score and vote through it.

`TrainConfig` and `MilModel` check the JSON type of each of their values
where they are built, so every model `save_model` writes, `load_model`
reads back.

`grid_search` trains a sequence of `TrainConfig`s and keeps the one of
highest document accuracy, a tie going to the smallest config tuple. It
names no training field: which fields a grid varies is for its caller to
say, and `train --grid` varies `lam`, `learning_rate` and `momentum`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import Sequence

from milsent._lazy import lazy_import
from milsent.corpus import (CorpusError, DataError, Document, NEGATIVE, POSITIVE,
                            UsageError, atomic_write)

np = lazy_import("numpy")

MODEL_FORMAT = "milsent-model"
MODEL_VERSION = 1

# rows of the pairwise kernel held at once: memory O(n * KERNEL_BLOCK_ROWS)
KERNEL_BLOCK_ROWS = 64


class TrainingError(DataError):
    """Optimization produced a non-finite value or cannot proceed."""


class ModelFormatError(UsageError):
    """A model file is corrupted or has an unknown format/version."""


def _check_json_type(name: str, value, expected: type) -> None:
    """A value has the JSON type of `expected`: a bool is not a number, and
    an int is a float but a float is not an int."""
    if not (type(value) is expected or (expected is float and type(value) is int)):
        raise TypeError(f"{name} must be a JSON {expected.__name__}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 10.0
    learning_rate: float = 0.05
    momentum: float = 0.8
    epochs: int = 25
    groups_per_batch: int = 32
    kernel_gamma: float = 1.0
    seed: int = 0
    use_bias: bool = True

    def __post_init__(self):
        for field in fields(self):
            _check_json_type(f"config {field.name}", getattr(self, field.name),
                             type(field.default))
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 0 or self.groups_per_batch < 1:
            raise ValueError("epochs must be >= 0 and groups_per_batch >= 1")
        if not 0 < self.kernel_gamma < math.inf:
            raise ValueError("kernel_gamma must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class MilModel:
    theta: np.ndarray
    dim: int
    config: TrainConfig

    def __post_init__(self):
        _check_json_type("dim", self.dim, int)
        theta = np.asarray(self.theta, dtype=float)
        expected = self.dim + (1 if self.config.use_bias else 0)
        if theta.shape != (expected,):
            raise ValueError(f"theta must have length {expected}, got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise TrainingError("theta contains non-finite values")
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True, eq=False)
class MilDataset:
    """Groups of instance vectors with binary group labels, stacked.

    `X` holds every instance, n x dim, group after group: group i is the
    `sizes[i]` rows after those of the groups before it, with label
    `labels[i]`. A float X is kept as given, with no copy.
    """

    X: np.ndarray
    sizes: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        sizes = np.asarray(self.sizes, dtype=np.intp)
        labels = np.asarray(self.labels)
        if X.ndim != 2:
            raise CorpusError(f"the instances must be a 2-d matrix, got shape {X.shape}")
        if sizes.ndim != 1 or sizes.shape != labels.shape:
            raise CorpusError(f"{sizes.size} group sizes but {labels.size} group labels")
        if not len(sizes):
            raise CorpusError("a dataset needs at least one group")
        if sizes.min() < 1:
            raise CorpusError("every group must hold at least one instance")
        if sizes.sum() != len(X):
            raise CorpusError(f"the group sizes sum to {sizes.sum()} but there are "
                              f"{len(X)} instances")
        if not np.all((labels == POSITIVE) | (labels == NEGATIVE)):
            raise CorpusError("group labels must be 0 or 1")
        _set = object.__setattr__
        _set(self, "X", X)
        _set(self, "sizes", sizes)
        _set(self, "labels", labels.astype(np.intp))

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def n_groups(self) -> int:
        return len(self.sizes)

    @property
    def n_instances(self) -> int:
        return len(self.X)

    @property
    def groups(self) -> tuple[tuple[np.ndarray, int], ...]:
        """(view of X, label) per group."""
        return tuple(zip(np.split(self.X, np.cumsum(self.sizes)[:-1]), self.labels.tolist()))


def to_mil_dataset(corpus: Sequence[Document], X: np.ndarray) -> MilDataset:
    """One group per document, in corpus order: the document's rows of X and
    its label. X holds one row per sentence of the corpus, in corpus order,
    as `embed.embed_matrix` returns it, and a float X becomes the dataset's
    own `X`: no row is copied. The corpus must hold a document, and every
    document must carry a label and at least one sentence."""
    X = np.asarray(X, dtype=float)
    sizes = [len(doc.sentences) for doc in corpus]
    if X.ndim != 2 or len(X) != sum(sizes):
        raise CorpusError(f"the corpus has {sum(sizes)} sentences but the embedding "
                          f"matrix has shape {X.shape}")
    if not corpus:
        raise CorpusError("no documents to train on")
    for doc in corpus:
        if doc.label is None:
            raise CorpusError(f"document {doc.id} has no label")
        if not doc.sentences:
            raise CorpusError(f"document {doc.id} has no sentences")
    return MilDataset(X, sizes, [doc.label for doc in corpus])


def sigmoid(z) -> np.ndarray:
    """1 / (1 + exp(-z)) of an array, elementwise, stable for large |z|."""
    arr = np.asarray(z, dtype=float)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _linear_scores(theta: np.ndarray, use_bias: bool, X: np.ndarray) -> np.ndarray:
    """X times the weights, plus the bias, each row reduced on its own in C
    order: unlike a BLAS product, whose last bit depends on where a row sits
    in the matrix, a row's score does not depend on the rows around it."""
    z = np.einsum("ij,j->i", np.ascontiguousarray(X), theta[:-1] if use_bias else theta)
    return z + theta[-1] if use_bias else z


def _raw_scores(theta: np.ndarray, use_bias: bool, X: np.ndarray) -> np.ndarray:
    return sigmoid(_linear_scores(theta, use_bias, X))


class ScoreError(ValueError):
    """A linear score that is not finite, at `index`: (row,) in a matrix
    scored by `sentence_scores`, (group, row) in the groups of
    `group_votes`."""

    def __init__(self, index: tuple[int, ...], value: float):
        super().__init__(f"row {index[-1]}: linear score {value} is not finite")
        self.index, self.value = index, value


def sentence_scores(model: MilModel, X) -> np.ndarray:
    """The scores of an n x d instance matrix (n > 0). A row's score is
    bit-identical whether it is scored alone or inside any matrix.

    A linear score that overflows is a `ScoreError`, not a saturated score:
    which infinity, or nan, an overflowed sum reaches depends on the order
    of its terms, so it has no defined label."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or not len(X) or X.shape[1] != model.dim:
        raise ValueError(f"expected a non-empty instance matrix with {model.dim} columns, "
                         f"got shape {X.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        z = _linear_scores(model.theta, model.config.use_bias, X)
    bad = np.flatnonzero(~np.isfinite(z))
    if len(bad):
        raise ScoreError((int(bad[0]),), float(z[bad[0]]))
    return sigmoid(z)


def sentence_labels(scores) -> np.ndarray:
    """The sentence rule: a score >= 0.5 predicts positive."""
    return np.where(np.asarray(scores) >= 0.5, POSITIVE, NEGATIVE)


def document_vote(labels, scores=None) -> tuple[int | None, int, int]:
    """(label, positive_count, negative_count): the majority sentence label; a
    tie goes by the mean score, `sum(scores) / len(scores)` added left to
    right, against 0.5, or stays None without scores. Counted in Python: a
    document has few sentences, and `evaluate` then runs without numpy."""
    positive = sum(1 for label in labels if label == POSITIVE)
    negative = len(labels) - positive
    if positive != negative:
        label = POSITIVE if positive > negative else NEGATIVE
    elif scores is None or len(scores) == 0:
        label = None
    else:
        label = POSITIVE if sum(scores) / len(scores) >= 0.5 else NEGATIVE
    return label, positive, negative


def group_votes(model: MilModel, X, sizes
                ) -> list[tuple[list[int], list[float], tuple[int | None, int, int]]]:
    """Each group's sentence labels and scores, as lists, and their
    `document_vote`, group i being the sizes[i] rows of X (possibly none)
    after those of the groups before it. A group without rows has empty
    lists and a vote of None. X is scored in one `sentence_scores` call, so
    each group's scores are those of its rows scored alone. An overflowing
    score is a `ScoreError` indexed (group, row) at the first one in X."""
    ends = np.cumsum(sizes, dtype=np.intp)
    scores = np.empty(0)
    if len(X):
        try:
            scores = sentence_scores(model, X)
        except ScoreError as exc:
            row = exc.index[0]
            group = int(np.searchsorted(ends, row, side="right"))
            raise ScoreError((group, row - int(ends[group] - sizes[group])), exc.value) from None
    labels, scores = sentence_labels(scores).tolist(), scores.tolist()
    votes, lo = [], 0
    for hi in ends.tolist():
        group = labels[lo:hi], scores[lo:hi]
        votes.append((*group, document_vote(*group)))
        lo = hi
    return votes


def _pairwise_terms(
    X: np.ndarray, S: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """For each column s of the n x k score matrix S: sum_ij K_ij (s_i - s_j)^2
    and c_i = sum_j K_ij (s_i - s_j), K the RBF kernel of X, streamed over
    blocks of KERNEL_BLOCK_ROWS rows so that no n x n array is ever held.
    Returns the k sums and the n x k matrix C of the c columns.

    Both come from the graph-Laplacian form: with d = K 1 and each column
    shifted by its first entry, s' = s - s_0, c = d * s' - K s' and the sum
    is 2 sum_i s'_i c_i. A constant column has s' = 0, so its c and its sum
    are exactly zero. One pass accumulates M = K [1 | S'].

    K is symmetric, so each unordered pair is evaluated once: the block of
    rows [lo, hi) covers only columns [lo, n), its diagonal square and
    everything to its right. It adds its product with [1 | S'][lo:] into
    M[lo:hi], and the transpose of its strictly-right part times
    [1 | S'][lo:hi] into M[hi:]."""
    n, k = S.shape
    dim = X.shape[1]
    sq = np.einsum("ij,ij->i", X, X)
    # the exponent -gamma ||x_i - x_j||^2 of a block in one product:
    # [x_i, ||x_i||^2, 1] times gamma [2 x_j; -1; -||x_j||^2]
    right = np.empty((dim + 2, n))
    np.multiply(X.T, 2.0 * gamma, out=right[:dim])
    right[dim] = -gamma
    np.multiply(sq, -gamma, out=right[dim + 1])
    ones_shifted = np.empty((n, k + 1))
    ones_shifted[:, 0] = 1.0
    shifted = ones_shifted[:, 1:]
    np.subtract(S, S[:1], out=shifted)
    M = np.zeros((n, k + 1))
    left_buf = np.empty((min(n, KERNEL_BLOCK_ROWS), dim + 2))
    left_buf[:, dim + 1] = 1.0
    # one reused flat buffer, each block a contiguous view of it: fresh
    # arrays per block would be page-faulted in again, and a strided slice of
    # a 2-d buffer is slower to sweep
    block_buf = np.empty(min(n, KERNEL_BLOCK_ROWS) * n)
    for lo in range(0, n, KERNEL_BLOCK_ROWS):
        hi = min(lo + KERNEL_BLOCK_ROWS, n)
        rows, cols = hi - lo, n - lo
        left = left_buf[:rows]
        left[:, :dim] = X[lo:hi]
        left[:, dim] = sq[lo:hi]
        block = block_buf[: rows * cols].reshape(rows, cols)
        np.matmul(left, right[:, lo:], out=block)
        # a distance that cancels below 0 is clipped to 0
        np.minimum(block, 0.0, out=block)
        np.exp(block, out=block)
        M[lo:hi] += block @ ones_shifted[lo:]
        M[hi:] += block[:, rows:].T @ ones_shifted[lo:hi]
    C = M[:, :1] * shifted - M[:, 1:]
    return 2.0 * np.einsum("ik,ik->k", shifted, C), C


def _group_errors(S: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean instance score minus label, per group (row) and score column."""
    means = np.add.reduceat(S, np.cumsum(sizes) - sizes, axis=0) / sizes[:, None]
    return means - labels[:, None]


def _losses(X, S, labels, sizes, lam, gamma) -> np.ndarray:
    """The training loss of each score column of S over the stacked batch X."""
    n = len(X)
    pairwise, _ = _pairwise_terms(X, S, gamma)
    group_sq = np.sum(_group_errors(S, labels, sizes) ** 2, axis=0)
    return pairwise / (n * n) + lam * group_sq / len(labels)


def _gradient(theta, use_bias, X, labels, sizes, lam, gamma) -> np.ndarray:
    s = _raw_scores(theta, use_bias, X)
    n = len(s)
    _, C = _pairwise_terms(X, s[:, None], gamma)
    # d loss / d z_i for the linear score z_i: s_i (1 - s_i) times the
    # pairwise part plus the group part shared by every instance of a group
    group_part = np.repeat(2.0 * _group_errors(s[:, None], labels, sizes)[:, 0] / sizes, sizes)
    weight = s * (1.0 - s) * ((4.0 / (n * n)) * C[:, 0] + (lam / len(labels)) * group_part)
    grad = X.T @ weight
    return np.append(grad, np.sum(weight)) if use_bias else grad


def loss(model: MilModel, dataset: MilDataset, lam: float, gamma: float) -> float:
    """Training objective over a dataset, normalizers read from the dataset."""
    s = _raw_scores(model.theta, model.config.use_bias, dataset.X)
    return float(_losses(dataset.X, s[:, None], dataset.labels, dataset.sizes, lam, gamma)[0])


def gradient(model: MilModel, dataset: MilDataset, lam: float, gamma: float) -> np.ndarray:
    """Closed-form derivative of `loss` with respect to theta."""
    return _gradient(model.theta, model.config.use_bias, dataset.X, dataset.labels,
                     dataset.sizes, lam, gamma)


@dataclass(frozen=True)
class TrainResult:
    model: MilModel
    loss_trace: tuple[float, ...]  # element 0 is the pre-training loss


def train(dataset: MilDataset, config: TrainConfig | None = None) -> TrainResult:
    """SGD with momentum over seeded group minibatches.

    theta starts uniform in [-0.01, 0.01] from config.seed; each epoch
    reshuffles the groups. Identical (dataset, config) pairs produce
    bit-identical parameters.
    """
    config = config or TrainConfig()
    X, labels, sizes = dataset.X, dataset.labels, dataset.sizes
    groups = np.split(X, np.cumsum(sizes)[:-1])
    rng = np.random.default_rng(config.seed)
    n_params = dataset.dim + (1 if config.use_bias else 0)
    theta = rng.uniform(-0.01, 0.01, size=n_params)
    velocity = np.zeros(n_params)

    lam, gamma = config.lam, config.kernel_gamma
    # full-data scores before training and after every epoch; their losses
    # are traced in one kernel sweep once training ends
    scores = np.empty((len(X), config.epochs + 1))
    scores[:, 0] = _raw_scores(theta, config.use_bias, X)
    order = np.arange(len(labels))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for batch_no, lo in enumerate(range(0, len(order), config.groups_per_batch)):
            picked = order[lo : lo + config.groups_per_batch]
            rows = np.concatenate([groups[i] for i in picked])
            grad = _gradient(theta, config.use_bias, rows, labels[picked], sizes[picked],
                             lam, gamma)
            if not np.all(np.isfinite(grad)):
                raise TrainingError(
                    f"non-finite gradient at epoch {epoch + 1}, batch {batch_no + 1}"
                )
            velocity = config.momentum * velocity - config.learning_rate * grad
            theta = theta + velocity
        # the full loss is finite exactly when these scores are
        scores[:, epoch + 1] = _raw_scores(theta, config.use_bias, X)
        if not np.all(np.isfinite(scores[:, epoch + 1])):
            raise TrainingError(f"non-finite loss after epoch {epoch + 1}")
    trace = _losses(X, scores, labels, sizes, lam, gamma)
    model = MilModel(theta=theta, dim=dataset.dim, config=config)
    return TrainResult(model=model, loss_trace=tuple(float(v) for v in trace))


def document_accuracy(model: MilModel, dataset: MilDataset) -> float:
    """Fraction of groups whose `document_vote` matches the group label, the
    groups scored and voted by `group_votes` as `predict` votes documents."""
    votes = group_votes(model, dataset.X, dataset.sizes)
    hits = sum(vote[0] == label for (_, _, vote), label in zip(votes, dataset.labels.tolist()))
    return hits / dataset.n_groups


def grid_search(
    dataset: MilDataset, configs: Sequence[TrainConfig]
) -> tuple[list[float | str], TrainResult]:
    """Train every configuration; keep the one with the highest in-sample
    document accuracy. A tie goes to the configuration whose
    `dataclasses.astuple` compares smallest. A configuration that fails to
    train is recorded, not raised, unless every one fails. Returns each
    configuration's accuracy, or its error message, and the selected
    configuration's training result.
    """
    if not configs:
        raise ValueError("a grid needs at least one configuration")
    outcomes: list[float | str] = []
    results: dict[int, TrainResult] = {}
    for i, config in enumerate(configs):
        try:
            result = train(dataset, config)
            outcomes.append(document_accuracy(result.model, dataset))
            results[i] = result
        except (TrainingError, ValueError) as exc:
            outcomes.append(str(exc))
    if not results:
        raise TrainingError(f"every grid configuration failed to train; the first: "
                            f"{outcomes[0]}")
    best = min(results, key=lambda i: (-outcomes[i], astuple(configs[i])))
    return outcomes, results[best]


def median_heuristic_gamma(
    dataset: MilDataset, max_pairs: int = 10_000, seed: int = 0
) -> float:
    """1 / median squared distance over a seeded sample of instance pairs."""
    X = dataset.X
    rng = np.random.default_rng(seed)
    n = len(X)
    i = rng.integers(0, n, size=max_pairs)
    j = rng.integers(0, n, size=max_pairs)
    keep = i != j
    if not np.any(keep):
        return 1.0
    i, j = i[keep], j[keep]
    # the pairs' differences in blocks of rows, so the transient stays
    # O(KERNEL_BLOCK_ROWS * d) whatever max_pairs is; each row's sum is the
    # same reduction as over all pairs at once
    d2 = np.empty(len(i))
    for lo in range(0, len(i), KERNEL_BLOCK_ROWS):
        hi = lo + KERNEL_BLOCK_ROWS
        d2[lo:hi] = np.sum((X[i[lo:hi]] - X[j[lo:hi]]) ** 2, axis=1)
    # np.median's value without the numpy.ma that its first call imports:
    # the mean of the middle entry, or of the middle two
    half = len(d2) // 2
    middle = [half] if len(d2) % 2 else [half - 1, half]
    med = float(np.mean(np.partition(d2, middle)[middle]))
    return 1.0 / med if med > 0 else 1.0


def generate_synthetic(
    n_groups: int,
    instances_per_group: int,
    dim: int,
    separation: float,
    noise_fraction: float,
    seed: int = 0,
) -> tuple[MilDataset, np.ndarray]:
    """Two seeded Gaussian clusters arranged into labeled groups.

    Instance vectors are drawn around +/- separation along a fixed unit
    direction; the returned true labels name the generating cluster. Each
    group's label is the majority vote of its instances, where a
    noise_fraction of instances cast a flipped vote: the supervision is
    corrupted, the returned truth is not.
    """
    if separation <= 0:
        raise ValueError("separation must be > 0")
    if n_groups < 1 or instances_per_group < 1 or dim < 1:
        raise ValueError("n_groups, instances_per_group, and dim must be >= 1")
    if not 0 <= noise_fraction <= 1:
        raise ValueError("noise_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    direction = np.ones(dim) / np.sqrt(dim)
    blocks, labels, truth = [], [], []
    for _ in range(n_groups):
        clusters = rng.integers(0, 2, size=instances_per_group)
        X = rng.standard_normal((instances_per_group, dim))
        X += np.outer(2.0 * clusters - 1.0, separation * direction)
        votes = clusters.copy()
        flip = rng.random(instances_per_group) < noise_fraction
        votes[flip] = 1 - votes[flip]
        labels.append(POSITIVE if 2 * int(votes.sum()) >= instances_per_group else NEGATIVE)
        blocks.append(X)
        truth.append(clusters)
    dataset = MilDataset(np.concatenate(blocks), [instances_per_group] * n_groups, labels)
    return dataset, np.concatenate(truth)


def save_model(model: MilModel, path) -> None:
    """Versioned JSON record; floats round-trip bit-exactly."""
    record = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dim": model.dim,
        "theta": [float(v) for v in model.theta],
        "config": asdict(model.config),
    }
    with atomic_write(path) as handle:
        json.dump(record, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def load_model(path) -> MilModel:
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError) as exc:  # a JSON or UTF-8 error is a ValueError
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(record, dict) or record.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
    if record.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported version {record.get('version')!r}")
    try:
        return MilModel(np.array(record["theta"], dtype=float), record["dim"],
                        TrainConfig(**record["config"]))
    except (KeyError, TypeError, ValueError, OverflowError, TrainingError) as exc:
        raise ModelFormatError(f"{path}: malformed model record: {exc}") from exc
