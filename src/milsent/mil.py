"""Multi-instance training of a sentence-level logistic classifier.

Groups of sentence vectors carry one binary label each. The training loss
couples two pressures: an RBF-similarity weighted penalty on score
differences between similar instances, averaged over all ordered instance
pairs, and a squared error between each group's mean instance score and its
label, weighted by `lam`. Minimized by SGD with classical momentum over
group minibatches; the pair/group normalizers are re-read as batch counts
on every step, and the exact full-data loss is traced once per epoch. The
pairwise RBF kernel is streamed over blocks of rows and never held whole, so
a loss or gradient needs O(n * KERNEL_BLOCK_ROWS) memory for n instances.
The kernel is symmetric, so each unordered instance pair is evaluated once,
about n^2 / 2 kernel entries, and the time stays O(n^2).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from milsent.corpus import MilDataset, NEGATIVE, POSITIVE

Group = tuple[np.ndarray, int]

MODEL_FORMAT = "milsent-model"
MODEL_VERSION = 1

# rows of the pairwise kernel held at once: memory O(n * KERNEL_BLOCK_ROWS)
KERNEL_BLOCK_ROWS = 64


class TrainingError(Exception):
    """Optimization produced a non-finite value or cannot proceed."""


class ModelFormatError(Exception):
    """A model file is corrupted or has an unknown format/version."""


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
class GridSpec:
    lam_values: tuple[float, ...]
    learning_rate_values: tuple[float, ...]
    momentum_values: tuple[float, ...]

    def __post_init__(self):
        for name in ("lam_values", "learning_rate_values", "momentum_values"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class MilModel:
    theta: np.ndarray
    dim: int
    config: TrainConfig

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        expected = self.dim + (1 if self.config.use_bias else 0)
        if theta.shape != (expected,):
            raise ValueError(f"theta must have length {expected}, got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise TrainingError("theta contains non-finite values")
        object.__setattr__(self, "theta", theta)


def sigmoid(z):
    """1 / (1 + exp(-z)), stable for large |z|; scalar in, scalar out."""
    arr = np.asarray(z, dtype=float)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def rbf_similarity(x, y, gamma: float = 1.0) -> float:
    """exp(-gamma * ||x - y||^2), in (0, 1]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    diff = x - y
    return float(np.exp(-gamma * np.dot(diff, diff)))


def _groups_of(batch) -> tuple[Group, ...]:
    groups = batch.groups if isinstance(batch, MilDataset) else tuple(batch)
    if not groups:
        raise ValueError("empty batch")
    return groups


def _stack(groups: Sequence[Group]):
    X = np.vstack([matrix for matrix, _ in groups])
    labels = np.array([label for _, label in groups], dtype=float)
    sizes = np.array([len(matrix) for matrix, _ in groups])
    return X, labels, sizes


def _linear_scores(theta: np.ndarray, use_bias: bool, X: np.ndarray) -> np.ndarray:
    z = X @ (theta[:-1] if use_bias else theta)
    return z + theta[-1] if use_bias else z


def _raw_scores(theta: np.ndarray, use_bias: bool, X: np.ndarray) -> np.ndarray:
    return sigmoid(_linear_scores(theta, use_bias, X))


def sentence_scores(model: MilModel, group) -> np.ndarray:
    """Scores of every row of a non-empty instance matrix, in one batched pass.

    A linear score that overflows is an error, not a saturated score: the
    sign of an overflowed sum depends on the BLAS accumulation order."""
    X = np.asarray(group, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != model.dim:
        raise ValueError(f"expected a non-empty instance matrix with {model.dim} columns, "
                         f"got shape {X.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        z = _linear_scores(model.theta, model.config.use_bias, X)
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise ValueError(f"row {bad[0]}: linear score {z[bad[0]]} is not finite")
    return sigmoid(z)


def sentence_labels(scores) -> np.ndarray:
    """The sentence rule: a score >= 0.5 predicts positive."""
    return np.where(np.asarray(scores) >= 0.5, POSITIVE, NEGATIVE)


def document_vote(labels, scores=None) -> tuple[int | None, int, int]:
    """(label, positive_count, negative_count): the majority sentence label; a
    tie goes by the mean score against 0.5, or stays None without scores."""
    positive = int(np.count_nonzero(np.asarray(labels) == POSITIVE))
    negative = len(labels) - positive
    if positive != negative:
        label = POSITIVE if positive > negative else NEGATIVE
    elif scores is None or len(scores) == 0:
        label = None
    else:
        label = POSITIVE if float(np.mean(scores)) >= 0.5 else NEGATIVE
    return label, positive, negative


def instance_score(model: MilModel, x) -> float:
    """Sigmoid of the linear score for one instance vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"expected vector of dimension {model.dim}, got {x.shape}")
    return float(sentence_scores(model, x[None, :])[0])


def group_score(model: MilModel, group) -> float:
    """Arithmetic mean of instance scores over a non-empty group."""
    return float(np.mean(sentence_scores(model, group)))


def _pairwise_terms(X: np.ndarray, s: np.ndarray, gamma: float) -> tuple[float, np.ndarray]:
    """sum_ij S_ij (s_i - s_j)^2 and c_i = sum_j S_ij (s_i - s_j), S the RBF
    kernel of X, streamed over blocks of KERNEL_BLOCK_ROWS rows so that no
    n x n array is ever held.

    S is symmetric and s_i - s_j antisymmetric, so each unordered pair is
    evaluated once: the block of rows [lo, hi) covers only columns [lo, n),
    its diagonal square and everything to its right. Its row sums add into
    c[lo:hi]; the column sums of its strictly-right part are subtracted from
    c[hi:], as S_ij (s_i - s_j) = -S_ji (s_j - s_i). A row's loss total is its
    diagonal-square sum plus twice its right-part sum. Both come from the
    explicit difference block, so c and the loss are exactly zero when all
    scores coincide. The per-row totals are summed once at the end, so the
    order of that sum does not depend on the block size."""
    n = len(s)
    sq = np.einsum("ij,ij->i", X, X)
    minus_2xt = -2.0 * X.T  # exact: scaling by a power of two
    c = np.zeros(n)
    row_sq = np.empty(n)
    # two reused flat buffers, each block a contiguous view of them: fresh
    # arrays per block would be page-faulted in again, and a strided slice of
    # a 2-d buffer is slower to sweep
    block_buf = np.empty(min(n, KERNEL_BLOCK_ROWS) * n)
    diff_buf = np.empty_like(block_buf)
    for lo in range(0, n, KERNEL_BLOCK_ROWS):
        hi = min(lo + KERNEL_BLOCK_ROWS, n)
        rows, cols = hi - lo, n - lo
        block = block_buf[: rows * cols].reshape(rows, cols)
        diff = diff_buf[: rows * cols].reshape(rows, cols)
        np.matmul(X[lo:hi], minus_2xt[:, lo:], out=block)
        # squared distances ||x_i||^2 + ||x_j||^2 - 2 x_i.x_j, clipped at 0
        block += sq[None, lo:]
        block += sq[lo:hi, None]
        np.maximum(block, 0.0, out=block)
        block *= -gamma
        np.exp(block, out=block)
        np.subtract(s[lo:hi, None], s[None, lo:], out=diff)
        block *= diff
        c[lo:hi] += block.sum(axis=1)
        c[hi:] -= block[:, rows:].sum(axis=0)
        block *= diff
        row_sq[lo:hi] = block[:, :rows].sum(axis=1) + 2.0 * block[:, rows:].sum(axis=1)
    return float(np.sum(row_sq)), c


def _group_errors(s: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean instance score minus label, per group."""
    return np.add.reduceat(s, np.cumsum(sizes) - sizes) / sizes - labels


def _loss(theta, use_bias, groups, lam, gamma) -> float:
    X, labels, sizes = _stack(groups)
    s = _raw_scores(theta, use_bias, X)
    n = len(s)
    pairwise, _ = _pairwise_terms(X, s, gamma)
    group_sq = float(np.sum(_group_errors(s, labels, sizes) ** 2))
    return pairwise / (n * n) + lam * group_sq / len(groups)


def _gradient(theta, use_bias, groups, lam, gamma) -> np.ndarray:
    X, labels, sizes = _stack(groups)
    s = _raw_scores(theta, use_bias, X)
    n = len(s)
    _, c = _pairwise_terms(X, s, gamma)
    # d loss / d z_i for the linear score z_i: s_i (1 - s_i) times the
    # pairwise part plus the group part shared by every instance of a group
    group_part = np.repeat(2.0 * _group_errors(s, labels, sizes) / sizes, sizes)
    weight = s * (1.0 - s) * ((4.0 / (n * n)) * c + (lam / len(groups)) * group_part)
    grad = X.T @ weight
    return np.append(grad, np.sum(weight)) if use_bias else grad


def loss(model: MilModel, batch, lam: float, gamma: float) -> float:
    """Training objective over a batch, normalizers read from the batch."""
    return _loss(model.theta, model.config.use_bias, _groups_of(batch), lam, gamma)


def gradient(model: MilModel, batch, lam: float, gamma: float) -> np.ndarray:
    """Closed-form derivative of `loss` with respect to theta."""
    return _gradient(model.theta, model.config.use_bias, _groups_of(batch), lam, gamma)


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
    groups = _groups_of(dataset)
    rng = np.random.default_rng(config.seed)
    n_params = dataset.dim + (1 if config.use_bias else 0)
    theta = rng.uniform(-0.01, 0.01, size=n_params)
    velocity = np.zeros(n_params)

    lam, gamma = config.lam, config.kernel_gamma
    trace = [_loss(theta, config.use_bias, groups, lam, gamma)]
    order = np.arange(len(groups))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for batch_no, lo in enumerate(range(0, len(order), config.groups_per_batch)):
            batch = [groups[i] for i in order[lo : lo + config.groups_per_batch]]
            grad = _gradient(theta, config.use_bias, batch, lam, gamma)
            if not np.all(np.isfinite(grad)):
                raise TrainingError(
                    f"non-finite gradient at epoch {epoch + 1}, batch {batch_no + 1}"
                )
            velocity = config.momentum * velocity - config.learning_rate * grad
            theta = theta + velocity
        full = _loss(theta, config.use_bias, groups, lam, gamma)
        if not np.isfinite(full):
            raise TrainingError(f"non-finite loss after epoch {epoch + 1}")
        trace.append(full)
    model = MilModel(theta=theta, dim=dataset.dim, config=config)
    return TrainResult(model=model, loss_trace=tuple(trace))


def predict_sentence(model: MilModel, x) -> tuple[int, float]:
    """(label, score); score >= 0.5 predicts positive."""
    score = instance_score(model, x)
    return int(sentence_labels(score)), score


def predict_document(model: MilModel, group) -> tuple[int, int, int]:
    """`document_vote` over the sentence labels and scores of a group."""
    scores = sentence_scores(model, group)
    return document_vote(sentence_labels(scores), scores)


def document_accuracy(model: MilModel, dataset: MilDataset) -> float:
    """Fraction of groups whose majority prediction matches the group label."""
    groups = _groups_of(dataset)
    hits = sum(
        predict_document(model, matrix)[0] == label for matrix, label in groups
    )
    return hits / len(groups)


@dataclass(frozen=True)
class GridCell:
    lam: float
    learning_rate: float
    momentum: float
    accuracy: float | None
    error: str | None = None


def grid_search(
    dataset: MilDataset, grid: GridSpec, base: TrainConfig | None = None
) -> tuple[TrainConfig, list[GridCell]]:
    """Train every configuration in the grid; keep the one with the highest
    in-sample document accuracy. Ties break toward smaller lam, then smaller
    learning rate, then smaller momentum. Per-cell failures are recorded,
    not raised.
    """
    base = base or TrainConfig()
    cells: list[GridCell] = []
    for lam, lr, mom in itertools.product(
        grid.lam_values, grid.learning_rate_values, grid.momentum_values
    ):
        config = replace(base, lam=lam, learning_rate=lr, momentum=mom)
        try:
            result = train(dataset, config)
            accuracy = document_accuracy(result.model, dataset)
            cells.append(GridCell(lam, lr, mom, accuracy))
        except (TrainingError, ValueError) as exc:
            cells.append(GridCell(lam, lr, mom, None, error=str(exc)))
    viable = [c for c in cells if c.accuracy is not None]
    if not viable:
        raise TrainingError("every grid configuration failed to train")
    best = min(viable, key=lambda c: (-c.accuracy, c.lam, c.learning_rate, c.momentum))
    return replace(base, lam=best.lam, learning_rate=best.learning_rate,
                   momentum=best.momentum), cells


def median_heuristic_gamma(
    dataset: MilDataset, max_pairs: int = 10_000, seed: int = 0
) -> float:
    """1 / median squared distance over a seeded sample of instance pairs."""
    X, _, _ = _stack(_groups_of(dataset))
    rng = np.random.default_rng(seed)
    n = len(X)
    i = rng.integers(0, n, size=max_pairs)
    j = rng.integers(0, n, size=max_pairs)
    keep = i != j
    if not np.any(keep):
        return 1.0
    d2 = np.sum((X[i[keep]] - X[j[keep]]) ** 2, axis=1)
    med = float(np.median(d2))
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
    groups = []
    truth = []
    for _ in range(n_groups):
        clusters = rng.integers(0, 2, size=instances_per_group)
        X = rng.standard_normal((instances_per_group, dim))
        X += np.outer(2.0 * clusters - 1.0, separation * direction)
        votes = clusters.copy()
        flip = rng.random(instances_per_group) < noise_fraction
        votes[flip] = 1 - votes[flip]
        label = POSITIVE if 2 * int(votes.sum()) >= instances_per_group else NEGATIVE
        groups.append((X, label))
        truth.append(clusters)
    return MilDataset(groups=tuple(groups), dim=dim), np.concatenate(truth)


def save_model(model: MilModel, path) -> None:
    """Versioned JSON record; floats round-trip bit-exactly."""
    config = model.config
    record = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dim": model.dim,
        "theta": [float(v) for v in model.theta],
        "config": {
            "lam": config.lam,
            "learning_rate": config.learning_rate,
            "momentum": config.momentum,
            "epochs": config.epochs,
            "groups_per_batch": config.groups_per_batch,
            "kernel_gamma": config.kernel_gamma,
            "seed": config.seed,
            "use_bias": config.use_bias,
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def load_model(path) -> MilModel:
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(record, dict) or record.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
    if record.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported version {record.get('version')!r}")
    try:
        config = TrainConfig(**record["config"])
        return MilModel(
            theta=np.array(record["theta"], dtype=float),
            dim=int(record["dim"]),
            config=config,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model record: {exc}") from exc
