import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milsent import mil
from milsent.corpus import CorpusError
from milsent.mil import (
    MilDataset,
    MilModel,
    ModelFormatError,
    TrainConfig,
    TrainingError,
    document_accuracy,
    document_vote,
    generate_synthetic,
    gradient,
    grid_search,
    group_votes,
    load_model,
    loss,
    median_heuristic_gamma,
    save_model,
    sentence_labels,
    sentence_scores,
    sigmoid,
    to_mil_dataset,
    train,
)
from conftest import dataset_of, label_and_score, make_doc, make_sentence, vote_of
from reference import (
    central_difference_gradient,
    naive_document_vote,
    naive_mil_gradient,
    naive_mil_loss,
    one_shot_median_gamma,
    relative_gradient_error,
    scalar_sigmoid,
)

CFG = TrainConfig()
NO_BIAS = TrainConfig(use_bias=False)


def model_of(theta, dim=None, config=CFG):
    theta = np.asarray(theta, dtype=float)
    dim = dim if dim is not None else len(theta) - (1 if config.use_bias else 0)
    return MilModel(theta=theta, dim=dim, config=config)


def random_batch(rng, n_groups=5, max_instances=4, dim=8, fixed_instances=None):
    groups = []
    for _ in range(n_groups):
        m = fixed_instances or int(rng.integers(1, max_instances + 1))
        groups.append((rng.standard_normal((m, dim)), int(rng.integers(0, 2))))
    return dataset_of(groups)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            assert sigmoid(np.array([1000.0, -1000.0])).tolist() == [1.0, 0.0]

    def test_symmetry(self):
        zs = np.array([0.5, 2.5, 30.0])
        np.testing.assert_allclose(sigmoid(-zs), 1.0 - sigmoid(zs), rtol=0, atol=1e-15)

    def test_matches_scalar_reference(self):
        zs = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(zs), [scalar_sigmoid(z) for z in zs], atol=1e-15)


def kernel_entry(x, y, gamma=1.0):
    """K_xy of the streamed kernel: with scores (0, 1), c_0 = -K_xy exactly."""
    X = np.array([x, y], dtype=float)
    _, C = mil._pairwise_terms(X, np.array([[0.0], [1.0]]), gamma)
    return -C[0, 0]


def score_of(model, x):
    return label_and_score(model, x)[1]


class TestRbfSimilarity:
    def test_identical_vectors(self):
        x = np.array([0.3, -1.2, 4.0])
        assert kernel_entry(x, x) == 1.0

    def test_unit_distance(self):
        assert kernel_entry(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0) == (
            pytest.approx(math.exp(-1.0))
        )

    def test_symmetric(self):
        # only the upper triangle is evaluated, and swapping the rows changes
        # the order in which the squared norms are added
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            assert kernel_entry(x, y, 0.7) == pytest.approx(kernel_entry(y, x, 0.7),
                                                            rel=1e-14)

    def test_gamma_scales_distance(self):
        x, y = np.zeros(2), np.array([2.0, 0.0])
        assert kernel_entry(x, y, 0.5) == pytest.approx(math.exp(-2.0))

    def test_cancelled_distance_is_clipped_at_zero(self):
        # at norm 1e4 the exponent 2 x.y - ||x||^2 - ||y||^2 of two rows 1e-9
        # apart cancels to a few ulps of 1e8, of either sign: a positive one
        # would give an entry above 1
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(3)
            x *= 1e4 / np.linalg.norm(x)
            assert kernel_entry(x, x + rng.standard_normal(3) * 1e-9) <= 1.0

    def test_identical_rows_of_large_norm(self):
        # every product and partial sum of the exponent is an exact integer
        x = np.array([6000.0, 8000.0, 0.0])
        assert kernel_entry(x, x) == 1.0


class TestScores:
    def test_zero_theta_scores_half(self):
        model = model_of(np.zeros(5), dim=4)
        assert score_of(model, np.array([3.0, -1.0, 2.0, 9.0])) == 0.5

    def test_unit_weight_on_first_axis(self):
        model = model_of([1.0, 0.0, 0.0, 0.0, 0.0], dim=4)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        assert score_of(model, e1) == pytest.approx(scalar_sigmoid(1.0))

    def test_monotone_in_linear_score(self):
        model = model_of([2.0, 0.0], dim=1)
        xs = np.linspace(-3, 3, 20)
        scores = [score_of(model, np.array([x])) for x in xs]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            label_and_score(model_of(np.zeros(3), dim=2), np.zeros(5))
        with pytest.raises(ValueError):
            sentence_scores(model_of(np.zeros(3), dim=2), np.zeros(2))

    def test_bias_component_shifts_score(self):
        with_bias = model_of([0.0, 1.0], dim=1)
        assert score_of(with_bias, np.zeros(1)) == pytest.approx(scalar_sigmoid(1.0))

    def test_no_bias_mode(self):
        model = model_of([1.0], dim=1, config=NO_BIAS)
        assert score_of(model, np.array([2.0])) == pytest.approx(scalar_sigmoid(2.0))

    def test_shape_checks(self):
        model = model_of(np.zeros(3), dim=2)
        for bad in (np.zeros(2), np.zeros((0, 2)), np.zeros((2, 3)), np.zeros((2, 1)),
                    np.zeros((2, 1, 2))):
            with pytest.raises(ValueError, match="^expected a non-empty instance matrix "
                                                 "with 2 columns"):
                sentence_scores(model, bad)

    @pytest.mark.parametrize("use_bias", [True, False])
    def test_a_row_scores_the_same_in_any_matrix(self, use_bias):
        """A row's score is bit-equal scored alone, inside a taller matrix,
        inside an offset slice and inside a Fortran-ordered copy: a BLAS
        product rounds a row's last bit by where the row sits."""
        rng = np.random.default_rng(9)
        for n, d in ((7, 1), (13, 3), (50, 50), (301, 50), (9, 300), (123, 300)):
            model = model_of(rng.standard_normal(d + use_bias), dim=d,
                             config=TrainConfig(use_bias=use_bias))
            X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
            alone = np.concatenate([sentence_scores(model, X[i:i + 1].copy())
                                    for i in range(n)])
            np.testing.assert_array_equal(sentence_scores(model, X), alone)
            np.testing.assert_array_equal(sentence_scores(model, np.asfortranarray(X)), alone)
            lo = n // 3
            np.testing.assert_array_equal(sentence_scores(model, X[lo:]), alone[lo:])

    def test_overflowing_linear_score_is_an_error(self):
        # which infinity, or nan, an overflowed dot product reaches depends
        # on the order of its terms, so such a score has no defined label
        model = model_of([2.0, -2.0], dim=2, config=NO_BIAS)
        huge = [1e308, 1e308]
        with pytest.raises(ValueError, match="row 1"):
            sentence_scores(model, np.array([[0.5, 0.1], huge]))
        with pytest.raises(ValueError, match="row 0"):
            label_and_score(model, np.array(huge))
        with pytest.raises(ValueError, match="row 0"):
            sentence_scores(model_of([1.0, 1.0], dim=2, config=NO_BIAS), np.array([huge]))

    def test_overflow_locates_the_first_row(self):
        model = model_of([1.0, 1.0], dim=2, config=NO_BIAS)
        X = np.zeros((4, 2))
        X[2] = X[3] = 1e308
        with pytest.raises(mil.ScoreError, match="^row 2: linear score inf is not finite$") \
                as exc:
            sentence_scores(model, X)
        assert exc.value.index == (2,)
        with pytest.raises(mil.ScoreError) as exc:
            sentence_scores(model, X[3:])
        assert exc.value.index == (0,)


def scalar_logit(p):
    return math.log(p / (1.0 - p))


class TestLoss:
    def test_zero_theta_zero_lambda_is_exactly_zero(self):
        batch = random_batch(np.random.default_rng(1))
        model = model_of(np.zeros(9), dim=8)
        assert loss(model, batch, 0.0, 1.0) == 0.0

    def test_single_positive_group_at_zero_theta(self):
        batch = MilDataset(np.array([[1.0, 2.0], [0.0, -1.0]]), [2], [1])
        model = model_of(np.zeros(3), dim=2)
        assert loss(model, batch, 10.0, 1.0) == 2.5

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            batch = random_batch(rng, n_groups=int(rng.integers(1, 8)))
            theta = rng.standard_normal(9)
            model = model_of(theta, dim=8)
            lam = float(rng.choice([0.0, 1.0, 10.0]))
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            fast = loss(model, batch, lam, gamma)
            slow = naive_mil_loss(theta, batch.groups, lam, gamma)
            assert abs(fast - slow) < 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            batch = random_batch(rng)
            model = model_of(rng.standard_normal(9), dim=8)
            assert loss(model, batch, float(rng.uniform(0, 20)), 1.0) >= 0.0

    def test_empty_batch_rejected(self):
        # an empty batch cannot be built, so no loss can be asked of one
        with pytest.raises(CorpusError, match="^a dataset needs at least one group$"):
            MilDataset(np.empty((0, 8)), [], [])

    def test_no_bias_matches_naive(self):
        rng = np.random.default_rng(8)
        batch = random_batch(rng)
        theta = rng.standard_normal(8)
        model = model_of(theta, dim=8, config=NO_BIAS)
        fast = loss(model, batch, 10.0, 1.0)
        slow = naive_mil_loss(theta, batch.groups, 10.0, 1.0, use_bias=False)
        assert abs(fast - slow) < 1e-12

    def test_identical_instances_share_scores_exactly(self):
        # same input vector in two different groups: any theta gives the
        # same score, so their pairwise term contribution is exactly zero
        x = np.array([0.4, -2.0, 1.0])
        batch = MilDataset(np.vstack([x, x]), [1, 1], [1, 0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            model = model_of(rng.standard_normal(4), dim=3)
            assert loss(model, batch, 0.0, 1.0) == 0.0


class TestGradient:
    def test_zero_at_uniform_scores_stationary_point(self):
        batch = random_batch(np.random.default_rng(2))
        model = model_of(np.zeros(9), dim=8)
        np.testing.assert_array_equal(gradient(model, batch, 0.0, 1.0), np.zeros(9))

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(25):
            batch = random_batch(rng, n_groups=5, fixed_instances=4)
            theta = rng.standard_normal(9) * 0.8
            lam = float(rng.choice([0.0, 1.0, 10.0]))
            model = model_of(theta, dim=8)
            analytic = gradient(model, batch, lam, 1.0)

            def loss_at(t, batch=batch, lam=lam):
                return loss(model_of(t, dim=8), batch, lam, 1.0)

            numeric = central_difference_gradient(loss_at, theta, h=1e-5)
            worst = max(worst, relative_gradient_error(analytic, numeric))
        assert worst < 1e-5

    def test_group_term_linear_in_lambda(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng)
        model = model_of(rng.standard_normal(9) * 0.5, dim=8)
        g0 = gradient(model, batch, 0.0, 1.0)
        g1 = gradient(model, batch, 1.0, 1.0)
        g2 = gradient(model, batch, 2.0, 1.0)
        np.testing.assert_allclose(g2 - g0, 2.0 * (g1 - g0), atol=1e-12)

    def test_no_bias_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        batch = random_batch(rng)
        theta = rng.standard_normal(8) * 0.5
        model = model_of(theta, dim=8, config=NO_BIAS)
        analytic = gradient(model, batch, 10.0, 1.0)

        def loss_at(t):
            return loss(model_of(t, dim=8, config=NO_BIAS), batch, 10.0, 1.0)

        numeric = central_difference_gradient(loss_at, theta)
        assert relative_gradient_error(analytic, numeric) < 1e-5


def batch_of_size(rng, n, dim=8, group_size=5):
    """Random groups of group_size instances, the last one shorter, n in all."""
    sizes = [group_size] * (n // group_size) + ([n % group_size] if n % group_size else [])
    groups = tuple((rng.standard_normal((m, dim)), int(rng.integers(0, 2))) for m in sizes)
    return dataset_of(groups)


# instance counts against the kernel's row block: several blocks with a
# ragged last one, exactly one block, less than one block, a last block of
# one row, and a single instance
BLOCK_CASES = {
    "ragged": 2 * mil.KERNEL_BLOCK_ROWS + 7,
    "one_block": mil.KERNEL_BLOCK_ROWS,
    "short": mil.KERNEL_BLOCK_ROWS - 3,
    "one_row_last": mil.KERNEL_BLOCK_ROWS + 1,
    "single": 1,
}


@pytest.mark.parametrize("n", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
class TestKernelBlocks:
    def test_loss_matches_naive_double_loop(self, n):
        rng = np.random.default_rng(n)
        batch = batch_of_size(rng, n)
        for lam, gamma in ((0.0, 0.05), (10.0, 0.5)):
            theta = rng.standard_normal(9)
            fast = loss(model_of(theta, dim=8), batch, lam, gamma)
            slow = naive_mil_loss(theta, batch.groups, lam, gamma)
            assert abs(fast - slow) < 1e-12

    def test_gradient_matches_naive_double_loop(self, n):
        rng = np.random.default_rng(n + 3)
        batch = batch_of_size(rng, n)
        for lam, gamma in ((0.0, 0.05), (10.0, 0.5)):
            theta = rng.standard_normal(9)
            fast = gradient(model_of(theta, dim=8), batch, lam, gamma)
            slow = naive_mil_gradient(theta, batch.groups, lam, gamma)
            assert relative_gradient_error(fast, slow) < 1e-10

    def test_gradient_matches_central_finite_differences(self, n):
        rng = np.random.default_rng(n + 1)
        batch = batch_of_size(rng, n)
        theta = rng.standard_normal(9) * 0.8
        analytic = gradient(model_of(theta, dim=8), batch, 1.0, 0.1)

        def loss_at(t):
            return loss(model_of(t, dim=8), batch, 1.0, 0.1)

        numeric = central_difference_gradient(loss_at, theta, h=1e-5)
        assert relative_gradient_error(analytic, numeric) < 1e-5

    def test_score_columns_match_naive_double_loop(self, n):
        # one sweep over several score columns; a constant column in the
        # middle sums to exactly zero and leaves its neighbours alone
        rng = np.random.default_rng(n + 4)
        batch = batch_of_size(rng, n)
        X = np.vstack([matrix for matrix, _ in batch.groups])
        thetas = rng.standard_normal((2, 9))
        gamma = 0.5
        S = np.column_stack([sigmoid(X @ thetas[0, :-1] + thetas[0, -1]), np.full(n, 0.3),
                             sigmoid(X @ thetas[1, :-1] + thetas[1, -1])])
        pairwise, C = mil._pairwise_terms(X, S, gamma)
        assert pairwise.shape == (3,) and C.shape == (n, 3)
        for theta, value in zip(thetas, pairwise[[0, 2]]):
            slow = naive_mil_loss(theta, batch.groups, 0.0, gamma)
            assert abs(value / (n * n) - slow) < 1e-12
        assert pairwise[1] == 0.0
        np.testing.assert_array_equal(C[:, 1], np.zeros(n))

    def test_one_dimension_matches_naive_double_loop(self, n):
        # a one-column X: the block's left operand is [x_i, x_i^2, 1]
        rng = np.random.default_rng(n + 5)
        batch = batch_of_size(rng, n, dim=1)
        for lam, gamma in ((0.0, 0.05), (10.0, 0.5)):
            theta = rng.standard_normal(2)
            model = model_of(theta, dim=1)
            slow = naive_mil_loss(theta, batch.groups, lam, gamma)
            assert abs(loss(model, batch, lam, gamma) - slow) < 1e-12
            slow = naive_mil_gradient(theta, batch.groups, lam, gamma)
            assert relative_gradient_error(gradient(model, batch, lam, gamma), slow) < 1e-10

    def test_zero_theta_zero_lambda_is_exactly_zero(self, n):
        batch = batch_of_size(np.random.default_rng(n + 2), n)
        model = model_of(np.zeros(9), dim=8)
        assert loss(model, batch, 0.0, 0.1) == 0.0
        np.testing.assert_array_equal(gradient(model, batch, 0.0, 0.1), np.zeros(9))


def test_loss_memory_is_not_quadratic():
    # a dense 4000 x 4000 float64 kernel alone is 128 MB
    dataset, _ = generate_synthetic(400, 10, 50, 2.0, 0.1, seed=0)
    model = model_of(np.random.default_rng(0).standard_normal(51) * 0.1, dim=50)
    tracemalloc.start()
    try:
        loss(model, dataset, 10.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.fixture(scope="module")
def wide_dataset():
    # 2 000 instances of 500 dimensions: X is 8 MB
    return generate_synthetic(200, 10, 500, 2.0, 0.1, seed=0)[0]


def test_groups_are_views_of_the_stacked_matrix(wide_dataset):
    assert all(np.shares_memory(matrix, wide_dataset.X) for matrix, _ in wide_dataset.groups)
    np.testing.assert_array_equal(wide_dataset.sizes, np.full(200, 10))
    assert wide_dataset.n_instances == len(wide_dataset.X) == 2000
    X = np.arange(12.0).reshape(6, 2)
    dataset = MilDataset(X, [1, 3, 2], [1, 0, 1])
    assert [label for _, label in dataset.groups] == [1, 0, 1]
    for (matrix, _), (lo, hi) in zip(dataset.groups, [(0, 1), (1, 4), (4, 6)]):
        assert np.shares_memory(matrix, X)
        np.testing.assert_array_equal(matrix, X[lo:hi])


@pytest.mark.parametrize("call", ["train", "loss"])
def test_peak_memory_holds_no_copy_of_the_instances(wide_dataset, call):
    # the kernel's right operand gamma [2 X^T; -1; -||x||^2] is one transient
    # copy of X; a second copy of the instance matrix would take the peak
    # past 2 x X.nbytes
    model = model_of(np.random.default_rng(0).standard_normal(501) * 0.01, dim=500)
    tracemalloc.start()
    try:
        if call == "train":
            train(wide_dataset, TrainConfig(epochs=1))
        else:
            loss(model, wide_dataset, 10.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * wide_dataset.X.nbytes


def test_median_gamma_memory_is_bounded(wide_dataset):
    # the 10 000 sampled pairs are differenced in row blocks: all at once
    # they would hold about 3 x 10 000 x 500 floats, 114 MB, whatever n is
    tracemalloc.start()
    try:
        gamma = median_heuristic_gamma(wide_dataset, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < wide_dataset.X.nbytes
    assert gamma == one_shot_median_gamma(wide_dataset.X, 10_000, seed=3)


@pytest.mark.parametrize("dim", [3, 50, 300])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_median_gamma_equals_one_shot_formula(dim, seed):
    dataset, _ = generate_synthetic(40, 5, dim, 2.0, 0.1, seed=seed)
    for max_pairs in (1, 63, 64, 65, 10_000):
        assert median_heuristic_gamma(dataset, max_pairs, seed) == \
            one_shot_median_gamma(dataset.X, max_pairs, seed)


def _embedded_corpus(sizes, labels=None, dim=4):
    """Documents of the given sentence counts and their embedding matrix,
    one row per sentence in corpus order, row r filled with r + 0.5."""
    labels = labels or [1] * len(sizes)
    docs = [make_doc(f"d{i}", label=label, sentences=[make_sentence(f"s{j}") for j in range(n)])
            for i, (n, label) in enumerate(zip(sizes, labels))]
    return docs, np.repeat(np.arange(sum(sizes)) + 0.5, dim).reshape(-1, dim)


class TestToMilDataset:
    def test_single_doc_counts(self):
        dataset = to_mil_dataset(*_embedded_corpus([3]))
        assert dataset.n_groups == 1
        assert dataset.n_instances == 3
        assert dataset.groups[0][1] == 1
        assert dataset.dim == 4

    def test_sentence_order_preserved(self):
        docs, X = _embedded_corpus([3, 2])
        dataset = to_mil_dataset(docs, X)
        (first, _), (second, _) = dataset.groups
        assert first[:, 0].tolist() == [0.5, 1.5, 2.5] and second[:, 0].tolist() == [3.5, 4.5]
        # the dataset holds the given matrix and views of it, no copy
        assert np.shares_memory(dataset.X, X)
        assert all(np.shares_memory(matrix, X) for matrix, _ in dataset.groups)

    def test_keeps_the_matrix_it_is_given(self):
        # 500 documents of 20 sentences, 100-d: X is 8 MB; a copy of it
        # would allocate as much again
        docs, X = _embedded_corpus([20] * 500, dim=100)
        tracemalloc.start()
        try:
            dataset = to_mil_dataset(docs, X)
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(dataset.X, X)
        assert allocated < 0.1 * X.nbytes

    def test_row_count_mismatch(self):
        docs, X = _embedded_corpus([2, 3])
        for bad in (X[:-1], np.vstack([X, X[:1]]), X[:, 0]):
            with pytest.raises(CorpusError, match="the corpus has 5 sentences"):
                to_mil_dataset(docs, bad)

    def test_missing_label(self):
        with pytest.raises(CorpusError, match="document d1 has no label"):
            to_mil_dataset(*_embedded_corpus([2, 1], labels=[1, None]))

    def test_document_without_sentences_named(self):
        with pytest.raises(CorpusError, match="document d1 has no sentences"):
            to_mil_dataset(*_embedded_corpus([2, 0, 1]))

    def test_counts_preserved_across_corpus(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 6, size=7).tolist()
        labels = rng.integers(0, 2, size=7).tolist()
        dataset = to_mil_dataset(*_embedded_corpus(sizes, labels))
        assert dataset.n_instances == sum(sizes)
        assert dataset.n_groups == 7
        assert dataset.labels.tolist() == labels and dataset.sizes.tolist() == sizes

    def test_empty_group_rejected(self):
        with pytest.raises(CorpusError, match="every group must hold at least one instance"):
            MilDataset(np.zeros((0, 3)), [0], [1])

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="^no documents to train on$"):
            to_mil_dataset([], np.empty((0, 4)))


class TestMilDataset:
    @pytest.mark.parametrize("X, sizes, labels, message", [
        (np.zeros(3), [3], [1], r"the instances must be a 2-d matrix, got shape \(3,\)"),
        (np.zeros((2, 2, 2)), [2], [1], r"must be a 2-d matrix, got shape \(2, 2, 2\)"),
        (np.zeros((3, 2)), [1, 2], [1], "2 group sizes but 1 group labels"),
        (np.zeros((3, 2)), [2, -1], [1, 0], "every group must hold at least one instance"),
        (np.zeros((3, 2)), [1, 1], [1, 0], "the group sizes sum to 2 but there are 3 instances"),
        (np.zeros((3, 2)), [1, 2], [1, 2], "group labels must be 0 or 1"),
        (np.zeros((3, 2)), [1, 2], [1, None], "group labels must be 0 or 1"),
        (np.zeros((3, 2)), [1, 2], [0.5, 1], "group labels must be 0 or 1"),
    ], ids=["vector", "3-d", "lengths", "negative-size", "sum", "label-2", "label-none",
            "label-half"])
    def test_rejections(self, X, sizes, labels, message):
        with pytest.raises(CorpusError, match=message):
            MilDataset(X, sizes, labels)

    def test_float_matrix_kept_as_given(self):
        X = np.arange(12.0).reshape(6, 2)
        for given in (X, X[::2], np.asfortranarray(X)):
            sizes = [1, len(given) - 1]
            assert MilDataset(given, sizes, [1, 0]).X is given
        dataset = MilDataset(np.arange(6).reshape(3, 2), np.array([2, 1]), [True, False])
        assert dataset.X.dtype == float and dataset.labels.tolist() == [1, 0]
        assert (dataset.dim, dataset.n_groups, dataset.n_instances) == (2, 2, 3)



class TestTrain:
    def test_loss_decreases_on_synthetic_data(self):
        dataset, _ = generate_synthetic(60, 5, 8, 3.0, 0.0, seed=5)
        result = train(dataset, TrainConfig(epochs=10, seed=1))
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_zero_epochs_returns_initialization(self):
        dataset, _ = generate_synthetic(10, 3, 4, 2.0, 0.0, seed=5)
        result = train(dataset, TrainConfig(epochs=0, seed=123))
        expected = np.random.default_rng(123).uniform(-0.01, 0.01, size=5)
        np.testing.assert_array_equal(result.model.theta, expected)
        assert len(result.loss_trace) == 1

    def test_deterministic_given_seed(self):
        dataset, _ = generate_synthetic(30, 4, 6, 2.0, 0.1, seed=9)
        config = TrainConfig(epochs=5, seed=77)
        a = train(dataset, config)
        b = train(dataset, config)
        np.testing.assert_array_equal(a.model.theta, b.model.theta)
        assert a.loss_trace == b.loss_trace

    def test_different_seeds_differ(self):
        dataset, _ = generate_synthetic(30, 4, 6, 2.0, 0.1, seed=9)
        a = train(dataset, TrainConfig(epochs=2, seed=1))
        b = train(dataset, TrainConfig(epochs=2, seed=2))
        assert not np.array_equal(a.model.theta, b.model.theta)

    def test_nonfinite_data_aborts_with_location(self):
        bad = MilDataset(np.array([[np.inf, -np.inf], [1.0, 0.0]]), [2], [1])
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingError, match="epoch 1"):
                train(bad, TrainConfig(epochs=1))

    def test_trace_ends_match_public_loss(self):
        dataset, _ = generate_synthetic(40, 5, 8, 3.0, 0.1, seed=4)
        config = TrainConfig(epochs=4, seed=3, groups_per_batch=8)
        result = train(dataset, config)
        theta0 = np.random.default_rng(3).uniform(-0.01, 0.01, size=9)
        for value, model in ((result.loss_trace[0], model_of(theta0, dim=8)),
                             (result.loss_trace[-1], result.model)):
            expected = loss(model, dataset, config.lam, config.kernel_gamma)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_loss_trace_is_one_full_kernel_sweep(self, monkeypatch):
        dataset, _ = generate_synthetic(40, 5, 8, 3.0, 0.1, seed=4)
        n = dataset.n_instances
        full_sweeps = []
        pairwise_terms = mil._pairwise_terms

        def counting(X, S, gamma):
            if len(X) == n:
                full_sweeps.append(S.shape[1])
            return pairwise_terms(X, S, gamma)

        monkeypatch.setattr(mil, "_pairwise_terms", counting)
        result = train(dataset, TrainConfig(epochs=6, groups_per_batch=8))
        assert full_sweeps == [7]
        assert len(result.loss_trace) == 7

    def test_trace_length(self):
        dataset, _ = generate_synthetic(10, 3, 4, 2.0, 0.0, seed=5)
        result = train(dataset, TrainConfig(epochs=7, seed=0))
        assert len(result.loss_trace) == 8

    def test_lambda_zero_from_zero_theta_is_stationary(self):
        # gradient is exactly zero at theta = 0 with lam = 0, so training
        # cannot move: verified through the public gradient surface
        dataset, _ = generate_synthetic(10, 3, 4, 2.0, 0.0, seed=5)
        model = model_of(np.zeros(5), dim=4)
        np.testing.assert_array_equal(gradient(model, dataset, 0.0, 1.0), np.zeros(5))


class TestRecovery:
    def test_sentence_recovery_from_group_labels(self):
        dataset, truth = generate_synthetic(200, 5, 16, 3.0, 0.1, seed=42)
        result = train(dataset, TrainConfig(seed=7))
        predictions = sentence_labels(sentence_scores(result.model, dataset.X))
        assert float(np.mean(predictions == truth)) >= 0.95


class TestPrediction:
    def test_half_score_is_positive(self):
        model = model_of(np.zeros(3), dim=2)
        label, score = label_and_score(model, np.array([5.0, -3.0]))
        assert score == 0.5
        assert label == 1

    def test_just_below_half_is_negative(self):
        model = model_of([1.0, 0.0], dim=1)
        x = np.array([scalar_logit(0.4999)])
        label, score = label_and_score(model, x)
        assert label == 0 and score < 0.5

    def test_majority_three_two(self):
        model = model_of([1.0, 0.0], dim=1)
        group = np.array([[scalar_logit(p)] for p in (0.9, 0.8, 0.7, 0.2, 0.1)])
        label, pos, neg = vote_of(model, group)
        assert (label, pos, neg) == (1, 3, 2)

    def test_tie_resolved_by_mean_score(self):
        model = model_of([1.0, 0.0], dim=1)
        high = np.array([[scalar_logit(p)] for p in (0.9, 0.9, 0.4, 0.4)])
        low = np.array([[scalar_logit(p)] for p in (0.6, 0.6, 0.1, 0.1)])
        assert vote_of(model, high)[0] == 1
        assert vote_of(model, low)[0] == 0

    def test_all_negative(self):
        model = model_of([1.0, 0.0], dim=1)
        group = np.array([[scalar_logit(p)] for p in (0.2, 0.3, 0.1)])
        assert vote_of(model, group) == (0, 0, 3)

    def test_vote_tie_without_scores_is_undecided(self):
        assert document_vote([1, 0], None) == (None, 1, 1)
        assert document_vote([], []) == (None, 0, 0)
        assert document_vote([1, 0], [0.9, 0.2]) == (1, 1, 1)

    def test_exhaustive_agreement_with_naive_recount(self):
        model = model_of([1.0, 0.0], dim=1)
        realizations = {1: (0.9, 0.6), 0: (0.4, 0.1)}
        for size in range(1, 7):
            for pattern in itertools.product((0, 1), repeat=size):
                for variant in (0, 1):
                    probs = [realizations[lab][variant] for lab in pattern]
                    group = np.array([[scalar_logit(p)] for p in probs])
                    scores = [scalar_sigmoid(row[0]) for row in group]
                    assert vote_of(model, group) == naive_document_vote(scores)

    def test_empty_group(self):
        with pytest.raises(ValueError):
            sentence_scores(model_of(np.zeros(2), dim=1), np.zeros((0, 1)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.49999999999999994, 0.5, 0.7, 0.9, 1.0])
                    | st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_vote_equals_naive_recount(self, scores):
        labels = [1 if score >= 0.5 else 0 for score in scores]
        expected = naive_document_vote(scores)
        assert document_vote(labels, scores) == expected
        # arrays, as `document_accuracy` passes them, vote alike
        assert document_vote(np.array(labels), np.array(scores)) == expected


class TestGroupScores:
    """The scores, labels and votes of `group_votes`."""

    @pytest.mark.parametrize("dim", [5, 24, 1024])
    def test_equal_to_scoring_each_group_alone(self, dim):
        # groups of sizes 0 to 12 in shuffled order, scored in one call
        rng = np.random.default_rng(21)
        sizes = rng.permutation(np.repeat(np.arange(13), 7))
        X = rng.standard_normal((int(sizes.sum()), dim)) * 3
        model = model_of(rng.standard_normal(dim + 1), dim=dim)
        votes = group_votes(model, X, sizes)
        assert len(votes) == len(sizes)
        lo = 0
        for k, (_, scores, _) in zip(sizes.tolist(), votes):
            if k:
                assert scores == sentence_scores(model, X[lo:lo + k].copy()).tolist()
            else:
                assert scores == []
            lo += k

    def test_overflow_names_the_first_group_in_order(self):
        # groups 0-11 of three rows and two groups of two; group 7 overflows
        # at row 1, group 10 at row 2 and group 13 at row 0
        sizes = np.array([3] * 12 + [2, 2])
        starts = np.cumsum(sizes) - sizes
        X = np.random.default_rng(5).standard_normal((int(sizes.sum()), 4))
        for group, row in ((7, 1), (10, 2), (13, 0)):
            X[starts[group] + row] = 1e308
        model = model_of(np.ones(4), dim=4, config=NO_BIAS)
        with pytest.raises(mil.ScoreError, match="^row 1: linear score inf is not finite$") \
                as exc:
            group_votes(model, X, sizes)
        assert exc.value.index == (7, 1)
        with pytest.raises(mil.ScoreError) as exc:
            group_votes(model, X[starts[12]:], sizes[12:])
        assert exc.value.index == (1, 0)
        # groups without rows count as groups but hold no row
        with pytest.raises(mil.ScoreError, match="^row 0: ") as exc:
            group_votes(model, X[starts[12]:], [0, 2, 0, 2])
        assert exc.value.index == (3, 0)

    def test_groups_without_rows(self):
        model = model_of(np.zeros(3), dim=2)
        empty = ([], [], (None, 0, 0))
        assert group_votes(model, np.empty((0, 2)), np.array([0, 0], dtype=np.intp)) == [
            empty, empty]

    def test_votes_walk_the_groups_in_order(self):
        # one-column rows whose scores under theta = 1 are about the given ones
        sizes = np.array([2, 0, 3, 1, 0, 4], dtype=np.intp)
        probs = np.random.default_rng(8).random(int(sizes.sum()))
        probs[:2] = [0.5, 0.2]  # a tie, decided by the mean score
        X = np.log(probs / (1.0 - probs))[:, None]
        model = model_of([1.0], dim=1, config=NO_BIAS)
        scores = sentence_scores(model, X)
        votes = group_votes(model, X, sizes)
        assert len(votes) == len(sizes)
        lo = 0
        for k, (labels, group, vote) in zip(sizes.tolist(), votes):
            assert group == scores[lo:lo + k].tolist()
            assert labels == sentence_labels(scores[lo:lo + k]).tolist()
            assert vote == document_vote(labels, group)
            lo += k
        assert votes[0][2] == (0, 1, 1) and votes[1] == ([], [], (None, 0, 0))


class TestGridSearch:
    def test_singleton_grid_returns_that_config(self):
        dataset, _ = generate_synthetic(20, 3, 4, 3.0, 0.0, seed=2)
        config = TrainConfig(lam=10.0, learning_rate=0.05, momentum=0.8, epochs=2)
        outcomes, result = grid_search(dataset, [config])
        assert outcomes == [document_accuracy(result.model, dataset)]
        assert result.model.config == config

    def test_tie_broken_by_smaller_lambda(self):
        # epochs=0 makes every configuration identical to its initialization,
        # so all accuracies tie and the smallest lambda must win
        dataset, _ = generate_synthetic(20, 3, 4, 3.0, 0.0, seed=2)
        configs = [TrainConfig(lam=10.0, epochs=0), TrainConfig(lam=1.0, epochs=0)]
        outcomes, result = grid_search(dataset, configs)
        assert len(set(outcomes)) == 1
        assert result.model.config == configs[1]

    def test_selects_highest_accuracy(self):
        dataset, _ = generate_synthetic(40, 5, 8, 3.0, 0.0, seed=3)
        # lam=0 cannot learn group structure; lam=10 can
        configs = [TrainConfig(lam=0.0, epochs=8), TrainConfig(lam=10.0, epochs=8)]
        outcomes, result = grid_search(dataset, configs)
        assert outcomes[1] > outcomes[0]
        assert result.model.config == configs[1]
        # the selected cell's own training run, bit-identical to a rerun
        rerun = train(dataset, configs[1])
        np.testing.assert_array_equal(result.model.theta, rerun.model.theta)
        assert result.loss_trace == rerun.loss_trace

    def test_empty_grid_is_rejected(self):
        dataset, _ = generate_synthetic(4, 2, 3, 3.0, 0.0, seed=2)
        with pytest.raises(ValueError, match="at least one configuration"):
            grid_search(dataset, [])


class TestGenerateSynthetic:
    def test_deterministic(self):
        a, ta = generate_synthetic(10, 4, 6, 2.0, 0.2, seed=3)
        b, tb = generate_synthetic(10, 4, 6, 2.0, 0.2, seed=3)
        np.testing.assert_array_equal(ta, tb)
        for (xa, la), (xb, lb) in zip(a.groups, b.groups):
            np.testing.assert_array_equal(xa, xb)
            assert la == lb

    def test_group_labels_are_majorities_without_noise(self):
        dataset, truth = generate_synthetic(30, 5, 4, 2.0, 0.0, seed=8)
        offset = 0
        for matrix, label in dataset.groups:
            votes = truth[offset : offset + len(matrix)]
            offset += len(matrix)
            assert label == (1 if votes.sum() * 2 >= len(matrix) else 0)

    def test_large_separation_is_linearly_separable(self):
        dataset, truth = generate_synthetic(40, 5, 6, 10.0, 0.0, seed=4)
        X = np.vstack([matrix for matrix, _ in dataset.groups])
        direction = np.ones(6) / np.sqrt(6)
        projections = X @ direction
        positive = projections[truth == 1]
        negative = projections[truth == 0]
        assert positive.min() > negative.max()

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(5, 5, 4, 0.0, 0.0)
        with pytest.raises(ValueError):
            generate_synthetic(0, 5, 4, 1.0, 0.0)
        with pytest.raises(ValueError):
            generate_synthetic(5, 5, 4, 1.0, 1.5)


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        dataset, _ = generate_synthetic(10, 3, 4, 2.0, 0.0, seed=6)
        result = train(dataset, TrainConfig(epochs=3, seed=5))
        path = tmp_path / "model.json"
        save_model(result.model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.theta, result.model.theta)
        assert loaded.dim == result.model.dim
        assert loaded.config == result.model.config

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ModelFormatError, match="not a"):
            load_model(path)
        path.write_text('{"format": "milsent-model", "version": 99}')
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)
        # past Python's int digit limit json raises a plain ValueError; without
        # that limit the number overflows a float
        path.write_text('{"theta": [' + "1" * 5000 + "]}")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("key,value,message", [
        ("dim", 2.7, "dim must be a JSON int, got 2.7"),
        ("dim", "2", "dim must be a JSON int, got '2'"),
        ("dim", True, "dim must be a JSON int, got True"),
        ("use_bias", "false", "config use_bias must be a JSON bool, got 'false'"),
        ("epochs", 25.0, "config epochs must be a JSON int, got 25.0"),
        ("lam", True, "config lam must be a JSON float, got True"),
    ], ids=["dim-float", "dim-string", "dim-bool", "use-bias-string", "epochs-float",
            "lam-bool"])
    def test_wrong_json_type_rejected(self, tmp_path, key, value, message):
        path = tmp_path / "model.json"
        save_model(MilModel(theta=np.ones(3), dim=2, config=TrainConfig()), path)
        record = json.loads(path.read_text())
        (record if key == "dim" else record["config"])[key] = value
        path.write_text(json.dumps(record))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: malformed model record: {message}"

    @pytest.mark.parametrize("config", [TrainConfig(), NO_BIAS, TrainConfig(lam=3)],
                             ids=["defaults", "no-bias", "int-lam"])
    def test_every_buildable_model_loads_back(self, tmp_path, config):
        dim = 4
        theta = np.random.default_rng(2).standard_normal(dim + config.use_bias)
        model = MilModel(theta=theta, dim=dim, config=config)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.theta, model.theta)
        assert (loaded.dim, loaded.config) == (dim, config)

    def test_float_field_takes_json_int(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(MilModel(theta=np.ones(3), dim=2, config=TrainConfig(lam=3)), path)
        assert '"lam":3,' in path.read_text()
        assert load_model(path).config.lam == 3

    def test_save_is_byte_deterministic(self, tmp_path):
        dataset, _ = generate_synthetic(10, 3, 4, 2.0, 0.0, seed=6)
        result = train(dataset, TrainConfig(epochs=2, seed=5))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(result.model, p1)
        save_model(result.model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigValidation:
    def test_defaults_are_the_selected_operating_point(self):
        config = TrainConfig()
        assert config.lam == 10.0
        assert config.learning_rate == 0.05
        assert config.momentum == 0.8
        assert config.epochs == 25
        assert config.groups_per_batch == 32
        assert config.kernel_gamma == 1.0
        assert config.use_bias is True

    def test_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(lam=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(kernel_gamma=0.0)

    @pytest.mark.parametrize("build,message", [
        (lambda: TrainConfig(use_bias=1), "config use_bias must be a JSON bool, got 1"),
        (lambda: TrainConfig(seed=True), "config seed must be a JSON int, got True"),
        (lambda: TrainConfig(epochs=2.0), "config epochs must be a JSON int, got 2.0"),
        (lambda: TrainConfig(lam=True), "config lam must be a JSON float, got True"),
        (lambda: MilModel(np.ones(3), 2.0, TrainConfig()), "dim must be a JSON int, got 2.0"),
        # a config that used to save as a file `load_model` refused
        (lambda: TrainConfig(use_bias=1, seed=True), "config seed must be a JSON int, got True"),
    ], ids=["use-bias-int", "seed-bool", "epochs-float", "lam-bool", "dim-float",
            "unloadable-once"])
    def test_types_checked_where_built(self, build, message):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message

    def test_median_heuristic_positive(self):
        dataset, _ = generate_synthetic(10, 4, 6, 2.0, 0.0, seed=1)
        gamma = median_heuristic_gamma(dataset, seed=0)
        assert gamma > 0

    def test_theta_finiteness_enforced(self):
        with pytest.raises(TrainingError):
            MilModel(theta=np.array([np.nan, 0.0]), dim=1, config=CFG)


def test_document_accuracy_matches_manual_count():
    # a trained model on equal groups; then groups of 1 to 6 sentences under
    # a zero theta (every score 0.5), a near-zero one (scores near 0.5, so
    # even-sized groups often tie) and a random one
    dataset, _ = generate_synthetic(25, 5, 8, 3.0, 0.0, seed=12)
    cases = [(dataset, train(dataset, TrainConfig(epochs=10, seed=3)).model)]
    rng = np.random.default_rng(12)
    sizes = rng.integers(1, 7, size=60)
    uneven = MilDataset(rng.standard_normal((int(sizes.sum()), 8)), sizes,
                        rng.integers(0, 2, size=60))
    cases += [(uneven, model_of(theta, dim=8))
              for theta in (np.zeros(9), rng.standard_normal(9) * 1e-3, rng.standard_normal(9))]
    for dataset, model in cases:
        hits = [vote_of(model, matrix)[0] == label for matrix, label in dataset.groups]
        assert document_accuracy(model, dataset) == sum(hits) / len(hits)
