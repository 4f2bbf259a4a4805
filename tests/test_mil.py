import itertools
import math
import tracemalloc

import numpy as np
import pytest

from milsent import mil
from milsent.corpus import MilDataset
from milsent.mil import (
    GridSpec,
    MilModel,
    ModelFormatError,
    TrainConfig,
    TrainingError,
    document_accuracy,
    document_vote,
    generate_synthetic,
    gradient,
    grid_search,
    group_score,
    instance_score,
    load_model,
    loss,
    median_heuristic_gamma,
    predict_document,
    predict_sentence,
    rbf_similarity,
    save_model,
    sentence_scores,
    sigmoid,
    train,
)
from reference import (
    central_difference_gradient,
    naive_document_vote,
    naive_mil_loss,
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
    return MilDataset(groups=tuple(groups), dim=dim)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            assert sigmoid(1000.0) == 1.0
            assert sigmoid(-1000.0) == 0.0

    def test_symmetry(self):
        assert sigmoid(-2.5) == pytest.approx(1.0 - sigmoid(2.5), abs=1e-15)

    def test_matches_scalar_reference(self):
        zs = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(zs), [scalar_sigmoid(z) for z in zs], atol=1e-15)


class TestRbfSimilarity:
    def test_identical_vectors(self):
        x = np.array([0.3, -1.2, 4.0])
        assert rbf_similarity(x, x) == 1.0

    def test_unit_distance(self):
        assert rbf_similarity(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0) == (
            pytest.approx(math.exp(-1.0))
        )

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            assert rbf_similarity(x, y, 0.7) == rbf_similarity(y, x, 0.7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rbf_similarity(np.zeros(3), np.zeros(4))

    def test_gamma_scales_distance(self):
        x, y = np.zeros(2), np.array([2.0, 0.0])
        assert rbf_similarity(x, y, 0.5) == pytest.approx(math.exp(-2.0))


class TestScores:
    def test_zero_theta_scores_half(self):
        model = model_of(np.zeros(5), dim=4)
        assert instance_score(model, np.array([3.0, -1.0, 2.0, 9.0])) == 0.5

    def test_unit_weight_on_first_axis(self):
        model = model_of([1.0, 0.0, 0.0, 0.0, 0.0], dim=4)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        assert instance_score(model, e1) == pytest.approx(scalar_sigmoid(1.0))

    def test_monotone_in_linear_score(self):
        model = model_of([2.0, 0.0], dim=1)
        xs = np.linspace(-3, 3, 20)
        scores = [instance_score(model, np.array([x])) for x in xs]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            instance_score(model_of(np.zeros(3), dim=2), np.zeros(5))

    def test_bias_component_shifts_score(self):
        with_bias = model_of([0.0, 1.0], dim=1)
        assert instance_score(with_bias, np.zeros(1)) == pytest.approx(scalar_sigmoid(1.0))

    def test_no_bias_mode(self):
        model = model_of([1.0], dim=1, config=NO_BIAS)
        assert instance_score(model, np.array([2.0])) == pytest.approx(scalar_sigmoid(2.0))

    def test_group_score_mean(self):
        model = model_of([1.0, 0.0], dim=1)
        group = np.array([[scalar_logit(0.2)], [scalar_logit(0.8)]])
        assert group_score(model, group) == pytest.approx(0.5, abs=1e-12)

    def test_group_score_identical_instances(self):
        model = model_of([1.0, 0.5], dim=1)
        group = np.array([[0.7], [0.7], [0.7]])
        assert group_score(model, group) == pytest.approx(
            instance_score(model, group[0]), abs=1e-15
        )

    def test_overflowing_linear_score_is_an_error(self):
        # the sign of an overflowed dot product depends on the BLAS
        # accumulation order, so such a score has no defined label
        model = model_of([2.0, -2.0], dim=2, config=NO_BIAS)
        huge = [1e308, 1e308]
        with pytest.raises(ValueError, match="row 1"):
            sentence_scores(model, np.array([[0.5, 0.1], huge]))
        with pytest.raises(ValueError, match="row 0"):
            instance_score(model, np.array(huge))
        with pytest.raises(ValueError, match="row 0"):
            sentence_scores(model_of([1.0, 1.0], dim=2, config=NO_BIAS), np.array([huge]))

    def test_group_score_empty_group(self):
        with pytest.raises(ValueError):
            group_score(model_of(np.zeros(2), dim=1), np.zeros((0, 1)))

    def test_group_score_zero_theta_is_half(self):
        model = model_of(np.zeros(4), dim=3)
        group = np.array([[1.0, -2.0, 0.5], [9.0, 9.0, 9.0]])
        assert group_score(model, group) == 0.5


def scalar_logit(p):
    return math.log(p / (1.0 - p))


class TestLoss:
    def test_zero_theta_zero_lambda_is_exactly_zero(self):
        batch = random_batch(np.random.default_rng(1))
        model = model_of(np.zeros(9), dim=8)
        assert loss(model, batch, 0.0, 1.0) == 0.0

    def test_single_positive_group_at_zero_theta(self):
        batch = MilDataset(groups=((np.array([[1.0, 2.0], [0.0, -1.0]]), 1),), dim=2)
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
        with pytest.raises(ValueError, match="empty"):
            loss(model_of(np.zeros(9), dim=8), [], 1.0, 1.0)

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
        batch = MilDataset(groups=((x[None, :], 1), (x[None, :], 0)), dim=3)
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
    return MilDataset(groups=groups, dim=dim)


# instance counts against the kernel's row block: several blocks with a
# ragged last one, exactly one block, and less than one block
BLOCK_CASES = {
    "ragged": 2 * mil.KERNEL_BLOCK_ROWS + 7,
    "one_block": mil.KERNEL_BLOCK_ROWS,
    "short": mil.KERNEL_BLOCK_ROWS - 3,
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

    def test_gradient_matches_central_finite_differences(self, n):
        rng = np.random.default_rng(n + 1)
        batch = batch_of_size(rng, n)
        theta = rng.standard_normal(9) * 0.8
        analytic = gradient(model_of(theta, dim=8), batch, 1.0, 0.1)

        def loss_at(t):
            return loss(model_of(t, dim=8), batch, 1.0, 0.1)

        numeric = central_difference_gradient(loss_at, theta, h=1e-5)
        assert relative_gradient_error(analytic, numeric) < 1e-5

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
        bad = MilDataset(
            groups=((np.array([[np.inf, -np.inf], [1.0, 0.0]]), 1),), dim=2
        )
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingError, match="epoch 1"):
                train(bad, TrainConfig(epochs=1))

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
        X = np.vstack([matrix for matrix, _ in dataset.groups])
        predictions = np.array([predict_sentence(result.model, x)[0] for x in X])
        assert float(np.mean(predictions == truth)) >= 0.95


class TestPrediction:
    def test_half_score_is_positive(self):
        model = model_of(np.zeros(3), dim=2)
        label, score = predict_sentence(model, np.array([5.0, -3.0]))
        assert score == 0.5
        assert label == 1

    def test_just_below_half_is_negative(self):
        model = model_of([1.0, 0.0], dim=1)
        x = np.array([scalar_logit(0.4999)])
        label, score = predict_sentence(model, x)
        assert label == 0 and score < 0.5

    def test_majority_three_two(self):
        model = model_of([1.0, 0.0], dim=1)
        group = np.array([[scalar_logit(p)] for p in (0.9, 0.8, 0.7, 0.2, 0.1)])
        label, pos, neg = predict_document(model, group)
        assert (label, pos, neg) == (1, 3, 2)

    def test_tie_resolved_by_mean_score(self):
        model = model_of([1.0, 0.0], dim=1)
        high = np.array([[scalar_logit(p)] for p in (0.9, 0.9, 0.4, 0.4)])
        low = np.array([[scalar_logit(p)] for p in (0.6, 0.6, 0.1, 0.1)])
        assert predict_document(model, high)[0] == 1
        assert predict_document(model, low)[0] == 0

    def test_all_negative(self):
        model = model_of([1.0, 0.0], dim=1)
        group = np.array([[scalar_logit(p)] for p in (0.2, 0.3, 0.1)])
        assert predict_document(model, group) == (0, 0, 3)

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
                    assert predict_document(model, group) == naive_document_vote(scores)

    def test_empty_group(self):
        with pytest.raises(ValueError):
            predict_document(model_of(np.zeros(2), dim=1), np.zeros((0, 1)))


class TestGridSearch:
    def test_singleton_grid_returns_that_config(self):
        dataset, _ = generate_synthetic(20, 3, 4, 3.0, 0.0, seed=2)
        grid = GridSpec((10.0,), (0.05,), (0.8,))
        best, cells = grid_search(dataset, grid, TrainConfig(epochs=2))
        assert (best.lam, best.learning_rate, best.momentum) == (10.0, 0.05, 0.8)
        assert len(cells) == 1

    def test_tie_broken_by_smaller_lambda(self):
        # epochs=0 makes every configuration identical to its initialization,
        # so all accuracies tie and the smallest lambda must win
        dataset, _ = generate_synthetic(20, 3, 4, 3.0, 0.0, seed=2)
        grid = GridSpec((10.0, 1.0), (0.05,), (0.8,))
        best, cells = grid_search(dataset, grid, TrainConfig(epochs=0))
        accuracies = {c.accuracy for c in cells}
        assert len(accuracies) == 1
        assert best.lam == 1.0

    def test_selects_highest_accuracy(self):
        dataset, _ = generate_synthetic(40, 5, 8, 3.0, 0.0, seed=3)
        # lam=0 cannot learn group structure; lam=10 can
        grid = GridSpec((0.0, 10.0), (0.05,), (0.8,))
        best, cells = grid_search(dataset, grid, TrainConfig(epochs=8))
        by_lam = {c.lam: c.accuracy for c in cells}
        assert by_lam[10.0] > by_lam[0.0]
        assert best.lam == 10.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec((), (0.05,), (0.8,))


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

    def test_median_heuristic_positive(self):
        dataset, _ = generate_synthetic(10, 4, 6, 2.0, 0.0, seed=1)
        gamma = median_heuristic_gamma(dataset, seed=0)
        assert gamma > 0

    def test_theta_finiteness_enforced(self):
        with pytest.raises(TrainingError):
            MilModel(theta=np.array([np.nan, 0.0]), dim=1, config=CFG)


def test_document_accuracy_matches_manual_count():
    dataset, _ = generate_synthetic(25, 5, 8, 3.0, 0.0, seed=12)
    result = train(dataset, TrainConfig(epochs=10, seed=3))
    manual = np.mean([
        predict_document(result.model, matrix)[0] == label
        for matrix, label in dataset.groups
    ])
    assert document_accuracy(result.model, dataset) == pytest.approx(float(manual))
