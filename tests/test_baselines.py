import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from milsent import baselines
from milsent.baselines import (
    BowModel,
    DictionaryError,
    PolarityDictionary,
    bow_featurize,
    bow_predict,
    build_vocabulary_index,
    _Logistic,
    _newton_iterates,
    dictionary_classify,
    load_demo_dictionary,
    load_dictionary,
    train_bow_logreg,
)
from milsent.mil import TrainingError, sigmoid
from reference import (
    central_difference_gradient,
    dense_features,
    gradient_descent_logistic,
    logistic_gradient,
    logistic_loss,
    relative_gradient_error,
    sparse_features,
)

DICT = PolarityDictionary(
    name="toy",
    positive_terms=frozenset({"good", "profit", "gain"}),
    negative_terms=frozenset({"bad", "loss", "risk"}),
)


class TestLoadDictionary:
    def test_one_term_each(self, tmp_path):
        pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
        pos.write_text("good\n")
        neg.write_text("bad\n")
        d = load_dictionary(pos, neg, name="tiny")
        assert d.positive_terms == {"good"} and d.negative_terms == {"bad"}

    def test_overlap_rejected_naming_term(self, tmp_path):
        pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
        pos.write_text("good\nshared\n")
        neg.write_text("bad\nshared\n")
        with pytest.raises(DictionaryError, match="shared"):
            load_dictionary(pos, neg)

    def test_empty_negative_file_is_valid(self, tmp_path):
        pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
        pos.write_text("good\n")
        neg.write_text("")
        d = load_dictionary(pos, neg)
        assert d.negative_terms == frozenset()

    def test_lowercased_and_deduplicated(self, tmp_path):
        pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
        pos.write_text("Good\ngood\nGOOD\n")
        neg.write_text("bad\n")
        d = load_dictionary(pos, neg)
        assert d.positive_terms == {"good"}

    def test_demo_lexicon_ships(self):
        d = load_demo_dictionary()
        assert len(d.positive_terms) >= 20
        assert len(d.negative_terms) >= 20
        assert not d.positive_terms & d.negative_terms


class TestDictionaryClassify:
    def test_majority_positive(self):
        assert dictionary_classify(["good", "profit", "risk"], DICT) == 1

    def test_no_hits_is_neutral(self):
        assert dictionary_classify(["the", "quarterly", "figures"], DICT) is None

    def test_tie_is_neutral(self):
        assert dictionary_classify(["good", "bad"], DICT) is None

    def test_order_invariant(self):
        tokens = ["risk", "good", "profit", "loss", "gain"]
        assert dictionary_classify(tokens, DICT) == dictionary_classify(tokens[::-1], DICT)

    @given(st.lists(st.sampled_from(["good", "bad", "x", "profit", "risk"]), max_size=30))
    def test_adding_positive_never_hurts(self, tokens):
        order = {1: 2, None: 1, 0: 0}
        before = dictionary_classify(tokens, DICT)
        after = dictionary_classify(tokens + ["good"], DICT)
        assert order[after] >= order[before]


class TestBowFeatures:
    def test_counts(self):
        index = {"profit": 0, "loss": 1}
        assert bow_featurize(["profit", "profit", "loss"], index) == {0: 2, 1: 1}

    def test_empty_tokens(self):
        assert bow_featurize([], {"a": 0}) == {}

    def test_all_oov(self):
        assert bow_featurize(["x", "y"], {"a": 0}) == {}

    @given(
        st.lists(st.sampled_from(["a", "b", "c", "z"]), max_size=20),
        st.lists(st.sampled_from(["a", "b", "c", "z"]), max_size=20),
    )
    def test_count_additivity(self, left, right):
        index = {"a": 0, "b": 1, "c": 2}
        combined = bow_featurize(left + right, index)
        separate = bow_featurize(left, index)
        for col, count in bow_featurize(right, index).items():
            separate[col] = separate.get(col, 0) + count
        assert combined == separate

    def test_index_builder_first_seen_order(self):
        index = build_vocabulary_index([["b", "a"], ["a", "c"]])
        assert index == {"b": 0, "a": 1, "c": 2}

    def test_matrix_stacking(self):
        # the fit's sparse products equal those of the stacked dense matrix
        features = [{0: 2, 1: 1}, {}, {1: 3}]
        matrix = np.array([[2.0, 1.0], [0.0, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(dense_features(features, 2), matrix)
        objective = _Logistic(features, np.array([1.0, 0.0, 1.0]), 2, l2=0.5)
        x = np.array([0.25, -1.5, 0.125])
        np.testing.assert_array_equal(objective._times(x), matrix @ x[:2] + x[2])
        r = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(objective._transpose_times(r, x),
                                      np.append(matrix.T @ r + 0.5 * x[:2], r.sum()))


def _fit(X, y, l2):
    """train_bow_logreg on the rows of a dense matrix: (w, b)."""
    X = np.asarray(X, dtype=float)
    index = {f"t{col}": col for col in range(X.shape[1])}
    model = train_bow_logreg(sparse_features(X), y, index, l2_strength=l2)
    return model.weights, model.intercept


def _count_data(seed: int, n: int = 60, terms: int = 40):
    """Sparse term counts whose labels follow a few terms, with label noise."""
    rng = np.random.default_rng(seed)
    X = rng.poisson(0.15, size=(n, terms)).astype(float)
    y = (X @ rng.standard_normal(terms) + 0.5 * rng.standard_normal(n) > 0).astype(float)
    return X, y


class TestLogisticFit:
    def test_separable_two_points(self):
        # separable data has no minimizer without the penalty, so l2 > 0
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        w, b = _fit(X, y, l2=1e-4)
        scores = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        assert ((scores >= 0.5).astype(float) == y).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="each class"):
            _fit(np.ones((3, 2)), np.ones(3), l2=1e-3)

    @pytest.mark.parametrize("l2", [0.0, -1e-3, float("nan"), float("inf")])
    def test_l2_must_be_positive(self, l2):
        with pytest.raises(ValueError, match="l2_strength"):
            _fit(np.eye(2), [1, 0], l2=l2)

    def test_column_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            train_bow_logreg([{0: 1.0}, {2: 1.0}], [1, 0], {"a": 0, "b": 1})

    def test_stronger_l2_shrinks_weights(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 3))
        y = (X[:, 0] > 0).astype(float)
        w_weak, _ = _fit(X, y, l2=1e-3)
        w_strong, _ = _fit(X, y, l2=1e6)
        assert np.linalg.norm(w_strong) < np.linalg.norm(w_weak)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((12, 4))
        y = (rng.random(12) > 0.5).astype(float)
        l2 = 0.01
        x0 = np.append(rng.standard_normal(4) * 0.5, 0.3)
        analytic = _Logistic(sparse_features(X), y, 4, l2).gradient(x0)
        np.testing.assert_allclose(analytic, logistic_gradient(X, y, x0[:-1], x0[-1], l2),
                                   rtol=1e-12, atol=1e-15)

        def loss_at(packed):
            return logistic_loss(X, y, packed[:-1], packed[-1], l2)

        numeric = central_difference_gradient(loss_at, x0)
        assert relative_gradient_error(analytic, numeric) < 1e-5

    def test_hessian_product_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        X, y = _count_data(16, n=20, terms=6)
        l2 = 0.05
        objective = _Logistic(sparse_features(X), y, 6, l2)
        x0, v = rng.standard_normal(7) * 0.3, rng.standard_normal(7)
        objective.gradient(x0)
        analytic = objective.hessian_times(v)
        h = 1e-6
        numeric = (logistic_gradient(X, y, x0[:-1] + h * v[:-1], x0[-1] + h * v[-1], l2)
                   - logistic_gradient(X, y, x0[:-1] - h * v[:-1], x0[-1] - h * v[-1], l2)
                   ) / (2 * h)
        assert relative_gradient_error(analytic, numeric) < 1e-6

    def test_loss_decreases_monotonically(self):
        X, y = _count_data(21)
        objective = _Logistic(sparse_features(X), y, X.shape[1], 0.01)
        losses = [logistic_loss(X, y, x[:-1], x[-1], 0.01)
                  for x, _ in itertools.islice(_newton_iterates(objective), 6)]
        assert all(a >= b for a, b in zip(losses, losses[1:])) and losses[0] > losses[-1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_converges_to_below_tol_and_gradient_descent(self, seed):
        X, y = _count_data(seed)
        l2 = 1e-3
        w, b = _fit(X, y, l2)
        assert np.linalg.norm(logistic_gradient(X, y, w, b, l2)) < baselines.TOL
        w_gd, b_gd = gradient_descent_logistic(X, y, l2, steps=10_000)
        assert logistic_loss(X, y, w, b, l2) <= logistic_loss(X, y, w_gd, b_gd, l2)

    def test_non_convergence_raises(self, monkeypatch):
        X, y = _count_data(4)
        monkeypatch.setattr(baselines, "TOL", 1e-300)
        monkeypatch.setattr(baselines, "MAX_NEWTON_STEPS", 2)
        with pytest.raises(TrainingError, match="did not converge in 2 Newton steps"):
            _fit(X, y, 1e-3)

    def test_iteration_count_logged(self, caplog):
        X, y = _count_data(5)
        with caplog.at_level(logging.DEBUG, logger="milsent.baselines"):
            _fit(X, y, 1e-3)
        (record,) = [r for r in caplog.records if r.name == "milsent.baselines"]
        assert record.getMessage().startswith("bow logreg converged in")
        assert 1 <= record.args[0] < baselines.MAX_NEWTON_STEPS

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 2))
        y = (X[:, 0] > 0).astype(float)
        index = {"a": 0, "b": 1}
        features = [{0: float(r[0]), 1: float(r[1])} for r in X]
        m1 = train_bow_logreg(features, y, index, l2_strength=0.01)
        m2 = train_bow_logreg(features, y, index, l2_strength=0.01)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.intercept == m2.intercept


class TestBowPredict:
    def _toy_model(self, w, b):
        return BowModel(
            vocabulary_index={"profit": 0, "loss": 1},
            weights=np.array(w, dtype=float),
            intercept=b,
        )

    def test_zero_features_label_by_intercept(self):
        positive_bias = self._toy_model([1.0, -1.0], 0.3)
        negative_bias = self._toy_model([1.0, -1.0], -0.3)
        assert bow_predict(positive_bias, ["unseen"])[0] == 1
        assert bow_predict(negative_bias, ["unseen"])[0] == 0

    def test_exact_half_is_positive(self):
        model = self._toy_model([1.0, -1.0], 0.0)
        label, score = bow_predict(model, ["unseen"])
        assert score == 0.5 and label == 1

    def test_monotone_in_positive_weight_term(self):
        model = self._toy_model([0.7, -0.7], 0.0)
        scores = [
            bow_predict(model, ["profit"] * k)[1] for k in range(5)
        ]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_score_is_the_mil_sigmoid_within_one_ulp(self):
        # binary fractions: z is exact in any summation order
        model = self._toy_model([0.75, -1.25], 0.25)
        for tokens in ([], ["profit"], ["loss"], ["loss"] * 3, ["profit", "loss"] * 40,
                       ["loss"] * 800, ["profit"] * 800):
            z = 0.25 + 0.75 * tokens.count("profit") - 1.25 * tokens.count("loss")
            expected = float(sigmoid(np.array([z]))[0])
            score = bow_predict(model, tokens)[1]
            assert isinstance(score, float)
            assert abs(score - expected) <= math.ulp(expected)

    def test_trained_end_to_end_on_tokens(self):
        token_lists = [["profit", "gain"], ["profit"], ["loss"], ["loss", "risk"]]
        labels = [1, 1, 0, 0]
        index = build_vocabulary_index(token_lists)
        features = [bow_featurize(t, index) for t in token_lists]
        model = train_bow_logreg(features, labels, index, l2_strength=1e-4)
        assert bow_predict(model, ["profit", "gain"])[0] == 1
        assert bow_predict(model, ["risk", "loss"])[0] == 0
