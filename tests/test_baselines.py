import numpy as np
import pytest
from hypothesis import given, strategies as st

from milsent.baselines import (
    BowModel,
    DictionaryError,
    PolarityDictionary,
    bow_featurize,
    bow_predict,
    build_vocabulary_index,
    dictionary_classify,
    features_to_matrix,
    fit_logistic_gd,
    load_demo_dictionary,
    load_dictionary,
    train_bow_logreg,
)
from reference import central_difference_gradient, logistic_loss, relative_gradient_error

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
        features = [{0: 2, 1: 1}, {}, {1: 3}]
        matrix = features_to_matrix(features, 2)
        np.testing.assert_array_equal(matrix, [[2, 1], [0, 0], [0, 3]])


class TestLogisticFit:
    def test_separable_two_points(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        w, b, _ = fit_logistic_gd(X, y, l2_strength=0.0, max_iter=5000)
        scores = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        assert ((scores >= 0.5).astype(float) == y).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="each class"):
            fit_logistic_gd(np.ones((3, 2)), np.ones(3))

    def test_stronger_l2_shrinks_weights(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 3))
        y = (X[:, 0] > 0).astype(float)
        w_weak, _, _ = fit_logistic_gd(X, y, l2_strength=1e-3)
        w_strong, _, _ = fit_logistic_gd(X, y, l2_strength=1e6)
        assert np.linalg.norm(w_strong) < np.linalg.norm(w_weak)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((12, 4))
        y = (rng.random(12) > 0.5).astype(float)
        l2 = 0.01
        w0 = rng.standard_normal(4) * 0.5
        b0 = 0.3
        n = len(y)
        p = 1.0 / (1.0 + np.exp(-(X @ w0 + b0)))
        analytic = np.concatenate([X.T @ (p - y) / n + l2 * w0, [np.mean(p - y)]])

        def loss_at(packed):
            return logistic_loss(X, y, packed[:-1], packed[-1], l2)

        numeric = central_difference_gradient(loss_at, np.concatenate([w0, [b0]]))
        assert relative_gradient_error(analytic, numeric) < 1e-5

    def test_loss_decreases_monotonically(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 3))
        y = (X @ np.array([1.0, -2.0, 0.5]) > 0).astype(float)
        losses = []
        w = np.zeros(3)
        b = 0.0
        step = 1.0 / (0.25 * float(np.mean(np.sum(X * X, axis=1) + 1)) + 0.01)
        for _ in range(50):
            losses.append(logistic_loss(X, y, w, b, 0.01))
            p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
            w = w - step * (X.T @ (p - y) / len(y) + 0.01 * w)
            b = b - step * float(np.mean(p - y))
        assert all(a >= b_ for a, b_ in zip(losses, losses[1:]))

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
            l2_strength=0.0,
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

    def test_trained_end_to_end_on_tokens(self):
        token_lists = [["profit", "gain"], ["profit"], ["loss"], ["loss", "risk"]]
        labels = [1, 1, 0, 0]
        index = build_vocabulary_index(token_lists)
        features = [bow_featurize(t, index) for t in token_lists]
        model = train_bow_logreg(features, labels, index, l2_strength=1e-4)
        assert bow_predict(model, ["profit", "gain"])[0] == 1
        assert bow_predict(model, ["risk", "loss"])[0] == 0
