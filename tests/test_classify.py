"""Tests for featurization, the max-loss trainer, and the knn baseline."""

import math
import warnings

import numpy as np
import pytest

import ivtskit as iv
from ivtskit.classify import LOSSES, FeatureConfig, LinearClassifier, loss_entry
from ivtskit.errors import (
    BlockGridInvalid,
    DimensionMismatch,
    EmptyInput,
    LengthMismatch,
)
from test_oracles import ref_predict, ref_scores

K4 = iv.kernel_preset("K4")


def random_in_cap_classifier(rng, n_classes, p, c_A=1.0, c_B=1.0):
    w = rng.standard_normal((n_classes, p))
    w *= (rng.uniform(0, c_A, size=n_classes) / np.linalg.norm(w, axis=1))[:, None]
    b = rng.uniform(-c_B, c_B, size=n_classes)
    return LinearClassifier(w, b, c_A, c_B)


def random_capped_feature(rng, p, c_Z=1.0):
    z = rng.standard_normal(p)
    return z * (rng.uniform(0, c_Z) / np.linalg.norm(z))


def separable_two_class_features(n_per_class=10):
    """Unit vectors clustered around +e1 and -e1; margin 1 is feasible
    within caps c_A = c_B = 1 via A_1 = e1, A_2 = -e1."""
    angles = np.linspace(-0.35, 0.35, n_per_class)
    pos = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    neg = -pos
    X = np.vstack([pos, neg])
    y = np.array([1] * n_per_class + [2] * n_per_class)
    return X, y


class TestFeaturize:
    def test_flatten_at_cap(self):
        img = iv.RecurrenceImage(np.ones((2, 2), dtype=np.uint8))
        z = iv.featurize(img, FeatureConfig(mode="flatten", normalize_cap=2.0))
        assert np.array_equal(z, np.ones(4))  # norm is exactly the cap

    def test_flatten_rescales_down(self):
        img = iv.RecurrenceImage(np.ones((2, 2), dtype=np.uint8))
        z = iv.featurize(img, FeatureConfig(mode="flatten", normalize_cap=1.0))
        assert np.linalg.norm(z) == pytest.approx(1.0)
        assert np.allclose(z, 0.5)

    def test_block_mean_single_cell(self):
        px = np.zeros((4, 4), dtype=np.uint8)
        px[0, :] = 1
        img = iv.RecurrenceImage(px)
        z = iv.featurize(img, FeatureConfig(mode="block_mean", q=1))
        assert z.shape == (1,)
        assert z[0] == pytest.approx(0.25)

    def test_block_mean_checkerboard(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        img = iv.RecurrenceImage(board)
        z = iv.featurize(img, FeatureConfig(mode="block_mean", q=2, normalize_cap=10.0))
        assert np.allclose(z, 0.5)

    def test_block_mean_uneven_grid(self):
        img = iv.RecurrenceImage(np.eye(5, dtype=np.uint8))
        z = iv.featurize(img, FeatureConfig(mode="block_mean", q=2, normalize_cap=10.0))
        # cells are 3x3, 3x2, 2x3, 2x2 along the split of [0,1,2] and [3,4]
        assert z == pytest.approx([3 / 9, 0.0, 0.0, 2 / 4])

    def test_block_grid_invalid(self):
        img = iv.RecurrenceImage(np.ones((3, 3), dtype=np.uint8))
        with pytest.raises(BlockGridInvalid):
            iv.featurize(img, FeatureConfig(mode="block_mean", q=4))
        with pytest.raises(ValueError, match="block grid size must be >= 1"):
            FeatureConfig(mode="block_mean", q=0)
        with pytest.raises(ValueError, match="mode must be 'flatten' or 'block_mean'"):
            FeatureConfig(mode="bogus")

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf])
    def test_cap_must_be_finite_and_positive(self, cap):
        with pytest.raises(ValueError, match="normalize_cap must be finite and positive"):
            FeatureConfig(normalize_cap=cap)


class TestScorePredict:
    def test_zero_classifier_predicts_first_class(self):
        clf = LinearClassifier(np.zeros((3, 4)), np.zeros(3))
        assert iv.predict(clf, np.zeros(4)) == 1

    def test_two_class_example(self):
        clf = LinearClassifier(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))
        assert iv.predict(clf, np.array([1.0, 0.0])) == 1
        assert iv.predict(clf, np.array([-1.0, 0.0])) == 2

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            clf = random_in_cap_classifier(rng, 4, 6)
            z = random_capped_feature(rng, 6)
            want = [
                sum(clf.weights[c, j] * z[j] for j in range(6)) + clf.biases[c]
                for c in range(4)
            ]
            assert ref_scores(clf, z) == pytest.approx(want, abs=1e-12)
            assert iv.predict(clf, z) == ref_predict(clf, z)

    @pytest.mark.parametrize("caps", [{"c_A": 0.0}, {"c_B": -1.0}])
    def test_caps_must_be_positive(self, caps):
        with pytest.raises(ValueError, match="norm caps c_A and c_B must be positive"):
            LinearClassifier(np.zeros((2, 3)), np.zeros(2), **caps)

    def test_dim_mismatch(self):
        clf = LinearClassifier(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            iv.predict(clf, np.zeros(4))

    def test_bias_shift_leaves_prediction(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            clf = random_in_cap_classifier(rng, 3, 5, c_B=0.4)
            z = random_capped_feature(rng, 5)
            shifted = LinearClassifier(
                clf.weights, clf.biases + 0.5, clf.c_A, clf.c_B + 0.5
            )
            assert iv.predict(clf, z) == iv.predict(shifted, z)


class TestAuxLoss:
    def test_values(self):
        assert LOSSES["hinge"].value(0.0) == 1.0
        assert LOSSES["squared_hinge"].value(-1.0) == 4.0
        assert LOSSES["exponential"].value(0.0) == 1.0
        assert LOSSES["hinge"].value(2.0) == 0.0

    def test_subgradients(self):
        assert LOSSES["hinge"].subgradient(0.5) == -1.0
        assert LOSSES["hinge"].subgradient(1.0) == 0.0  # kink uses 0
        assert LOSSES["hinge"].subgradient(2.0) == 0.0
        assert LOSSES["squared_hinge"].subgradient(0.0) == -2.0
        assert LOSSES["squared_hinge"].subgradient(1.5) == 0.0
        assert LOSSES["exponential"].subgradient(0.0) == -1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            loss_entry("logistic")


class TestMaxLoss:
    def test_equal_scores_give_unit_hinge(self):
        clf = LinearClassifier(np.zeros((3, 2)), np.zeros(3))
        assert iv.empirical_phi_risk(clf, [np.zeros(2)], [2], "hinge") == 1.0

    def test_large_margin_gives_zero_hinge(self):
        clf = LinearClassifier(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]), 1.0, 1.0
        )
        assert iv.empirical_phi_risk(clf, [[1.0, 0.0]], [1], "hinge") == 0.0

    def test_brute_force_over_other_classes(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            clf = random_in_cap_classifier(rng, 3, 4)
            z = random_capped_feature(rng, 4)
            y = int(rng.integers(1, 4))
            s = ref_scores(clf, z)
            want = max(
                LOSSES["hinge"].value(float(s[y - 1] - s[other - 1]))
                for other in range(1, 4)
                if other != y
            )
            assert iv.empirical_phi_risk(clf, [z], [y], "hinge") == pytest.approx(want, abs=1e-12)


class TestEmpiricalRisk:
    def test_single_confident_item(self):
        clf = LinearClassifier(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.5, -0.5]), 1.0, 1.0
        )
        X = np.array([[1.0, 0.0]])
        assert iv.empirical_phi_risk(clf, X, [1], "hinge") == 0.0

    def test_duplicates_do_not_change_mean(self):
        rng = np.random.default_rng(23)
        clf = random_in_cap_classifier(rng, 3, 4)
        z = random_capped_feature(rng, 4)
        single = iv.empirical_phi_risk(clf, [z], [2], "hinge")
        doubled = iv.empirical_phi_risk(clf, [z, z], [2, 2], "hinge")
        assert single == pytest.approx(doubled, abs=1e-15)

    def test_three_item_hand_sum(self):
        rng = np.random.default_rng(24)
        clf = random_in_cap_classifier(rng, 3, 4)
        X = np.stack([random_capped_feature(rng, 4) for _ in range(3)])
        y = [1, 3, 2]
        want = sum(iv.empirical_phi_risk(clf, X[i : i + 1], y[i : i + 1], "squared_hinge")
                   for i in range(3)) / 3
        got = iv.empirical_phi_risk(clf, X, y, "squared_hinge")
        assert got == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        clf = LinearClassifier(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(EmptyInput):
            iv.empirical_phi_risk(clf, np.empty((0, 2)), [], "hinge")
        one_class = LinearClassifier(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="the max loss needs at least two classes"):
            iv.empirical_phi_risk(one_class, np.zeros((1, 2)), [1], "hinge")


class TestTrain:
    def test_zero_steps_returns_zero_classifier(self):
        X, y = separable_two_class_features()
        clf = iv.train(X, y, steps=0)
        assert np.array_equal(clf.weights, np.zeros((2, 2)))
        assert iv.empirical_phi_risk(clf, X, y, "hinge") == 1.0

    def test_separable_set_reaches_low_risk(self):
        X, y = separable_two_class_features()
        clf = iv.train(X, y, kind="hinge", steps=2000)
        assert iv.empirical_phi_risk(clf, X, y, "hinge") < 0.05

    def test_best_iterate_risk_non_increasing_in_steps(self):
        X, y = separable_two_class_features()
        risks = [
            iv.empirical_phi_risk(iv.train(X, y, steps=s), X, y, "hinge")
            for s in (0, 10, 50, 200)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(risks, risks[1:]))

    def test_projection_keeps_caps(self):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((40, 3)) * 3.0
        y = rng.integers(1, 4, size=40)
        clf = iv.train(X, y, kind="squared_hinge", steps=150, c_A=0.7, c_B=0.2)
        assert np.linalg.norm(clf.weights, axis=1).max() <= 0.7 + 1e-9
        assert np.abs(clf.biases).max() <= 0.2 + 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            iv.train(np.ones((3, 2)), [1, 1, 1])
        for X, y in ((np.ones(3), [1, 2, 1]), (np.ones((3, 2)), [1, 2])):
            with pytest.raises(ValueError, match="features must be .n, p. with one label per row"):
                iv.train(X, y)
        with pytest.raises(EmptyInput, match="cannot train on an empty feature set"):
            iv.train(np.empty((0, 2)), [])
        with pytest.raises(ValueError, match="labels must be 1-based class ids"):
            iv.train(np.ones((3, 2)), [0, 1, 2])

    def test_deterministic(self):
        X, y = separable_two_class_features()
        a = iv.train(X, y, steps=50)
        b = iv.train(X, y, steps=50)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    @pytest.mark.parametrize(
        "kwargs,text",
        [
            ({"step_size": float("nan")}, "step size must be finite and positive, got nan"),
            ({"step_size": 0.0}, "step size must be finite and positive, got 0.0"),
            ({"step_size": -1.0}, "step size must be finite and positive, got -1.0"),
            ({"step_size": float("inf")}, "step size must be finite and positive, got inf"),
            ({"c_A": float("inf")}, "norm caps c_A and c_B must be finite, got inf and 1.0"),
            ({"c_B": float("nan")}, "norm caps c_A and c_B must be positive"),
            ({"kind": "exponential", "step_size": 1e300, "c_A": 1e300, "c_B": 1e300},
             "training risk is inf at step 1;"),
            ({"kind": "squared_hinge", "step_size": 1e200, "c_A": 1e300, "c_B": 1e300},
             "training risk is inf at step 1;"),
            ({"step_size": 1e308, "c_A": 1e308, "c_B": 1e308}, "training risk is nan at step 1;"),
        ],
    )
    def test_bad_values_are_value_errors_without_warnings(self, kwargs, text):
        # three classes, so the first step moves the biases off zero
        X = np.random.default_rng(0).random((30, 4))
        y = np.arange(30) % 3 + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=text.replace("(", r"\(")):
                iv.train(X, y, steps=5, **kwargs)

    def test_exponential_loss_trains(self):
        X, y = separable_two_class_features()
        clf = iv.train(X, y, kind="exponential", steps=500)
        zero = LinearClassifier(np.zeros((2, 2)), np.zeros(2))
        risk0 = iv.empirical_phi_risk(zero, X, y, "exponential")
        assert iv.empirical_phi_risk(clf, X, y, "exponential") < risk0


class TestLipschitzAndBoundedness:
    def test_pointwise_surrogate_difference_bound_hinge(self):
        # The hinge is globally 1-Lipschitz, so the pointwise bound
        # 4 ell (c_A c_Z + c_B) holds on the whole in-cap domain.  The
        # squared hinge and exponential constants (2 and 1) are only valid
        # for nonnegative margins, where they are exercised below.
        rng = np.random.default_rng(26)
        bound = 4.0 * iv.lipschitz_constant("hinge") * (1.0 * 1.0 + 1.0)
        for _ in range(1000):
            f1 = random_in_cap_classifier(rng, 3, 4)
            f2 = random_in_cap_classifier(rng, 3, 4)
            z = random_capped_feature(rng, 4)
            y = int(rng.integers(1, 4))
            gap = abs(
                iv.empirical_phi_risk(f1, [z], [y], "hinge")
                - iv.empirical_phi_risk(f2, [z], [y], "hinge")
            )
            assert gap <= bound + 1e-12

    def test_stated_constants_hold_on_nonnegative_margins(self):
        rng = np.random.default_rng(29)
        for kind in ("hinge", "squared_hinge", "exponential"):
            ell = iv.lipschitz_constant(kind)
            for _ in range(500):
                a1, a2 = rng.uniform(0.0, 4.0, size=2)
                gap = abs(LOSSES[kind].value(a1) - LOSSES[kind].value(a2))
                assert gap <= ell * abs(a1 - a2) + 1e-12

    def test_score_boundedness(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            clf = random_in_cap_classifier(rng, 3, 5, c_A=2.0, c_B=0.5)
            z = random_capped_feature(rng, 5, c_Z=1.5)
            assert np.abs(ref_scores(clf, z)).max() <= 2.0 * 1.5 + 0.5 + 1e-12


def _one_step_dataset(values, labels):
    grids = [iv.IntervalSeries(np.array([[v, v]])).grid for v in values]
    return iv.LabeledDataset(np.stack(grids), labels)


class TestKnn:
    def test_self_match(self):
        ds = _one_step_dataset([0.0, 1.0, 2.0], [1, 2, 2])
        for series, label in zip(ds.series(), ds.labels()):
            assert iv.knn_classify(ds, series, 1, K4) == label

    def test_uniform_labels(self):
        ds = _one_step_dataset([0.0, 1.0, 2.0], [2, 2, 2])
        query = iv.IntervalSeries(np.array([[5.0, 5.0]]))
        assert iv.knn_classify(ds, query, 3, K4) == 2

    def test_five_item_exhaustive_table(self):
        ds = _one_step_dataset([0.0, 1.0, 2.0, 3.0, 10.0], [1, 1, 2, 2, 2])
        query = iv.IntervalSeries(np.array([[1.2, 1.2]]))
        # K4 distances 2*(1.2 - v)^2: 2.88, 0.08, 1.28, 6.48, 154.88
        dists = [
            iv.series_dk_squared(query, s, K4) for s in ds.series()
        ]
        assert dists == pytest.approx([2.88, 0.08, 1.28, 6.48, 154.88])
        assert iv.knn_classify(ds, query, 1, K4) == 1
        assert iv.knn_classify(ds, query, 3, K4) == 1  # votes 1:2 vs 2:1
        assert iv.knn_classify(ds, query, 5, K4) == 2  # votes 1:2 vs 2:3

    def test_vote_tie_breaks_by_total_distance(self):
        ds = _one_step_dataset([1.0, 2.0], [1, 2])
        closer_to_two = iv.IntervalSeries(np.array([[1.6, 1.6]]))
        assert iv.knn_classify(ds, closer_to_two, 2, K4) == 2
        equidistant = iv.IntervalSeries(np.array([[1.5, 1.5]]))
        assert iv.knn_classify(ds, equidistant, 2, K4) == 1  # lowest class id

    def test_multivariate_sums_dimensions(self):
        def mv(v1, v2):
            return iv.MvIntervalSeries(np.array([[[v1, v1]], [[v2, v2]]], dtype=float))

        grids = np.stack([mv(0, 0).grid, mv(3, 3).grid])
        ds = iv.LabeledDataset(grids, [1, 2])
        # dim 1 favors class 2, dim 2 favors class 1; the sum favors class 1
        query = mv(2.0, 0.5)
        assert iv.knn_classify(ds, query, 1, K4) == 1

    def test_k_validation(self):
        ds = _one_step_dataset([0.0, 1.0], [1, 2])
        with pytest.raises(ValueError):
            iv.knn_classify(ds, ds.series()[0], 0, K4)
        with pytest.raises(ValueError):
            iv.knn_classify(ds, ds.series()[0], 3, K4)

    def test_length_mismatch(self):
        ds = _one_step_dataset([0.0, 1.0], [1, 2])
        query = iv.IntervalSeries(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(LengthMismatch):
            iv.knn_classify(ds, query, 1, K4)


class TestAccuracy:
    def test_values(self):
        assert iv.accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert iv.accuracy([1, 2], [2, 1]) == 0.0
        assert iv.accuracy([1, 2, 3, 1], [1, 2, 3, 2]) == 0.75

    def test_errors(self):
        with pytest.raises(EmptyInput):
            iv.accuracy([], [])
        with pytest.raises(LengthMismatch):
            iv.accuracy([1], [1, 2])


class TestModelSerialization:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(28)
        clf = random_in_cap_classifier(rng, 3, 5, c_A=0.9, c_B=0.3)
        path = tmp_path / "model.txt"
        iv.save_model(clf, "squared_hinge", path)
        loaded, kind = iv.load_model(path)
        assert kind == "squared_hinge"
        assert np.array_equal(loaded.weights, clf.weights)
        assert np.array_equal(loaded.biases, clf.biases)
        assert (loaded.c_A, loaded.c_B) == (clf.c_A, clf.c_B)
        header = path.read_text().splitlines()[0].split()
        assert header[:2] == ["3", "5"]

    def test_read_only_float64_kept_without_a_copy(self):
        w, b = np.zeros((2, 3)), np.zeros(2)
        for a in (w, b):
            a.setflags(write=False)
        clf = LinearClassifier(w, b)
        assert np.shares_memory(clf.weights, w) and np.shares_memory(clf.biases, b)

    @pytest.mark.parametrize("dtype,writeable", [(np.float64, True), (np.float32, True),
                                                 (np.int64, True), (np.float32, False)])
    def test_writable_or_other_dtype_copied(self, dtype, writeable):
        w, b = np.zeros((2, 3), dtype=dtype), np.zeros(2, dtype=dtype)
        for a in (w, b):
            a.setflags(write=writeable)
        clf = LinearClassifier(w, b)
        for stored, given in ((clf.weights, w), (clf.biases, b)):
            assert stored.dtype == np.float64 and not stored.flags.writeable
            assert not np.shares_memory(stored, given)
            given.setflags(write=True)
            given[...] = 1
            assert not stored.any()

    def test_trained_and_loaded_models_read_only(self, tmp_path):
        X, y = separable_two_class_features()
        path = tmp_path / "model.txt"
        iv.save_model(iv.train(X, y, steps=20), "hinge", path)
        for clf in (iv.train(X, y, steps=20), iv.train(X[:, [0, 1] * 20], y, steps=20),
                    iv.load_model(path)[0]):  # primal, dual (p > n) and loaded
            assert not clf.weights.flags.writeable and not clf.biases.flags.writeable

    def test_caps_enforced_at_construction(self):
        with pytest.raises(ValueError):
            LinearClassifier(np.array([[2.0, 0.0]]), np.zeros(1), c_A=1.0, c_B=1.0)
        with pytest.raises(ValueError):
            LinearClassifier(np.zeros((1, 2)), np.array([5.0]), c_A=1.0, c_B=1.0)
        with pytest.raises(ValueError, match=r"weights must be \(C, p\) and biases \(C,\)"):
            LinearClassifier(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="a classifier needs at least one class"):
            LinearClassifier(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("weights,biases,c_A,name", [
        ([[np.nan, 0.0], [0.0, 0.0]], [np.nan, 0.0], 1.0, "weights"),
        ([[0.0, 0.0], [0.0, 0.0]], [np.nan, 0.0], 1.0, "biases"),
        ([[np.inf, 0.0], [0.0, 0.0]], [0.0, 0.0], np.inf, "weights"),
    ], ids=["nan", "nan-bias", "inf-under-inf-cap"])
    def test_non_finite_rejected_by_name(self, tmp_path, weights, biases, c_A, name):
        # a NaN passes a `>` cap check and an inf passes an inf cap
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LinearClassifier(weights, biases, c_A=c_A)
        path = tmp_path / "model.txt"
        rows = [" ".join(repr(float(v)) for v in [*w, bias]) for w, bias in zip(weights, biases)]
        path.write_text(f"2 2 {c_A!r} 1.0 hinge\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            iv.load_model(path)

    @pytest.mark.parametrize("text", [
        "x 2 1.0 1.0 hinge\n0 0 0\n0 0 0\n",  # class count
        "2 -1 1.0 1.0 hinge\n0\n0\n",  # negative dimension
        "0 2 1.0 1.0 hinge\n",  # no class
        "2 2 one 1.0 hinge\n0 0 0\n0 0 0\n",  # cap
        "2 2 1.0 1.0 hinge\n0 x 0\n0 0 0\n",  # row value
        "2 2 1.0 1.0 hinge\n3 4 0\n0 0 0\n",  # row norm 5 over the cap
        "",  # empty file
        "2 2 1.0 1.0\n0 0 0\n0 0 0\n",  # 4-field header
        "2 2 1.0 1.0 hinge\n0 0 0\n",  # missing row
        "2 2 1.0 1.0 hinge\n0 0\n0 0 0\n",  # short row
    ], ids=["class-count", "negative-dim", "no-class", "cap", "row-value", "row-over-cap",
            "empty", "four-fields", "missing-row", "short-row"])
    def test_load_error_names_file_once(self, tmp_path, text):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            iv.load_model(path)
        assert str(err.value).count(str(path)) == 1

    @pytest.mark.parametrize("kind", ["", "my loss"])
    def test_save_refuses_unknown_kind(self, tmp_path, kind):
        """A kind that load_model could not read back is refused before the
        file is opened, so an existing file keeps its bytes."""
        clf = LinearClassifier(np.zeros((2, 1)), np.zeros(2))
        path = tmp_path / "model.txt"
        iv.save_model(clf, "hinge", path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="unknown auxiliary loss"):
            iv.save_model(clf, kind, path)
        assert path.read_bytes() == before
