"""Tests for the risk-bound calculators and the offset Rademacher estimator."""

import math
import re

import numpy as np
import pytest

import ivtskit as iv


def offset_bound(**overrides):
    """offset_rademacher_bound at unit caps, n = 100, logN = 10 and varrho = 1/8,
    with `overrides` replacing any of them."""
    base = dict(ell=1.0, c_A=1.0, c_B=1.0, c_Z=1.0, n=100, log_covering=10.0, varrho=0.125)
    base.update(overrides)
    return iv.offset_rademacher_bound(**base)


class TestLipschitzConstants:
    def test_stated_values(self):
        assert iv.lipschitz_constant("hinge") == 1.0
        assert iv.lipschitz_constant("squared_hinge") == 2.0
        assert iv.lipschitz_constant("exponential") == 1.0

    def test_unknown(self):
        with pytest.raises(ValueError):
            iv.lipschitz_constant("huber")


class TestGBounds:
    def test_worked_example(self):
        assert iv.g_bounds(1.0, 2.0, 1.0, 3.0) == (14.0, 28.0)

    def test_unit_caps(self):
        assert iv.g_bounds(1.0, 1.0, 1.0, 1.0) == (4.0, 8.0)

    def test_linear_in_ell(self):
        single, pair = iv.g_bounds(1.0, 1.5, 0.5, 2.0)
        single2, pair2 = iv.g_bounds(2.0, 1.5, 0.5, 2.0)
        assert (single2, pair2) == (2 * single, 2 * pair)

    def test_pair_is_twice_single(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ell, ca, cz, cb = rng.uniform(0.1, 3.0, size=4)
            single, pair = iv.g_bounds(ell, c_A=ca, c_B=cb, c_Z=cz)
            assert pair == 2.0 * single

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            iv.g_bounds(0.0, 1.0, 1.0, 1.0)


class TestOffsetBound:
    def test_hand_value(self):
        # (1 + 10) / (2 * (1/8) * 100) + 8 * (1 + (1/8) * 8) = 0.44 + 16
        assert offset_bound() == pytest.approx(16.44, abs=1e-12)

    def test_large_n_limit(self):
        bound = offset_bound(log_covering=0.0, n=10**12)
        assert bound == pytest.approx(16.0, abs=1e-9)

    def test_doubling_n_halves_first_term(self):
        second_term = 8.0 * (1.0 + 0.125 * 8.0)
        b1 = offset_bound(n=100)
        b2 = offset_bound(n=200)
        assert (b1 - second_term) == pytest.approx(2.0 * (b2 - second_term), rel=1e-15)

    def test_unique_interior_minimum_in_varrho(self):
        grid = np.logspace(-4, 1, 61)
        values = [offset_bound(varrho=float(v)) for v in grid]
        best = int(np.argmin(values))
        assert 0 < best < len(grid) - 1
        diffs = np.sign(np.diff(values))
        # strictly decreasing then strictly increasing
        switch = np.where(diffs > 0)[0]
        assert switch.size > 0
        first_up = switch[0]
        assert (diffs[:first_up] < 0).all()
        assert (diffs[first_up:] > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            offset_bound(n=0)
        with pytest.raises(ValueError):
            offset_bound(log_covering=-1.0)
        with pytest.raises(ValueError):
            offset_bound(varrho=0.0)

    @pytest.mark.parametrize("name", ["ell", "c_A", "c_B", "c_Z", "varrho", "log_covering"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            offset_bound(**{name: value})

    @pytest.mark.parametrize("bad, name", [
        ({"c_Z": math.inf, "varrho": 0.0}, "c_Z must be"),
        ({"varrho": 0.0, "n": 0}, "varrho must be"),
        ({"n": 0, "log_covering": -1.0}, "sample count n"),
        ({"ell": 1e308, "c_A": 1e308, "log_covering": -1.0}, "log_covering must be"),
    ])
    def test_inputs_checked_in_order(self, bad, name):
        """ell, c_A, c_B, c_Z, varrho, then n, then log_covering, then g."""
        with pytest.raises(ValueError, match=f"^{name}"):
            offset_bound(**bad)

    @pytest.mark.parametrize("name", ["ell", "c_A", "c_B", "c_Z"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_caps_named_before_varrho(self, name, value):
        args = {"ell": 1.0, "c_A": 1.0, "c_B": 1.0, "c_Z": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            iv.optimal_varrho(**args)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            iv.g_bounds(**args)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            iv.excess_risk_bound(n=10, log_covering=1.0, **args)

    @pytest.mark.parametrize("args", [
        {"ell": 1e308, "c_A": 1e308, "c_B": 1.0, "c_Z": 1.0},
        {"ell": 1.0, "c_A": 1e200, "c_B": 1.0, "c_Z": 1e200},
        {"ell": 1.0, "c_A": 1.0, "c_B": 1e308, "c_Z": 1.0},
    ])
    def test_overflowing_g_names_ell_and_the_caps(self, args):
        """Finite inputs whose g = 4 ell (c_A c_Z + c_B) overflows: no varrho of
        0.0 and no infinite g bounds."""
        named = re.escape(", ".join(f"{k}={v!r}" for k, v in args.items()))
        with pytest.raises(ValueError, match=f"overflows at {named}$"):
            iv.optimal_varrho(**args)
        with pytest.raises(ValueError, match=f"overflows at {named}$"):
            iv.g_bounds(**args)
        with pytest.raises(ValueError, match=f"overflows at {named}$"):
            iv.excess_risk_bound(n=10, log_covering=1.0, **args)

    def test_largest_finite_g_passes(self):
        # g = 4 * 2**1021 * (1 + 1) = 2**1024 overflows; 2**1020 does not
        ell = 2.0 ** 1020 / 8
        assert iv.optimal_varrho(ell, 1.0, 1.0, 1.0) == 2.0 ** -1020
        assert iv.g_bounds(ell, 1.0, 1.0, 1.0) == (2.0 ** 1019, 2.0 ** 1020)
        with pytest.raises(ValueError, match="overflows"):
            iv.g_bounds(2.0 ** 1021, 1.0, 1.0, 1.0)


class TestExcessRiskBound:
    def test_hand_value(self):
        got = iv.excess_risk_bound(1.0, 1.0, 1.0, 1.0, 100, 10.0)
        assert got == pytest.approx(65.76, abs=1e-9)

    def test_fixed_varrho(self):
        assert iv.optimal_varrho(1.0, 1.0, 1.0, 1.0) == 0.125
        assert iv.optimal_varrho(2.0, 1.0, 1.0, 1.0) == 0.0625

    def test_monotone_in_n(self):
        values = [
            iv.excess_risk_bound(1.0, 1.0, 1.0, 1.0, n, 10.0)
            for n in (1, 10, 100, 1000, 10**6)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_log_covering(self):
        values = [
            iv.excess_risk_bound(1.0, 1.0, 1.0, 1.0, 100, c)
            for c in (0.0, 1.0, 5.0, 25.0, 125.0)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestEmpiricalOffsetRademacher:
    def test_degenerate_class_is_exactly_zero(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 3))
        est = iv.empirical_offset_rademacher(X, 0.0, 0.0, varrho=1.0, mc_draws=16)
        assert est.value == 0.0

    def test_nonnegative_by_construction(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((12, 4))
        est = iv.empirical_offset_rademacher(X, 0.5, 0.5, varrho=0.7, mc_draws=32)
        assert est.value >= 0.0

    def test_single_point_closed_form(self):
        # n=1, ||z||=1, c_A=1, c_B=0, varrho=1: each draw's supremum is
        # max_{s in [-1,1]} s - s^2 = 1/4 regardless of the sign.
        z = np.zeros((1, 3))
        z[0, 0] = 1.0
        est = iv.empirical_offset_rademacher(z, 1.0, 0.0, varrho=1.0, mc_draws=256)
        assert est.value == pytest.approx(0.25, abs=0.05)
        assert est.mc_draws == 256

    def test_bias_only_grid_oracle(self):
        # all-zero features reduce the class to f = b; the per-draw supremum
        # is max_{|b| <= c_B} mean(tau) b - varrho b^2, found by grid search.
        n, c_B, varrho, seed, draws = 5, 1.0, 0.5, 3, 64
        X = np.zeros((n, 2))
        est = iv.empirical_offset_rademacher(
            X, 1.0, c_B, varrho=varrho, mc_draws=draws, seed=seed
        )
        grid = np.linspace(-c_B, c_B, 20001)
        oracle_values = []
        for i in range(draws):
            rng = np.random.default_rng([seed, i])
            tau = rng.integers(0, 2, size=n) * 2.0 - 1.0
            s = tau.mean()
            oracle_values.append(float(np.max(s * grid - varrho * grid**2)))
        assert est.value == pytest.approx(float(np.mean(oracle_values)), abs=1e-6)

    def test_thread_count_does_not_change_value(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 5))
        one = iv.empirical_offset_rademacher(X, 1.0, 1.0, 0.5, mc_draws=32, threads=1)
        four = iv.empirical_offset_rademacher(X, 1.0, 1.0, 0.5, mc_draws=32, threads=4)
        assert one.value == four.value

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 3))
        a = iv.empirical_offset_rademacher(X, 1.0, 0.5, 0.25, mc_draws=16, seed=7)
        b = iv.empirical_offset_rademacher(X, 1.0, 0.5, 0.25, mc_draws=16, seed=7)
        assert a.value == b.value

    def test_validation(self):
        with pytest.raises(ValueError):
            iv.empirical_offset_rademacher(np.zeros((2, 2)), 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            iv.empirical_offset_rademacher(np.zeros((0, 2)), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            iv.empirical_offset_rademacher(np.zeros((2, 2)), -1.0, 1.0, 1.0)
        for caps in ((math.inf, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                iv.empirical_offset_rademacher(np.zeros((2, 2)), *caps, 1.0)
        with pytest.raises(ValueError, match="^varrho must be finite"):
            iv.empirical_offset_rademacher(np.zeros((2, 2)), 1.0, 1.0, math.inf)
        with pytest.raises(ValueError, match="^mc_draws must be >= 1$"):
            iv.RademacherEstimate(0.1, 0, 1)


class TestBoundConsistencyWithClassifier:
    def test_surrogate_difference_never_exceeds_pair_bound(self):
        # ties the calculator to the classifier module: random in-cap
        # hinge-loss draws stay below 4 ell (c_A c_Z + c_B)
        from test_classify import random_capped_feature, random_in_cap_classifier

        rng = np.random.default_rng(6)
        _, pair = iv.g_bounds(1.0, 1.0, 1.0, 1.0)
        for _ in range(1000):
            f1 = random_in_cap_classifier(rng, 3, 4)
            f2 = random_in_cap_classifier(rng, 3, 4)
            z = random_capped_feature(rng, 4)
            y = int(rng.integers(1, 4))
            gap = abs(iv.empirical_phi_risk(f1, [z], [y], "hinge")
                      - iv.empirical_phi_risk(f2, [z], [y], "hinge"))
            assert gap <= pair + 1e-12
