"""Tests for the simulation generators and dataset builders."""

import math

import numpy as np
import pytest

import ivtskit as iv
from ivtskit.dgp import (
    GAMMA,
    PHI,
    DgpConfig,
    _residual_cholesky,
    build_dgp_mix_dataset,
    split_indices,
)
from ivtskit.errors import DimensionMismatch, LengthMismatch


class TestResiduals:
    def test_covariance_matrix(self):
        cov = iv.residual_covariance(0.7)
        assert np.allclose(cov, [[1.0, 0.35], [0.35, 0.25]])
        with pytest.raises(ValueError):
            iv.residual_covariance(1.5)

    def test_cholesky_matches_stated_factor(self):
        rho = 0.3
        L = _residual_cholesky(rho)
        assert np.allclose(L, [[1.0, 0.0], [rho / 2, math.sqrt(0.25 - rho**2 / 4)]])
        assert np.allclose(L @ L.T, iv.residual_covariance(rho))

    def test_independent_components_at_rho_zero(self):
        rng = np.random.default_rng(100)
        draws = iv.sample_residuals(0.0, rng, 100_000)
        cov = np.cov(draws.T)
        assert cov[0, 0] == pytest.approx(1.0, abs=0.02)
        assert cov[1, 1] == pytest.approx(0.25, abs=0.02)
        assert cov[0, 1] == pytest.approx(0.0, abs=0.02)

    def test_covariance_at_rho_07(self):
        rng = np.random.default_rng(101)
        draws = iv.sample_residuals(0.7, rng, 100_000)
        cov = np.cov(draws.T)
        assert cov[0, 1] == pytest.approx(0.35, abs=0.02)

    def test_deterministic_under_fixed_seed(self):
        a = iv.sample_residuals(0.5, np.random.default_rng(42), 100)
        b = iv.sample_residuals(0.5, np.random.default_rng(42), 100)
        assert np.array_equal(a, b)
        pair = iv.sample_residual(0.5, np.random.default_rng(42))
        assert pair == (a[0, 0], a[0, 1])


class TestDgpConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DgpConfig(rho=1.2)
        with pytest.raises(ValueError):
            DgpConfig(T=0)
        with pytest.raises(ValueError):
            DgpConfig(truncation_L=0)
        with pytest.raises(ValueError):
            DgpConfig(burn_in=-1)


class TestDgp1:
    def test_truncation_one_is_mean_plus_residual(self):
        # with L = 1 the only stochastic part is the residual stream, so the
        # output can be replayed exactly from the same seed
        cfg = DgpConfig(rho=0.3, T=50, truncation_L=1)
        out = iv.gen_dgp1(cfg, np.random.default_rng(7))
        mean = (1 / math.sqrt(3)) * (PHI @ np.ones(2))
        expected = mean + iv.sample_residuals(0.3, np.random.default_rng(7), 50)
        assert np.allclose(out, expected, atol=0, rtol=0)

    def test_coefficient_values(self):
        assert 1 / math.sqrt(3) == pytest.approx(0.57735, abs=1e-5)
        assert 1 / (4 * math.sqrt(3)) == pytest.approx(0.14434, abs=1e-5)

    def test_sample_mean(self):
        # only the deterministic first term survives in expectation:
        # mean = (0.1, 0.3) / sqrt(3)
        cfg = DgpConfig(rho=0.7, T=100_000, truncation_L=100)
        out = iv.gen_dgp1(cfg, np.random.default_rng(8))
        target = np.array([0.1, 0.3]) / math.sqrt(3)
        assert np.abs(out.mean(axis=0) - target).max() < 0.01

    def test_deterministic(self):
        cfg = DgpConfig(rho=-0.5, T=64, truncation_L=20)
        a = iv.gen_dgp1(cfg, np.random.default_rng(3))
        b = iv.gen_dgp1(cfg, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestDgp2:
    def test_zero_residuals_give_zero_series(self):
        cfg = DgpConfig(T=10, burn_in=5)
        out = iv.gen_dgp2(cfg, np.random.default_rng(0), residuals=np.zeros((15, 2)))
        assert np.array_equal(out, np.zeros((10, 2)))

    def test_hand_unrolled_recursion(self):
        e1 = np.array([0.4, -0.2])
        e2 = np.array([-1.0, 0.5])
        cfg = DgpConfig(T=2, burn_in=0)
        out = iv.gen_dgp2(cfg, np.random.default_rng(0), residuals=np.stack([e1, e2]))
        x1 = e1
        x2 = PHI @ x1 + e2 - GAMMA @ e1
        assert np.allclose(out[0], x1, atol=1e-15)
        assert np.allclose(out[1], x2, atol=1e-15)

    def test_burn_in_discards_prefix(self):
        eps = np.random.default_rng(1).standard_normal((12, 2))
        cfg_full = DgpConfig(T=12, burn_in=0)
        cfg_cut = DgpConfig(T=8, burn_in=4)
        full = iv.gen_dgp2(cfg_full, np.random.default_rng(0), residuals=eps)
        cut = iv.gen_dgp2(cfg_cut, np.random.default_rng(0), residuals=eps)
        assert np.allclose(full[4:], cut, atol=0)

    def test_autoregressive_matrix_is_stable(self):
        radius = max(abs(np.linalg.eigvals(PHI)))
        assert radius == pytest.approx(math.sqrt(0.05), abs=1e-12)
        assert radius < 1.0

    def test_weak_stationarity_after_burn_in(self):
        cfg = DgpConfig(rho=0.7, T=20_000, burn_in=200)
        out = iv.gen_dgp2(cfg, np.random.default_rng(9))
        half = len(out) // 2
        first, second = out[:half], out[half:]
        gap = np.abs(first.mean(axis=0) - second.mean(axis=0))
        se = np.sqrt(first.var(axis=0) / half + second.var(axis=0) / half)
        assert (gap < 5 * se).all()


class TestDgp3:
    def test_zero_gamma_returns_residual_stream(self):
        eps = np.random.default_rng(2).standard_normal((20, 2))
        cfg = DgpConfig(T=20)
        out = iv.gen_dgp3(cfg, np.random.default_rng(0), residuals=eps, gamma=np.zeros((2, 2)))
        assert np.array_equal(out, eps)

    def test_hand_formula(self):
        e1 = np.array([0.3, 0.7])
        e2 = np.array([-0.5, 0.1])
        cfg = DgpConfig(T=2)
        out = iv.gen_dgp3(cfg, np.random.default_rng(0), residuals=np.stack([e1, e2]))
        assert np.allclose(out[0], e1, atol=0)  # eps_0 = 0
        assert np.allclose(out[1], e2 - GAMMA @ e1, atol=1e-15)

    def test_lag_two_autocovariance_vanishes(self):
        cfg = DgpConfig(rho=0.7, T=100_000)
        out = iv.gen_dgp3(cfg, np.random.default_rng(10))
        centered = out - out.mean(axis=0)
        for comp in range(2):
            lag2 = np.mean(centered[2:, comp] * centered[:-2, comp])
            assert abs(lag2) < 0.02


class TestIntervalReconstruction:
    def test_unit_case(self):
        s = iv.to_interval_series(np.array([[1.0, 1.0]]))
        assert s[0] == iv.Interval(0.0, 2.0)

    def test_improper_permitted(self):
        s = iv.to_interval_series(np.array([[0.0, -0.5]]))
        assert s[0] == iv.Interval(0.5, -0.5)

    def test_roundtrip_decompose(self):
        cr = np.array([[1.5, -0.25], [0.0, 2.0]])
        s = iv.to_interval_series(cr)
        recovered = np.array([iv.decompose(x) for x in s])
        assert np.allclose(recovered, cr, atol=0)


class TestDatasetBuilders:
    def test_default_univariate_shape(self):
        # five classes, one per correlation, 500 items each
        ds = iv.build_univariate_dataset(3, seed=1)
        assert len(ds) == 2500
        assert ds.n_classes == 5
        assert ds.class_counts() == {c: 500 for c in range(1, 6)}
        assert len(ds.items[0][0]) == 150

    def test_small_grid(self):
        ds = iv.build_univariate_dataset(2, per_class_n=2, T=12, rho_grid=(0.0, 0.5), seed=3)
        assert len(ds) == 4
        assert sorted(set(ds.labels())) == [1, 2]

    def test_invalid_dgp_id(self):
        with pytest.raises(ValueError):
            iv.build_univariate_dataset(4, per_class_n=1, T=5)

    def test_c1_shape(self):
        ds = iv.build_multivariate_c1(per_class_n=1, T=8, seed=0)
        assert ds.n_classes == 3
        assert len(ds) == 3
        assert ds.items[0][0].d == 5

    def test_c2_shape(self):
        ds = iv.build_multivariate_c2(per_class_n=1, T=8, seed=0)
        assert ds.n_classes == 5
        assert len(ds) == 5
        assert ds.items[0][0].d == 3

    def test_mix_shape(self):
        ds = build_dgp_mix_dataset(per_class_n=2, T=10, rho=0.7, seed=0)
        assert ds.n_classes == 3
        assert len(ds) == 6

    def test_labels_contiguous(self):
        for ds in (
            iv.build_univariate_dataset(3, per_class_n=2, T=6, rho_grid=(0.0, 0.3, 0.7), seed=4),
            iv.build_multivariate_c1(per_class_n=2, T=6, seed=4),
            iv.build_multivariate_c2(per_class_n=2, T=6, seed=4),
        ):
            assert sorted(set(ds.labels())) == list(range(1, ds.n_classes + 1))

    def test_byte_identical_under_fixed_seed(self, tmp_path):
        a = iv.build_univariate_dataset(1, per_class_n=2, T=10, rho_grid=(0.0, 0.7), seed=11)
        b = iv.build_univariate_dataset(1, per_class_n=2, T=10, rho_grid=(0.0, 0.7), seed=11)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        iv.save_dataset_csv(a, pa)
        iv.save_dataset_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_items_differ(self):
        ds = iv.build_univariate_dataset(3, per_class_n=2, T=10, rho_grid=(0.7,), seed=5)
        assert not np.array_equal(ds.items[0][0].bounds, ds.items[1][0].bounds)


class TestSplit:
    def test_even_split(self):
        ds = iv.build_univariate_dataset(3, per_class_n=10, T=5, rho_grid=(0.0, 0.7), seed=6)
        train, test = iv.train_test_split(ds, 0.5, seed=1)
        assert train.class_counts() == {1: 5, 2: 5}
        assert test.class_counts() == {1: 5, 2: 5}

    def test_exact_partition(self):
        ds = iv.build_univariate_dataset(3, per_class_n=7, T=5, rho_grid=(0.0, 0.7), seed=6)
        train_idx, test_idx = split_indices(ds.labels(), 0.8, seed=2)
        assert sorted(train_idx + test_idx) == list(range(len(ds)))
        assert not set(train_idx) & set(test_idx)

    def test_eighty_twenty_counts(self):
        labels = [1] * 500 + [2] * 500
        train_idx, test_idx = split_indices(labels, 0.8, seed=0)
        assert len(train_idx) == 800
        assert len(test_idx) == 200

    def test_same_seed_same_split(self):
        labels = [1] * 20 + [2] * 20
        assert split_indices(labels, 0.75, seed=9) == split_indices(labels, 0.75, seed=9)
        assert split_indices(labels, 0.75, seed=9) != split_indices(labels, 0.75, seed=10)

    def test_small_class_rejected(self):
        ds = iv.build_univariate_dataset(3, per_class_n=1, T=5, rho_grid=(0.0, 0.7), seed=6)
        with pytest.raises(ValueError):
            iv.train_test_split(ds, 0.5, seed=0)

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            split_indices([1, 1, 2, 2], 1.0, seed=0)


class TestCsvRoundTrip:
    def test_univariate(self, tmp_path):
        ds = iv.build_univariate_dataset(2, per_class_n=2, T=7, rho_grid=(0.0, 0.3), seed=12)
        path = tmp_path / "uni.csv"
        iv.save_dataset_csv(ds, path)
        loaded = iv.load_dataset_csv(path)
        assert len(loaded) == len(ds)
        assert loaded.labels() == ds.labels()
        for (s1, _), (s2, _) in zip(loaded.items, ds.items):
            assert np.array_equal(s1.bounds, s2.bounds)

    def test_multivariate(self, tmp_path):
        ds = iv.build_multivariate_c2(per_class_n=1, T=6, rho_grid=(0.0, 0.7), seed=13)
        path = tmp_path / "mv.csv"
        iv.save_dataset_csv(ds, path)
        loaded = iv.load_dataset_csv(path)
        assert loaded.labels() == ds.labels()
        for (s1, _), (s2, _) in zip(loaded.items, ds.items):
            assert np.array_equal(s1.grid, s2.grid)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError):
            iv.load_dataset_csv(path)

    @pytest.mark.parametrize("last_row", ["1,0,0,0.0,1.0,2", "0,1,0,0.0,1.0,1"],
                             ids=["items", "dimensions"])
    def test_rejects_ragged_lengths(self, tmp_path, last_row):
        # item 0 dim 0 has T = 2; the last row starts a group with T = 1
        path = tmp_path / "ragged.csv"
        rows = ["item,dim,t,lower,upper,label", "0,0,0,0.0,1.0,1", "0,0,1,0.0,1.0,1", last_row]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError) as err:
            iv.load_dataset_csv(path)
        assert str(err.value) == f"{path}: items disagree on series length T: [1, 2]"

    def test_rejects_conflicting_labels(self, tmp_path):
        path = tmp_path / "conflict.csv"
        path.write_text(
            "item,dim,t,lower,upper,label\n0,0,0,0.0,1.0,1\n0,0,1,0.0,1.0,2\n"
        )
        with pytest.raises(ValueError):
            iv.load_dataset_csv(path)


    def test_non_finite_bound_names_its_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "item,dim,t,lower,upper,label\n0,0,0,0.0,1.0,1\n\n0,0,1,nan,1.0,1\n"
        )
        with pytest.raises(ValueError, match=r"nan\.csv:4: non-finite bound"):
            iv.load_dataset_csv(path)


class TestLabeledDataset:
    def test_label_range_enforced(self):
        s = iv.IntervalSeries([iv.Interval(0, 1)])
        with pytest.raises(ValueError):
            iv.LabeledDataset(((s, 3),), n_classes=2)
        with pytest.raises(ValueError):
            iv.LabeledDataset((), n_classes=1)

    def test_shape_errors_raise_at_construction(self):
        def uni(T):
            return iv.IntervalSeries(np.zeros((T, 2)))

        def mv(d, T):
            return iv.MvIntervalSeries(np.zeros((d, T, 2)))

        with pytest.raises(LengthMismatch):
            iv.LabeledDataset(((uni(3), 1), (uni(4), 1)), n_classes=1)
        with pytest.raises(DimensionMismatch):
            iv.LabeledDataset(((uni(3), 1), (mv(1, 3), 1)), n_classes=1)
        with pytest.raises(DimensionMismatch):
            iv.LabeledDataset(((mv(2, 3), 1), (mv(3, 3), 1)), n_classes=1)

    def test_series_are_views_of_one_array(self, tmp_path):
        bounds = np.arange(2 * 3 * 4 * 2, dtype=np.float64).reshape(2, 3, 4, 2)
        ds = iv.LabeledDataset.from_arrays(bounds, [1, 2], 2, multivariate=True)
        assert np.shares_memory(ds.bounds, bounds)
        assert not ds.bounds.flags.writeable
        for s, grid in zip(ds.series(), ds.bounds):
            assert np.shares_memory(s.grid, grid)
        uni = iv.LabeledDataset.from_arrays(bounds[:, :1], [1, 2], 2, multivariate=False)
        for s, grid in zip(uni.series(), uni.bounds):
            assert isinstance(s, iv.IntervalSeries)
            assert np.shares_memory(s.bounds, grid)
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(ds, path)
        loaded = iv.load_dataset_csv(path)
        assert np.shares_memory(loaded.series()[1].grid, loaded.bounds)
        assert np.array_equal(loaded.bounds, bounds)
