"""Tests for the simulation generators and dataset builders."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ivtskit as iv
from ivtskit import cli
from ivtskit.dgp import (
    GAMMA,
    PHI,
    DgpConfig,
    _residual_cholesky,
    build_dgp_mix_dataset,
    split_indices,
)


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


class TestDgpConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DgpConfig(rho=1.2)
        with pytest.raises(ValueError, match="correlation"):
            DgpConfig(rho=float("nan"))
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

    def test_memory_is_bounded_by_the_output_not_by_L(self):
        """Two steps of 399,999 terms each: drawn whole, the terms and their
        product alone take 25.6 MB; in budgeted pieces the call stays within
        a few MB."""
        cfg = DgpConfig(rho=0.3, T=2, truncation_L=400_000)
        tracemalloc.start()
        try:
            out = iv.gen_dgp1(cfg, np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (2, 2) and np.isfinite(out).all()
        assert peak < 8_000_000


class TestDgp2:
    def test_zero_residuals_give_zero_series(self):
        cfg = DgpConfig(T=10, burn_in=5)
        out = iv.dgp._varma11(np.zeros((1, cfg.burn_in + cfg.T, 2)))[0, cfg.burn_in :]
        assert np.array_equal(out, np.zeros((10, 2)))

    def test_hand_unrolled_recursion(self):
        e1 = np.array([0.4, -0.2])
        e2 = np.array([-1.0, 0.5])
        out = iv.dgp._varma11(np.stack([e1, e2])[None])[0]
        x1 = e1
        x2 = PHI @ x1 + e2 - GAMMA @ e1
        assert np.allclose(out[0], x1, atol=1e-15)
        assert np.allclose(out[1], x2, atol=1e-15)

    def test_burn_in_discards_prefix(self):
        # both draw the same 12 residual pairs from the same stream
        full = iv.gen_dgp2(DgpConfig(rho=0.3, T=12, burn_in=0), np.random.default_rng(1))
        cut = iv.gen_dgp2(DgpConfig(rho=0.3, T=8, burn_in=4), np.random.default_rng(1))
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
    def test_zero_gamma_returns_residual_stream(self, monkeypatch):
        monkeypatch.setattr(iv.dgp, "GAMMA", np.zeros((2, 2)))
        cfg = DgpConfig(rho=0.3, T=20)
        out = iv.gen_dgp3(cfg, np.random.default_rng(2))
        assert np.array_equal(out, iv.sample_residuals(0.3, np.random.default_rng(2), 20))

    def test_hand_formula(self):
        e1, e2 = iv.sample_residuals(-0.5, np.random.default_rng(0), 2)
        out = iv.gen_dgp3(DgpConfig(rho=-0.5, T=2), np.random.default_rng(0))
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
    """Builders turn each (center, range) path into [center - range, center + range];
    the dgp 3 path of item 0 is replayed from its stream."""

    def test_unit_case(self):
        ds = iv.build_univariate_dataset(3, per_class_n=1, T=5, rho_grid=(0.7,))
        cr = iv.gen_dgp3(DgpConfig(rho=0.7, T=5), iv.dgp._item_rng(0, 0))
        assert ds.series()[0][0] == iv.Interval(cr[0, 0] - cr[0, 1], cr[0, 0] + cr[0, 1])

    def test_improper_permitted(self):
        ds = iv.build_univariate_dataset(3, per_class_n=1, T=40, rho_grid=(0.7,), seed=1)
        cr = iv.gen_dgp3(DgpConfig(rho=0.7, T=40), iv.dgp._item_rng(1, 0))
        improper = cr[:, 1] < 0
        lower, upper = ds.bounds[0, 0].T
        assert improper.any() and (lower[improper] > upper[improper]).all()

    def test_roundtrip_decompose(self):
        ds = iv.build_univariate_dataset(3, per_class_n=1, T=40, rho_grid=(0.7,), seed=2)
        cr = iv.gen_dgp3(DgpConfig(rho=0.7, T=40), iv.dgp._item_rng(2, 0))
        recovered = np.array([(x.center(), x.range()) for x in ds.series()[0]])
        assert np.allclose(recovered, cr, rtol=0, atol=1e-15)


class TestDatasetBuilders:
    def test_default_univariate_shape(self):
        # five classes, one per correlation, 500 items each
        ds = iv.build_univariate_dataset(3, seed=1)
        assert len(ds) == 2500
        assert ds.n_classes == 5
        assert np.array_equal(np.bincount(ds.label_ids), [0] + [500] * 5)
        assert len(ds.series()[0]) == 150

    def test_small_grid(self):
        ds = iv.build_univariate_dataset(2, per_class_n=2, T=12, rho_grid=(0.0, 0.5), seed=3)
        assert len(ds) == 4
        assert sorted(set(ds.labels())) == [1, 2]

    def test_invalid_dgp_id(self):
        with pytest.raises(ValueError):
            iv.build_univariate_dataset(4, per_class_n=1, T=5)
        with pytest.raises(ValueError, match="^rho_grid must be nonempty$"):
            iv.build_univariate_dataset(1, rho_grid=())

    def test_c1_shape(self):
        ds = iv.build_multivariate_c1(per_class_n=1, T=8, seed=0)
        assert ds.n_classes == 3
        assert len(ds) == 3
        assert ds.series()[0].d == 5

    def test_c2_shape(self):
        ds = iv.build_multivariate_c2(per_class_n=1, T=8, seed=0)
        assert ds.n_classes == 5
        assert len(ds) == 5
        assert ds.series()[0].d == 3

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
        assert not np.array_equal(ds.series()[0].bounds, ds.series()[1].bounds)


class TestSplit:
    def test_even_split(self):
        ds = iv.build_univariate_dataset(3, per_class_n=10, T=5, rho_grid=(0.0, 0.7), seed=6)
        train, test = iv.train_test_split(ds, 0.5, seed=1)
        assert np.array_equal(np.bincount(train.label_ids), [0, 5, 5])
        assert np.array_equal(np.bincount(test.label_ids), [0, 5, 5])

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


def _traced_load_peak(tmp_path, bounds, sidecar: bool) -> int:
    """The traced peak of `load_dataset_csv` on a saved dataset of `bounds`,
    read from its sidecar or, with the sidecar deleted, parsed."""
    path = tmp_path / "ds.csv"
    iv.save_dataset_csv(iv.LabeledDataset(bounds, np.arange(len(bounds)) % 3 + 1), path)
    if not sidecar:
        (tmp_path / "ds.csv.npz").unlink()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = iv.load_dataset_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.bounds, bounds)
    return peak


class TestCsvRoundTrip:
    def test_univariate(self, tmp_path):
        ds = iv.build_univariate_dataset(2, per_class_n=2, T=7, rho_grid=(0.0, 0.3), seed=12)
        path = tmp_path / "uni.csv"
        iv.save_dataset_csv(ds, path)
        loaded = iv.load_dataset_csv(path)
        assert len(loaded) == len(ds)
        assert loaded.labels() == ds.labels()
        for s1, s2 in zip(loaded.series(), ds.series()):
            assert np.array_equal(s1.bounds, s2.bounds)

    def test_multivariate(self, tmp_path):
        ds = iv.build_multivariate_c2(per_class_n=1, T=6, rho_grid=(0.0, 0.7), seed=13)
        path = tmp_path / "mv.csv"
        iv.save_dataset_csv(ds, path)
        loaded = iv.load_dataset_csv(path)
        assert loaded.labels() == ds.labels()
        for s1, s2 in zip(loaded.series(), ds.series()):
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

    def test_whitespace_line_costs_one_more_parse(self, tmp_path, monkeypatch):
        """A whitespace-only line fails the one-pass parse; the non-blank lines
        are then parsed in one more call, not one call per line."""
        ds = iv.build_univariate_dataset(2, per_class_n=2, T=7, rho_grid=(0.0, 0.3), seed=12)
        path = tmp_path / "ws.csv"
        iv.save_dataset_csv(ds, path)
        with open(path, "a") as fh:
            fh.write("   \n")
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        bounds, labels = iv.dgp._load_arrays(path)
        assert len(calls) <= 2
        assert np.array_equal(bounds, ds.bounds) and labels.tolist() == ds.labels()

    @pytest.mark.parametrize("tail", ["", "   \n"], ids=["clean", "whitespace-line"])
    def test_one_open_and_one_bulk_parse(self, tmp_path, monkeypatch, tail):
        """Without a sidecar the file is opened once, and its non-blank lines
        are parsed by one np.loadtxt call over that handle, not over the path."""
        ds = iv.build_univariate_dataset(2, per_class_n=2, T=7, rho_grid=(0.0, 0.3), seed=12)
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(ds, path)
        with open(path, "a") as fh:
            fh.write(tail)
        opened, parsed = [], []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parsed.append(a[0]) or loadtxt(*a, **k))
        monkeypatch.setattr(iv.dgp, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                            raising=False)
        bounds, labels = iv.dgp._load_arrays(path)
        assert opened == [path] and len(parsed) == 1
        assert not isinstance(parsed[0], (str, bytes, os.PathLike))
        assert np.array_equal(bounds, ds.bounds) and labels.tolist() == ds.labels()

    @pytest.mark.parametrize("row,message", [
        ("0,0,1,0.x,1.0,1", "malformed row '0,0,1,0.x,1.0,1'"),
        ("0,0,1,nan,1.0,1", "non-finite bound"),
        ("0,0,1,0.0,1.0,2", "item 0 has conflicting labels"),
        ("1,0,0,0.0,1.0,0", "label 0 is not a class id (1, 2, ...)"),
    ], ids=["malformed", "non-finite", "conflict", "label-0"])
    def test_bad_row_found_through_the_one_handle(self, tmp_path, monkeypatch, row, message):
        """The header is the first non-blank line, and a bad row's line is
        found by rewinding the open file, not by opening it again."""
        path = tmp_path / "bad.csv"
        path.write_text(f"\nitem,dim,t,lower,upper,label\n0,0,0,0.0,1.0,1\n \n{row}\n")
        opened = []
        monkeypatch.setattr(iv.dgp, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                            raising=False)
        with pytest.raises(iv.DataError) as err:
            iv.dgp._load_arrays(path)
        assert str(err.value) == f"{path}:5: {message}" and opened == [path]

    def test_traced_peak_of_a_sorted_file(self, tmp_path):
        """A file in (item, dim, t) order is parsed once into its rows, and
        the bounds are filled from them: no sort, no stacked copy."""
        bounds = np.random.default_rng(4).standard_normal((150, 5, 150, 2))  # mv-c1's shape
        assert _traced_load_peak(tmp_path, bounds, sidecar=False) <= 4.5 * bounds.nbytes

    def test_non_finite_bound_names_its_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "item,dim,t,lower,upper,label\n0,0,0,0.0,1.0,1\n\n0,0,1,nan,1.0,1\n"
        )
        with pytest.raises(ValueError, match=r"nan\.csv:4: non-finite bound"):
            iv.load_dataset_csv(path)


def _sidecar_dataset():
    """A dataset whose bounds include -0.0 and float64's extreme magnitudes."""
    bounds = np.random.default_rng(8).standard_normal((6, 2, 5, 2))
    extremes = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e-300, 0.1, 1 / 3]
    bounds.reshape(-1)[: len(extremes)] = extremes
    return iv.LabeledDataset(bounds, [1, 2, 3, 1, 2, 3])


def _parsed(path):
    """What `load_dataset_csv` returns for `path` with no sidecar: the
    dataset, or the DataError's message."""
    try:
        return iv.dgp.LabeledDataset(*iv.dgp._load_arrays(path))
    except ValueError as e:
        return str(e)


def _loaded(path):
    try:
        return iv.load_dataset_csv(path)
    except ValueError as e:
        return str(e)


def _same(a, b) -> bool:
    """Equal messages, or datasets equal bit for bit (so -0.0 is not 0.0)."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return (a.bounds.tobytes() == b.bounds.tobytes() and a.bounds.shape == b.bounds.shape
            and a.label_ids.tobytes() == b.label_ids.tobytes())


class TestSidecar:
    """save_dataset_csv writes `<path>.npz` beside the CSV; load_dataset_csv
    returns its arrays only while the CSV's bytes hash to its digest, and
    otherwise parses, with the parse's arrays and errors."""

    def test_hit_equals_parse_bit_for_bit(self, tmp_path, monkeypatch):
        ds = _sidecar_dataset()
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(ds, path)
        assert (tmp_path / "ds.csv.npz").is_file()
        parsed = _parsed(path)
        with monkeypatch.context() as mp:  # a hit parses nothing
            mp.setattr(iv.dgp, "_load_arrays", lambda path: pytest.fail("parsed"))
            hit = iv.load_dataset_csv(path)
        assert _same(hit, parsed) and _same(hit, ds)
        assert np.signbit(hit.bounds.reshape(-1)[0]) and not hit.bounds.flags.writeable
        assert hit.bounds.dtype == np.float64 and hit.label_ids.dtype == np.int64
        assert not hit.label_ids.flags.writeable and hit.bounds.flags.c_contiguous

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("0.1,", "0.2,", 1),  # one byte: another bound
        lambda text: text.replace("0.1,", "0.x,", 1),  # one byte: a malformed row
        lambda text: text[:-2] + "4\n",  # one byte: the last label
        lambda text: "\n".join([text.split("\n")[0], *text.split("\n")[1:][::-1]]),
        lambda text: text + "\n",
        lambda text: text.replace("\n", "\n\n", 3),
    ], ids=["bound", "malformed", "label", "reordered", "blank-end", "blank-lines"])
    def test_edited_csv_is_parsed(self, tmp_path, edit):
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(_sidecar_dataset(), path)
        text = path.read_text()
        path.write_text(edit(text))
        assert path.read_text() != text
        assert (tmp_path / "ds.csv.npz").is_file()
        assert _same(_loaded(path), _parsed(path))

    @pytest.mark.parametrize("damage", [
        "truncated", "empty", "not-a-zip", "missing-bounds", "missing-digest", "float32-bounds",
        "big-endian-bounds", "int32-labels", "bounds-shape", "labels-shape", "object-labels",
        "fortran-bounds", "zero-label", "nan-bound", "digest-dtype", "directory", "sha256-only",
    ])
    def test_damaged_sidecar_is_parsed(self, tmp_path, damage):
        """A sidecar that holds the CSV's digest but is damaged, or holds
        arrays no saved dataset has, gives the parse."""
        path = tmp_path / "ds.csv"
        ds = _sidecar_dataset()
        iv.save_dataset_csv(ds, path)
        sidecar = tmp_path / "ds.csv.npz"
        raw = sidecar.read_bytes()
        with np.load(sidecar) as z:
            arrays = {key: z[key] for key in z.files}
        other = np.full(ds.bounds.shape, 0.5)  # what a wrongly used sidecar would give
        nan = other.copy()
        nan[0, 0, 0, 0] = np.nan
        changes = {
            "missing-bounds": {"bounds": None},
            "missing-digest": {"blake2b": None},
            "float32-bounds": {"bounds": other.astype(np.float32)},
            "big-endian-bounds": {"bounds": other.astype(">f8")},
            "int32-labels": {"bounds": other, "label_ids": ds.label_ids.astype(np.int32)},
            "bounds-shape": {"bounds": other[:, :, :, :1]},
            "labels-shape": {"bounds": other, "label_ids": ds.label_ids[:-1]},
            "object-labels": {"bounds": other,
                              "label_ids": np.array(ds.label_ids.tolist(), dtype=object)},
            "fortran-bounds": {"bounds": np.asfortranarray(other)},
            "zero-label": {"bounds": other, "label_ids": ds.label_ids - 1},
            "nan-bound": {"bounds": nan},
            "digest-dtype": {"blake2b": arrays["blake2b"].astype(np.int64)},
            # the earlier format, which held the CSV's SHA-256
            "sha256-only": {"bounds": other, "blake2b": None,
                            "sha256": np.frombuffer(hashlib.sha256(path.read_bytes()).digest(),
                                                    np.uint8)},
        }
        if damage == "truncated":
            sidecar.write_bytes(raw[: len(raw) - 100])
        elif damage == "empty":
            sidecar.write_bytes(b"")
        elif damage == "not-a-zip":
            sidecar.write_bytes(b"\x93NUMPY" + raw[6:])
        elif damage == "directory":
            sidecar.unlink()
            sidecar.mkdir()
        else:
            arrays.update(changes[damage])
            with open(sidecar, "wb") as fh:
                np.savez(fh, **{k: v for k, v in arrays.items() if v is not None})
        assert _same(_loaded(path), ds)

    def test_sidecar_maps_no_openssl(self, tmp_path):
        """In a fresh interpreter, writing a dataset and reading it back from
        its sidecar import neither hashlib nor its OpenSSL module _hashlib."""
        probe = ("import sys\n"
                 "import numpy as np\n"
                 "from ivtskit import dgp\n"
                 "dgp.save_dataset_csv(dgp.LabeledDataset(np.zeros((2, 1, 3, 2)), [1, 2]), "
                 "sys.argv[1])\n"
                 "dgp._load_arrays = None  # a parse would fail: only a hit returns\n"
                 "dgp.load_dataset_csv(sys.argv[1])\n"
                 "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
        out = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "ds.csv")],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_no_blake2_no_sidecar(self, tmp_path, monkeypatch):
        """A Python built without _blake2 writes no sidecar and parses."""
        monkeypatch.setitem(sys.modules, "_blake2", None)  # its import raises ImportError
        path = tmp_path / "ds.csv"
        ds = _sidecar_dataset()
        iv.save_dataset_csv(ds, path)
        assert not (tmp_path / "ds.csv.npz").exists()
        assert _same(_loaded(path), ds)

    def test_traced_peak_of_a_sidecar_read(self, tmp_path):
        """A read from the sidecar holds little beside the bounds it returns."""
        bounds = np.random.default_rng(4).standard_normal((150, 5, 150, 2))  # mv-c1's shape
        assert _traced_load_peak(tmp_path, bounds, sidecar=True) <= 1.5 * bounds.nbytes

    def test_old_sidecar_removed_before_rewrite(self, tmp_path):
        """Saving over a dataset removes its sidecar first: a target that is
        not a regular file gets none, so no stale one is left."""
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(_sidecar_dataset(), path)
        assert (tmp_path / "ds.csv.npz").is_file()
        path.unlink()
        path.symlink_to(os.devnull)
        iv.save_dataset_csv(_sidecar_dataset(), path)
        assert not (tmp_path / "ds.csv.npz").exists()

    def test_unwritable_sidecar_is_left_out(self, tmp_path):
        """A sidecar path that cannot be written (here a non-empty directory)
        costs only the cache: the CSV is written and parsed."""
        path = tmp_path / "ds.csv"
        (tmp_path / "ds.csv.npz").mkdir()
        (tmp_path / "ds.csv.npz" / "keep").write_text("")
        ds = _sidecar_dataset()
        iv.save_dataset_csv(ds, path)
        assert (tmp_path / "ds.csv.npz" / "keep").is_file()
        assert _same(_loaded(path), ds)


class TestLabeledDataset:
    def test_label_range_enforced(self):
        bounds = iv.IntervalSeries(np.array([[0.0, 1.0]])).grid[None]
        for label in (0, -1):
            with pytest.raises(ValueError, match=rf"^label {label} is not a class id"):
                iv.LabeledDataset(bounds, [label])
        with pytest.raises(ValueError):
            iv.LabeledDataset(bounds[:0], [])
        two = np.concatenate([bounds, bounds])
        with pytest.raises(iv.LengthMismatch, match=r"^\(1,\) labels for 2 items$"):
            iv.LabeledDataset(two, [1])  # n - 1 labels
        with pytest.raises(iv.NonFinite, match="bounds must be finite"):
            iv.LabeledDataset(np.where(two == 1.0, np.nan, two), [1, 2])

    def test_writable_input_is_copied(self):
        """Writes through the caller's handle never reach the checked dataset."""
        b = np.zeros((1, 1, 3, 2))
        ds = iv.LabeledDataset(b, [1])
        s = ds.series()[0]
        b[0, 0, 0, 0] = np.nan
        assert s.bounds[0].tolist() == [0.0, 0.0]
        assert np.isfinite(ds.bounds).all()
        assert not np.shares_memory(ds.bounds, b)
        labels = np.ones(1, dtype=np.int64)
        ds = iv.LabeledDataset(np.zeros((1, 1, 3, 2)), labels)
        labels[0] = 0
        assert ds.labels() == [1] and not ds.label_ids.flags.writeable
        assert not np.shares_memory(ds.label_ids, labels)

    def test_series_are_views_of_one_array(self, tmp_path):
        bounds = np.arange(2 * 3 * 4 * 2, dtype=np.float64).reshape(2, 3, 4, 2)
        labels = np.array([1, 2])
        for a in (bounds, labels):
            a.setflags(write=False)
        ds = iv.LabeledDataset(bounds, labels)
        assert np.shares_memory(ds.bounds, bounds) and np.shares_memory(ds.label_ids, labels)
        assert not ds.bounds.flags.writeable
        for s, grid in zip(ds.series(), ds.bounds):
            assert np.shares_memory(s.grid, grid)
        uni = iv.LabeledDataset(bounds[:, :1], [1, 2])
        for s, grid in zip(uni.series(), uni.bounds):
            assert isinstance(s, iv.IntervalSeries)
            assert np.shares_memory(s.bounds, grid)
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(ds, path)
        loaded = iv.load_dataset_csv(path)
        assert np.shares_memory(loaded.series()[1].grid, loaded.bounds)
        assert np.array_equal(loaded.bounds, bounds)


K4 = iv.kernel_preset("K4")

ROUND_TRIP_BUILDS = {
    **{f"dgp{g}": lambda g=g: iv.build_univariate_dataset(g, 2, 12, (0.0, 0.7), seed=3)
       for g in (1, 2, 3)},
    "c1": lambda: iv.build_multivariate_c1(2, 12, seed=3),
    "c2": lambda: iv.build_multivariate_c2(2, 12, seed=3),
    "mix": lambda: build_dgp_mix_dataset(2, 12, seed=3),
    "c1-d1": lambda: iv.build_multivariate_c1(3, 10, rho_grid=[0.5]),
}


def _ingested(tmp_path, monkeypatch):
    """The dataset that `ingest` builds from two two-dimensional series, as
    it hands it to save_dataset_csv."""
    raw = tmp_path / "raw.csv"
    rows = ["series_id,dim,timestamp,value,label"]
    for sid, label in (("s1", "north"), ("s2", "south")):
        for day in range(1, 13):
            for dim, scale in (("temp", 1.5), ("wind", -0.5)):
                rows.append(f"{sid},{dim},2020-01-{day:02d}T06:00:00,{day * scale},{label}")
    raw.write_text("\n".join(rows) + "\n")
    built, save = [], iv.dgp.save_dataset_csv

    def keep(ds, path):
        built.append(ds)
        save(ds, path)

    with monkeypatch.context() as mp:
        mp.setattr(iv.dgp, "save_dataset_csv", keep)
        argv = ["ingest", "--input", str(raw), "--out", str(tmp_path / "ing.csv"), "--window", "4"]
        assert cli.main(argv) == 0
    return built[0]


class TestRoundTripGuard:
    """Loading a saved dataset gives it back: every field, the derived
    n_classes and multivariate, and each item's series type.  A field that
    the file cannot carry fails here at once."""

    @pytest.mark.parametrize("name", [*ROUND_TRIP_BUILDS, "ingest"])
    def test_load_of_save_is_the_dataset(self, tmp_path, monkeypatch, name):
        if name == "ingest":
            ds = _ingested(tmp_path, monkeypatch)
        else:
            ds = ROUND_TRIP_BUILDS[name]()
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(ds, path)
        for sidecar in (True, False):  # read from the sidecar, then parsed
            if not sidecar:
                (tmp_path / "ds.csv.npz").unlink()
            loaded = iv.load_dataset_csv(path)
            for field in dataclasses.fields(iv.LabeledDataset):
                assert np.array_equal(getattr(loaded, field.name), getattr(ds, field.name)), \
                    field.name
            assert (loaded.n_classes, loaded.multivariate) == (ds.n_classes, ds.multivariate)
            assert [type(s) for s in loaded.series()] == [type(s) for s in ds.series()]
            for query in loaded.series():
                iv.knn_classify(ds, query, 1, K4)

    def test_fields_are_the_two_arrays(self):
        assert [f.name for f in dataclasses.fields(iv.LabeledDataset)] == ["bounds", "label_ids"]
