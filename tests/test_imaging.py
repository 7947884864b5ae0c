"""Tests for trajectory extraction and recurrence imaging."""

import math
import re

import numpy as np
import pytest

import ivtskit as iv
from ivtskit.errors import DimensionMismatch, NegativeSquaredDistance, SeriesTooShort

K1 = iv.kernel_preset("K1")
K2 = iv.kernel_preset("K2")
K4 = iv.kernel_preset("K4")
K5 = iv.kernel_preset("K5")


def random_series(rng, t, scale=2.0):
    return iv.IntervalSeries(rng.uniform(-scale, scale, size=(t, 2)))


def naive_irp(series, eps, kernel):
    """Double-loop oracle for m=1, kappa=1 imaging."""
    n = len(series)
    px = np.zeros((n, n), dtype=np.uint8)
    for j in range(n):
        for k in range(n):
            d = iv.dk_distance(series[j], series[k], kernel)
            px[j, k] = 1 if eps - d >= 0 else 0
    return px


class TestTrajectoryConfig:
    def test_defaults(self):
        cfg = iv.TrajectoryConfig()
        assert (cfg.m, cfg.kappa) == (1, 1)
        assert cfg.epsilon == pytest.approx((math.pi / 18,))

    def test_validation(self):
        with pytest.raises(ValueError):
            iv.TrajectoryConfig(m=0)
        with pytest.raises(ValueError):
            iv.TrajectoryConfig(kappa=0)
        with pytest.raises(ValueError):
            iv.TrajectoryConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            iv.TrajectoryConfig(epsilon=())

    def test_epsilon_broadcast(self):
        assert iv.TrajectoryConfig(epsilon=0.5).epsilon == (0.5,)
        assert iv.TrajectoryConfig(epsilon=0.5).epsilon_for(3) == (0.5, 0.5, 0.5)
        assert iv.TrajectoryConfig(epsilon=(0.5,)).epsilon_for(2) == (0.5, 0.5)
        assert iv.TrajectoryConfig(epsilon=(0.1, 0.2)).epsilon_for(2) == (0.1, 0.2)
        with pytest.raises(DimensionMismatch):
            iv.TrajectoryConfig(epsilon=(0.1, 0.2)).epsilon_for(3)


class TestExtractTrajectories:
    """Trajectory j is (x[j], x[j + kappa], ...), seen through the image."""

    def test_m1_degenerates_to_points(self):
        rng = np.random.default_rng(0)
        x = random_series(rng, 150)
        img = iv.image_series(x, iv.TrajectoryConfig(m=1, kappa=1, epsilon=0.5), K5)
        assert img.n == 150
        assert np.array_equal(img.pixels, naive_irp(x, 0.5, K5))

    def test_enumerated_indices(self):
        # under K4 the trajectories (x0, x2), (x1, x3), (x2, x4) of x_t = [t^2, t^2 + 1]
        # lie sqrt(52) (pair 0, 1), sqrt(116) (1, 2) and sqrt(320) (0, 2) apart
        x = iv.IntervalSeries(np.array([[t * t, t * t + 1.0] for t in range(5)]))
        img = iv.image_series(x, iv.TrajectoryConfig(m=2, kappa=2, epsilon=9.0), K4)
        assert np.array_equal(img.pixels, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_too_short(self):
        x = iv.IntervalSeries(np.array([[t, t] for t in range(3)], dtype=float))
        with pytest.raises(SeriesTooShort):
            iv.image_series(x, iv.TrajectoryConfig(m=3, kappa=2), K4)


class TestTrajectoryDk:
    """The distance of a trajectory pair, read off pixel (0, 1) of the image of
    a series whose trajectories 0 and 1 they are."""

    def test_identical(self):
        x = iv.IntervalSeries(np.array([[0.0, 1.0]] * 2 + [[2.0, 3.0]] * 2))
        img = iv.image_series(x, iv.TrajectoryConfig(m=2, kappa=2, epsilon=0.0), K5)
        assert img.pixels[0, 1] == 1

    def test_m1_equals_interval_distance(self):
        x = iv.IntervalSeries(np.array([[0.0, 2.0], [1.0, 3.0]]))
        d = iv.dk_distance(x[0], x[1], K4)
        img = iv.image_series(x, iv.TrajectoryConfig(epsilon=d), K4)
        assert img.pixels[0, 1] == 1
        below = iv.TrajectoryConfig(epsilon=math.nextafter(d, 0.0))
        assert iv.image_series(x, below, K4).pixels[0, 1] == 0

    def test_two_unit_steps(self):
        # trajectories ([0, 2], [0, 2]) and ([1, 3], [1, 3]): each slot has a
        # center difference of 1 under K1
        x = iv.IntervalSeries(np.array([[0.0, 2.0], [1.0, 3.0]] * 2))
        d = math.sqrt(2.0)
        for eps, pixel in ((d, 1), (math.nextafter(d, 0.0), 0)):
            cfg = iv.TrajectoryConfig(m=2, kappa=2, epsilon=eps)
            assert iv.image_series(x, cfg, K1).pixels[0, 1] == pixel

    def test_negative_sum_raises(self):
        indefinite = iv.Kernel2x2(1.0, 2.0, 1.0)
        x = iv.IntervalSeries(np.array([[0.0, 2.0], [1.0, 3.0]]))
        with pytest.raises(NegativeSquaredDistance):
            iv.image_series(x, iv.TrajectoryConfig(), indefinite)


class TestHeaviside:
    def test_values(self):
        # the step H(eps - d) as the image applies it: H(0) = 1
        x = iv.IntervalSeries(np.array([[0.0, 0.0], [0.0, 0.5]]))
        for eps, pixel in ((1.0, 1), (0.5, 1), (0.3, 0)):
            assert iv.image_series(x, iv.TrajectoryConfig(epsilon=eps), K4).pixels[0, 1] == pixel


class TestIrp:
    def test_constant_series_all_ones(self):
        x = iv.IntervalSeries(np.array([[1.0, 2.0]] * 6))
        img = iv.image_series(x, iv.TrajectoryConfig(epsilon=0.0), K5)
        assert np.array_equal(img.pixels, np.ones((6, 6), dtype=np.uint8))

    def test_zero_epsilon_keeps_diagonal(self):
        rng = np.random.default_rng(1)
        x = random_series(rng, 8)
        img = iv.image_series(x, iv.TrajectoryConfig(epsilon=0.0), K4)
        assert np.array_equal(np.diag(img.pixels), np.ones(8, dtype=np.uint8))
        for j in range(8):
            for k in range(8):
                expected = 1 if iv.dk_distance(x[j], x[k], K4) == 0.0 else 0
                assert img.pixels[j, k] == expected

    def test_three_point_example(self):
        x = iv.IntervalSeries(np.array([[0.0, 1.0], [0.0, 1.0], [5.0, 9.0]]))
        img = iv.image_series(x, iv.TrajectoryConfig(epsilon=0.5), K4)
        assert np.array_equal(
            img.pixels, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        )
        # far pair distance is sqrt(25 + 64)
        assert iv.dk_distance(x[0], x[2], K4) == pytest.approx(math.sqrt(89.0))

    def test_propagates_too_short(self):
        x = iv.IntervalSeries(np.array([[0.0, 1.0]] * 3))
        with pytest.raises(SeriesTooShort):
            iv.image_series(x, iv.TrajectoryConfig(m=4, kappa=1), K4)

    def test_propagates_negative_squared(self):
        rng = np.random.default_rng(2)
        x = random_series(rng, 5)
        with pytest.raises(NegativeSquaredDistance):
            iv.image_series(x, iv.TrajectoryConfig(epsilon=0.5), iv.Kernel2x2(1.0, 2.0, 1.0))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = random_series(rng, int(rng.integers(2, 25)))
            eps = float(rng.uniform(0, 3))
            img = iv.image_series(x, iv.TrajectoryConfig(epsilon=eps), K5)
            assert np.array_equal(img.pixels, naive_irp(x, eps, K5))

    def test_invariants_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = int(rng.integers(5, 40))
            x = random_series(rng, t)
            m = int(rng.integers(1, 4))
            kappa = int(rng.integers(1, 3))
            if t - (m - 1) * kappa < 1:
                continue
            eps = float(rng.uniform(0, 2))
            img = iv.image_series(x, iv.TrajectoryConfig(m=m, kappa=kappa, epsilon=eps), K4).pixels
            assert img.shape == (t - (m - 1) * kappa,) * 2
            assert np.array_equal(img, img.T)
            assert np.isin(img, (0, 1)).all()
            assert np.array_equal(np.diag(img), np.ones(img.shape[0], dtype=np.uint8))

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = random_series(rng, 20)
            lo, hi = sorted(rng.uniform(0, 3, size=2))
            img_lo = iv.image_series(x, iv.TrajectoryConfig(epsilon=lo), K5).pixels
            img_hi = iv.image_series(x, iv.TrajectoryConfig(epsilon=hi), K5).pixels
            assert (img_hi >= img_lo).all()

    def test_kernel_degeneracy_center_and_range(self):
        # K1 reduces to a point recurrence plot of the centers; K2 with
        # threshold eps equals the point plot of the ranges at eps / 2.
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = random_series(rng, 15)
            eps = float(rng.uniform(0.1, 2.0))
            centers = (x.bounds[:, 0] + x.bounds[:, 1]) / 2.0
            ranges = (x.bounds[:, 1] - x.bounds[:, 0]) / 2.0
            center_rp = (
                np.abs(centers[:, None] - centers[None, :]) <= eps
            ).astype(np.uint8)
            range_rp = (
                np.abs(ranges[:, None] - ranges[None, :]) <= eps / 2.0
            ).astype(np.uint8)
            cfg = iv.TrajectoryConfig(epsilon=eps)
            assert np.array_equal(iv.image_series(x, cfg, K1).pixels, center_rp)
            assert np.array_equal(iv.image_series(x, cfg, K2).pixels, range_rp)

    def test_multi_step_trajectory_against_explicit_sum(self):
        rng = np.random.default_rng(7)
        x = random_series(rng, 12)
        cfg = iv.TrajectoryConfig(m=3, kappa=2, epsilon=4.0)
        img = iv.image_series(x, cfg, K5)
        assert img.n == 8
        assert 8 < img.pixels.sum() < 64
        for j in range(8):
            for k in range(8):
                q = sum(iv.dk_squared(x[j + 2 * s], x[k + 2 * s], K5) for s in range(3))
                assert img.pixels[j, k] == (math.sqrt(q) <= 4.0)


class TestIjrp:
    def test_single_dimension_equals_irp(self):
        rng = np.random.default_rng(8)
        x = random_series(rng, 10)
        w = iv.MvIntervalSeries(x.bounds[None])
        cfg = iv.TrajectoryConfig(epsilon=0.7)
        assert iv.image_series(w, cfg, K4) == iv.image_series(x, cfg, K4)

    def test_absorbing_zero_dimension(self):
        rng = np.random.default_rng(9)
        smooth = random_series(rng, 10, scale=0.01)
        jumps = iv.IntervalSeries(
            np.stack([np.arange(10) * 100.0, np.arange(10) * 100.0 + 1], axis=1)
        )
        w = iv.MvIntervalSeries(np.stack([smooth.bounds, jumps.bounds]))
        img = iv.image_series(w, iv.TrajectoryConfig(epsilon=0.5), K4).pixels
        off_diagonal = img[~np.eye(10, dtype=bool)]
        assert (off_diagonal == 0).all()

    def test_equals_product_of_dimensions(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            t = int(rng.integers(4, 20))
            dims = [random_series(rng, t) for _ in range(d)]
            eps = tuple(float(e) for e in rng.uniform(0.2, 2.0, size=d))
            cfg = iv.TrajectoryConfig(epsilon=eps)
            w = iv.MvIntervalSeries(np.stack([s.bounds for s in dims]))
            joint = iv.image_series(w, cfg, K5).pixels
            product = np.ones_like(joint)
            for j, dim_series in enumerate(dims):
                dim_cfg = iv.TrajectoryConfig(epsilon=eps[j])
                product = product * iv.image_series(dim_series, dim_cfg, K5).pixels
            assert np.array_equal(joint, product)
            per_dim_min = np.minimum.reduce(
                [
                    iv.image_series(s, iv.TrajectoryConfig(epsilon=eps[j]), K5).pixels
                    for j, s in enumerate(dims)
                ]
            )
            assert np.array_equal(joint, per_dim_min)

    def test_epsilon_vector_length_checked(self):
        rng = np.random.default_rng(11)
        w = iv.MvIntervalSeries(np.stack([random_series(rng, 6).bounds for _ in range(3)]))
        with pytest.raises(DimensionMismatch):
            iv.image_series(w, iv.TrajectoryConfig(epsilon=(0.1, 0.2)), K4)


class TestExport:
    def test_pgm_all_ones_bytes(self, tmp_path):
        img = iv.RecurrenceImage(np.ones((2, 2), dtype=np.uint8))
        path = tmp_path / "ones.pgm"
        iv.export_pgm(img, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + b"\xff" * 4

    def test_pgm_all_zeros_bytes(self, tmp_path):
        img = iv.RecurrenceImage(np.zeros((2, 2), dtype=np.uint8))
        path = tmp_path / "zeros.pgm"
        iv.export_pgm(img, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + b"\x00" * 4

    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        img = iv.RecurrenceImage(rng.integers(0, 2, size=(7, 7)))
        path = tmp_path / "img.pgm"
        iv.export_pgm(img, path)
        assert iv.load_pgm(path) == img

    @pytest.mark.parametrize("dims", [b"3 3", b"99999999999 99999999999"])
    def test_pgm_shorter_than_its_header_names_the_file(self, tmp_path, dims):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n" + b"\xff" * 4)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: a .* image needs "):
            iv.load_pgm(path)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        img = iv.RecurrenceImage(rng.integers(0, 2, size=(5, 5)))
        path = tmp_path / "img.csv"
        iv.export_csv(img, path)
        assert iv.load_csv_image(path) == img
        first_line = path.read_text().splitlines()[0]
        assert set(first_line) <= {"0", "1", ","}

    @pytest.mark.parametrize("entry", ["256", "-1", "9" * 30])
    def test_csv_entry_out_of_uint8_range_is_rejected(self, tmp_path, entry):
        """An entry that a uint8 cannot hold is not wrapped into range."""
        path = tmp_path / "img.csv"
        path.write_text(f"0,{entry}\n1,0\n")
        message = f"{path}: recurrence image entries must be 0 or 1"
        with pytest.raises(iv.DataError, match=rf"^{re.escape(message)}$"):
            iv.load_csv_image(path)


class TestBatchImaging:
    def test_image_series_dispatch(self):
        rng = np.random.default_rng(15)
        x = random_series(rng, 9)
        cfg = iv.TrajectoryConfig(epsilon=0.5)
        assert np.array_equal(iv.image_series(x, cfg, K4).pixels, naive_irp(x, 0.5, K4))
        w = iv.MvIntervalSeries(np.stack([x.bounds, x.bounds]))
        assert iv.image_series(w, cfg, K4) == iv.image_series(x, cfg, K4)

    @pytest.mark.parametrize("epsilon", [(0.5,), (0.5, 1.0, 2.0)])
    def test_each_threshold_computed_once_per_run(self, monkeypatch, epsilon):
        """50 items of 3 dimensions take at most one squared_threshold call per
        dimension, not one per item and dimension."""
        from ivtskit import imaging

        calls = []

        def counted(eps):
            calls.append(eps)
            return threshold(eps)

        threshold = imaging.squared_threshold
        monkeypatch.setattr(imaging, "squared_threshold", counted)
        grids = np.random.default_rng(16).standard_normal((50, 3, 8, 2))
        cfg = iv.TrajectoryConfig(epsilon=epsilon)
        images = [image.copy() for image in imaging.image_grids(grids, cfg, K4)]
        assert len(images) == 50 and len(calls) <= 3
        monkeypatch.setattr(imaging, "squared_threshold", threshold)
        assert all(np.array_equal(got, want)
                   for got, want in zip(images, imaging.image_grids(grids, cfg, K4)))


class TestRecurrenceImageType:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            iv.RecurrenceImage(np.full((3, 3), 2))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            iv.RecurrenceImage(np.ones((2, 3)))

    def test_pixels_read_only(self):
        img = iv.RecurrenceImage(np.ones((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 0

    def test_read_only_uint8_kept_without_a_copy(self):
        pixels = np.eye(3, dtype=np.uint8)
        pixels.setflags(write=False)
        assert np.shares_memory(iv.RecurrenceImage(pixels).pixels, pixels)

    @pytest.mark.parametrize("dtype,writeable", [(np.uint8, True), (bool, True), (bool, False),
                                                 (np.int64, False)])
    def test_writable_or_other_dtype_copied(self, dtype, writeable):
        pixels = np.eye(3, dtype=dtype)
        pixels.setflags(write=writeable)
        stored = iv.RecurrenceImage(pixels).pixels
        assert stored.dtype == np.uint8 and not stored.flags.writeable
        assert not np.shares_memory(stored, pixels)
        pixels.setflags(write=True)
        pixels[...] = 0
        assert np.array_equal(stored, np.eye(3))
