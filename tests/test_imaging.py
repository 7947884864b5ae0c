"""Tests for trajectory extraction and recurrence imaging."""

import math

import numpy as np
import pytest

import ivtskit as iv
from ivtskit.errors import (
    DimensionMismatch,
    LengthMismatch,
    NegativeSquaredDistance,
    SeriesTooShort,
)

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
        assert cfg.epsilon == pytest.approx(math.pi / 18)

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
        assert iv.TrajectoryConfig(epsilon=0.5).epsilon_for(3) == (0.5, 0.5, 0.5)
        assert iv.TrajectoryConfig(epsilon=(0.5,)).epsilon_for(2) == (0.5, 0.5)
        assert iv.TrajectoryConfig(epsilon=(0.1, 0.2)).epsilon_for(2) == (0.1, 0.2)
        with pytest.raises(DimensionMismatch):
            iv.TrajectoryConfig(epsilon=(0.1, 0.2)).epsilon_for(3)


class TestExtractTrajectories:
    def test_m1_degenerates_to_points(self):
        rng = np.random.default_rng(0)
        x = random_series(rng, 150)
        trajs = iv.extract_trajectories(x, iv.TrajectoryConfig(m=1, kappa=1))
        assert len(trajs) == 150
        assert all(len(t) == 1 for t in trajs)
        assert trajs[17][0] == x[17]

    def test_enumerated_indices(self):
        x = iv.IntervalSeries([iv.Interval(t, t + 1) for t in range(5)])
        trajs = iv.extract_trajectories(x, iv.TrajectoryConfig(m=2, kappa=2))
        assert trajs == [(x[0], x[2]), (x[1], x[3]), (x[2], x[4])]

    def test_too_short(self):
        x = iv.IntervalSeries([iv.Interval(t, t) for t in range(3)])
        with pytest.raises(SeriesTooShort):
            iv.extract_trajectories(x, iv.TrajectoryConfig(m=3, kappa=2))


class TestTrajectoryDk:
    def test_identical(self):
        traj = (iv.Interval(0, 1), iv.Interval(2, 3))
        assert iv.trajectory_dk(traj, traj, K5) == 0.0

    def test_m1_equals_interval_distance(self):
        a, b = iv.Interval(0, 2), iv.Interval(1, 3)
        assert iv.trajectory_dk((a,), (b,), K4) == iv.dk_distance(a, b, K4)

    def test_two_unit_steps(self):
        # each slot has a center difference of 1 under K1
        ta = (iv.Interval(0, 2), iv.Interval(0, 2))
        tb = (iv.Interval(1, 3), iv.Interval(1, 3))
        assert iv.trajectory_dk(ta, tb, K1) == pytest.approx(math.sqrt(2.0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            iv.trajectory_dk((iv.Interval(0, 1),), (iv.Interval(0, 1),) * 2, K4)

    def test_negative_sum_raises(self):
        indefinite = iv.Kernel2x2(1.0, 2.0, 1.0)
        with pytest.raises(NegativeSquaredDistance):
            iv.trajectory_dk((iv.Interval(0, 2),), (iv.Interval(1, 3),), indefinite)


class TestHeaviside:
    def test_values(self):
        assert iv.heaviside(0.5) == 1
        assert iv.heaviside(-0.2) == 0
        assert iv.heaviside(0.0) == 1  # at-threshold distances count as recurrent


class TestIrp:
    def test_constant_series_all_ones(self):
        x = iv.IntervalSeries([iv.Interval(1, 2)] * 6)
        img = iv.irp(x, iv.TrajectoryConfig(epsilon=0.0), K5)
        assert np.array_equal(img.pixels, np.ones((6, 6), dtype=np.uint8))

    def test_zero_epsilon_keeps_diagonal(self):
        rng = np.random.default_rng(1)
        x = random_series(rng, 8)
        img = iv.irp(x, iv.TrajectoryConfig(epsilon=0.0), K4)
        assert np.array_equal(np.diag(img.pixels), np.ones(8, dtype=np.uint8))
        for j in range(8):
            for k in range(8):
                expected = 1 if iv.dk_distance(x[j], x[k], K4) == 0.0 else 0
                assert img.pixels[j, k] == expected

    def test_three_point_example(self):
        x = iv.IntervalSeries([iv.Interval(0, 1), iv.Interval(0, 1), iv.Interval(5, 9)])
        img = iv.irp(x, iv.TrajectoryConfig(epsilon=0.5), K4)
        assert np.array_equal(
            img.pixels, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        )
        # far pair distance is sqrt(25 + 64)
        assert iv.dk_distance(x[0], x[2], K4) == pytest.approx(math.sqrt(89.0))

    def test_propagates_too_short(self):
        x = iv.IntervalSeries([iv.Interval(0, 1)] * 3)
        with pytest.raises(SeriesTooShort):
            iv.irp(x, iv.TrajectoryConfig(m=4, kappa=1), K4)

    def test_propagates_negative_squared(self):
        rng = np.random.default_rng(2)
        x = random_series(rng, 5)
        with pytest.raises(NegativeSquaredDistance):
            iv.irp(x, iv.TrajectoryConfig(epsilon=0.5), iv.Kernel2x2(1.0, 2.0, 1.0))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = random_series(rng, int(rng.integers(2, 25)))
            eps = float(rng.uniform(0, 3))
            img = iv.irp(x, iv.TrajectoryConfig(epsilon=eps), K5)
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
            img = iv.irp(x, iv.TrajectoryConfig(m=m, kappa=kappa, epsilon=eps), K4).pixels
            assert img.shape == (t - (m - 1) * kappa,) * 2
            assert np.array_equal(img, img.T)
            assert np.isin(img, (0, 1)).all()
            assert np.array_equal(np.diag(img), np.ones(img.shape[0], dtype=np.uint8))

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = random_series(rng, 20)
            lo, hi = sorted(rng.uniform(0, 3, size=2))
            img_lo = iv.irp(x, iv.TrajectoryConfig(epsilon=lo), K5).pixels
            img_hi = iv.irp(x, iv.TrajectoryConfig(epsilon=hi), K5).pixels
            assert (img_hi >= img_lo).all()

    def test_kernel_degeneracy_center_and_range(self):
        # K1 reduces to a point recurrence plot of the centers; K2 with
        # threshold eps equals the point plot of the ranges at eps / 2.
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = random_series(rng, 15)
            eps = float(rng.uniform(0.1, 2.0))
            centers = (x.lowers + x.uppers) / 2.0
            ranges = (x.uppers - x.lowers) / 2.0
            center_rp = (
                np.abs(centers[:, None] - centers[None, :]) <= eps
            ).astype(np.uint8)
            range_rp = (
                np.abs(ranges[:, None] - ranges[None, :]) <= eps / 2.0
            ).astype(np.uint8)
            cfg = iv.TrajectoryConfig(epsilon=eps)
            assert np.array_equal(iv.irp(x, cfg, K1).pixels, center_rp)
            assert np.array_equal(iv.irp(x, cfg, K2).pixels, range_rp)

    def test_multi_step_trajectory_against_explicit_sum(self):
        rng = np.random.default_rng(7)
        x = random_series(rng, 12)
        cfg = iv.TrajectoryConfig(m=3, kappa=2, epsilon=1.0)
        img = iv.irp(x, cfg, K5)
        trajs = iv.extract_trajectories(x, cfg)
        for j in range(len(trajs)):
            for k in range(len(trajs)):
                d = iv.trajectory_dk(trajs[j], trajs[k], K5)
                assert img.pixels[j, k] == iv.heaviside(1.0 - d)


class TestIjrp:
    def test_single_dimension_equals_irp(self):
        rng = np.random.default_rng(8)
        x = random_series(rng, 10)
        w = iv.MvIntervalSeries([x])
        cfg = iv.TrajectoryConfig(epsilon=0.7)
        assert iv.ijrp(w, cfg, K4) == iv.irp(x, cfg, K4)

    def test_absorbing_zero_dimension(self):
        rng = np.random.default_rng(9)
        smooth = random_series(rng, 10, scale=0.01)
        jumps = iv.IntervalSeries(
            np.stack([np.arange(10) * 100.0, np.arange(10) * 100.0 + 1], axis=1)
        )
        w = iv.MvIntervalSeries([smooth, jumps])
        img = iv.ijrp(w, iv.TrajectoryConfig(epsilon=0.5), K4).pixels
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
            joint = iv.ijrp(iv.MvIntervalSeries(dims), cfg, K5).pixels
            product = np.ones_like(joint)
            for j, dim_series in enumerate(dims):
                dim_cfg = iv.TrajectoryConfig(epsilon=eps[j])
                product = product * iv.irp(dim_series, dim_cfg, K5).pixels
            assert np.array_equal(joint, product)
            per_dim_min = np.minimum.reduce(
                [
                    iv.irp(s, iv.TrajectoryConfig(epsilon=eps[j]), K5).pixels
                    for j, s in enumerate(dims)
                ]
            )
            assert np.array_equal(joint, per_dim_min)

    def test_epsilon_vector_length_checked(self):
        rng = np.random.default_rng(11)
        w = iv.MvIntervalSeries([random_series(rng, 6) for _ in range(3)])
        with pytest.raises(DimensionMismatch):
            iv.ijrp(w, iv.TrajectoryConfig(epsilon=(0.1, 0.2)), K4)


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

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        img = iv.RecurrenceImage(rng.integers(0, 2, size=(5, 5)))
        path = tmp_path / "img.csv"
        iv.export_csv(img, path)
        assert iv.load_csv_image(path) == img
        first_line = path.read_text().splitlines()[0]
        assert set(first_line) <= {"0", "1", ","}


class TestBatchImaging:
    def test_thread_count_does_not_change_output(self):
        rng = np.random.default_rng(14)
        batch = [random_series(rng, 12) for _ in range(8)]
        cfg = iv.TrajectoryConfig(epsilon=0.8)
        sequential = iv.image_dataset(batch, cfg, K5, threads=1)
        threaded = iv.image_dataset(batch, cfg, K5, threads=4)
        assert all(a == b for a, b in zip(sequential, threaded))

    def test_worker_count_capped_by_work_units(self):
        from ivtskit.parallel import worker_count

        assert worker_count(10**6, 8) == 8
        assert worker_count(4, 8) == 4
        assert worker_count(None, 8) == 1
        assert worker_count(4, 0) == 1

    def test_image_series_dispatch(self):
        rng = np.random.default_rng(15)
        x = random_series(rng, 9)
        cfg = iv.TrajectoryConfig(epsilon=0.5)
        assert iv.image_series(x, cfg, K4) == iv.irp(x, cfg, K4)
        w = iv.MvIntervalSeries([x, x])
        assert iv.image_series(w, cfg, K4) == iv.ijrp(w, cfg, K4)


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
