"""Tests for interval values, kernels, and the quadratic-form distance."""

import math

import numpy as np
import pytest

import ivtskit as iv
from ivtskit.errors import LengthMismatch, NegativeSquaredDistance, NonFinite

A = iv.Interval(0.0, 2.0)
B = iv.Interval(1.0, 3.0)


def quadratic_form_oracle(a, b, k):
    """Independent evaluation: v^T K v with v = (dU, -dL)."""
    v = np.array([a.upper - b.upper, -(a.lower - b.lower)])
    K = np.array([[k.k_pp, k.k_pm], [k.k_pm, k.k_mm]])
    return float(v @ K @ v)


def random_interval(rng, scale=5.0):
    lo, up = rng.uniform(-scale, scale, size=2)
    return iv.Interval(lo, up)


class TestInterval:
    def test_center_range(self):
        assert A.center() == 1.0
        assert A.range() == 1.0
        assert iv.Interval(-3.0, 7.0).center() == 2.0
        assert iv.Interval(-3.0, 7.0).range() == 5.0

    def test_improper_interval_allowed(self):
        improper = iv.Interval(2.0, -1.0)
        assert improper.range() == -1.5

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            iv.Interval(float("nan"), 1.0)
        with pytest.raises(NonFinite):
            iv.Interval(0.0, float("inf"))

    def test_decompose(self):
        assert (A.center(), A.range()) == (1.0, 1.0)

    def test_compose_improper(self):
        center, range_ = 1.0, -0.5
        out = iv.IntervalSeries(np.array([[center - range_, center + range_]]))[0]
        assert (out.lower, out.upper) == (1.5, 0.5)
        assert (out.center(), out.range()) == (center, range_)

    def test_compose_roundtrip(self):
        x = iv.Interval(-3.0, 7.0)
        assert iv.Interval(x.center() - x.range(), x.center() + x.range()) == x

    def test_compose_nan(self):
        center, range_ = float("nan"), 1.0
        with pytest.raises(NonFinite):
            iv.IntervalSeries(np.array([[center - range_, center + range_]]))


class TestKernel:
    def test_presets(self):
        k1 = iv.kernel_preset("K1")
        assert (k1.k_pp, k1.k_pm, k1.k_mm) == (0.25, -0.25, 0.25)
        k4 = iv.kernel_preset("K4")
        assert np.array_equal(k4.as_matrix(), np.eye(2))
        k5 = iv.kernel_preset("K5")
        assert (k5.k_pp, k5.k_pm, k5.k_mm) == (2.0, 1.0, 1.0)

    def test_condition(self):
        assert iv.kernel_preset("K5").check_condition()  # 2*1 > 1
        assert iv.kernel_preset("K3").check_condition()
        assert iv.kernel_preset("K4").check_condition()
        # K1 and K2 sit exactly on the k_pp*k_mm == k_pm^2 boundary
        assert not iv.kernel_preset("K1").check_condition()
        assert not iv.kernel_preset("K2").check_condition()
        assert not iv.Kernel2x2(-1.0, 0.0, 1.0).check_condition()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            iv.kernel_preset("K9")

    def test_parse_kernel(self):
        assert iv.parse_kernel("k4") == iv.kernel_preset("K4")
        k = iv.parse_kernel("1,0.5,2")
        assert (k.k_pp, k.k_pm, k.k_mm) == (1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            iv.parse_kernel("1,2")
        with pytest.raises(ValueError):
            iv.parse_kernel("1,x,2")


class TestDkSquared:
    def test_identical_intervals(self):
        assert iv.dk_squared(A, A, iv.kernel_preset("K5")) == 0.0

    def test_center_kernel(self):
        # K1 reduces to the squared center difference: (1 - 2)^2 = 1
        assert iv.dk_squared(A, B, iv.kernel_preset("K1")) == pytest.approx(1.0)

    def test_range_kernel(self):
        # K2 reduces to 4 (dR)^2; both ranges are 1
        assert iv.dk_squared(A, B, iv.kernel_preset("K2")) == pytest.approx(0.0)

    def test_derived_values_match_matrix_oracle(self):
        expected = {"K3": 0.5, "K4": 2.0, "K5": 1.0}
        for name, want in expected.items():
            k = iv.kernel_preset(name)
            assert iv.dk_squared(A, B, k) == pytest.approx(want, abs=1e-12)
            assert quadratic_form_oracle(A, B, k) == pytest.approx(want, abs=1e-12)

    def test_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = random_interval(rng), random_interval(rng)
            k = iv.Kernel2x2(*rng.uniform(-2, 2, size=3))
            assert iv.dk_squared(a, b, k) == pytest.approx(
                quadratic_form_oracle(a, b, k), abs=1e-12
            )


class TestDkDistance:
    def test_zero_on_identical(self):
        assert iv.dk_distance(A, A, iv.kernel_preset("K4")) == 0.0

    def test_sqrt_of_quadratic_form(self):
        assert iv.dk_distance(A, B, iv.kernel_preset("K4")) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_indefinite_kernel_raises(self):
        # dU = dL = -1 gives 1 + 1 - 2*2 = -2 under this kernel
        k = iv.Kernel2x2(1.0, 2.0, 1.0)
        assert iv.dk_squared(A, B, k) == pytest.approx(-2.0)
        with pytest.raises(NegativeSquaredDistance):
            iv.dk_distance(A, B, k)

    def test_tiny_negative_rounding_clamped(self):
        assert iv.distance_from_squared(-1e-13) == 0.0


class TestSeriesDistance:
    def test_zero_on_identical(self):
        x = iv.IntervalSeries(np.array([[0.0, 2.0], [1.0, 3.0], [0.0, 2.0]]))
        assert iv.series_dk_squared(x, x, iv.kernel_preset("K3")) == 0.0

    def test_two_step_sum(self):
        x1 = iv.IntervalSeries(np.array([[0.0, 2.0], [0.0, 2.0]]))
        x2 = iv.IntervalSeries(np.array([[1.0, 3.0], [1.0, 3.0]]))
        # per-step center-difference of 1 each
        assert iv.series_dk_squared(x1, x2, iv.kernel_preset("K1")) == pytest.approx(2.0)

    def test_length_mismatch(self):
        x1 = iv.IntervalSeries(np.array([[0.0, 2.0]] * 3))
        x2 = iv.IntervalSeries(np.array([[1.0, 3.0]] * 2))
        with pytest.raises(LengthMismatch):
            iv.series_dk_squared(x1, x2, iv.kernel_preset("K1"))


class TestSeriesTypes:
    def test_series_accessors(self):
        x = iv.IntervalSeries(np.array([[0.0, 2.0], [1.0, 3.0]]))
        assert len(x) == 2
        assert x[1] == B
        assert list(x) == [A, B]
        assert np.array_equal(x.bounds[:, 0], [0.0, 1.0])
        assert np.array_equal(x.bounds[:, 1], [2.0, 3.0])

    def test_series_from_center_range(self):
        centers, ranges = np.array([1.0, 0.0]), np.array([1.0, -0.5])
        x = iv.IntervalSeries(np.stack([centers - ranges, centers + ranges], axis=-1))
        assert x[0] == iv.Interval(0.0, 2.0)
        assert x[1] == iv.Interval(0.5, -0.5)

    def test_series_immutable(self):
        x = iv.IntervalSeries(np.array([[0.0, 2.0], [1.0, 3.0]]))
        with pytest.raises(ValueError):
            x.bounds[0, 0] = 9.0

    def test_series_needs_one_step(self):
        with pytest.raises(ValueError):
            iv.IntervalSeries(np.empty((0, 2)))

    def test_mv_series(self):
        w = iv.MvIntervalSeries(np.array([[[0.0, 2.0], [1.0, 3.0]], [[1.0, 3.0], [0.0, 2.0]]]))
        assert w.d == 2
        assert len(w) == 2
        assert w.dimension(1)[0] == B
        assert w[0, 1] == B

    @staticmethod
    def build(shape, values):
        return (iv.IntervalSeries if len(shape) < 3 else iv.MvIntervalSeries)(values)

    @pytest.mark.parametrize("shape", [(4, 2), (3, 4, 2)])
    def test_read_only_float64_kept_without_a_copy(self, shape):
        bounds = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        bounds.setflags(write=False)
        stored = self.build(shape, bounds).grid
        assert np.shares_memory(stored, bounds) and not stored.flags.writeable

    @pytest.mark.parametrize("shape", [(4, 2), (3, 4, 2)])
    @pytest.mark.parametrize("dtype,writeable", [(np.float64, True), (np.float32, True),
                                                 (np.int64, True), (np.float32, False)])
    def test_writable_or_other_dtype_copied(self, shape, dtype, writeable):
        bounds = np.arange(np.prod(shape), dtype=dtype).reshape(shape)
        bounds.setflags(write=writeable)
        stored = self.build(shape, bounds).grid
        assert stored.dtype == np.float64 and not stored.flags.writeable
        assert not np.shares_memory(stored, bounds)
        bounds.setflags(write=True)
        bounds[...] = 7
        assert np.array_equal(stored.ravel(), np.arange(np.prod(shape)))

    def test_list_of_intervals_rejected(self):
        with pytest.raises(TypeError):
            iv.IntervalSeries([A, B])
        with pytest.raises(TypeError):
            iv.MvIntervalSeries([[A, B], [B, A]])

    @pytest.mark.parametrize("shape,message", [
        ((3,), r"^an interval series needs shape \(T, 2\) with T >= 1$"),
        ((3, 3), r"^an interval series needs shape \(T, 2\) with T >= 1$"),
        ((2, 3, 3), r"^a multivariate series needs shape \(d, T, 2\)$"),
        ((0, 3, 2), r"^a multivariate series needs d >= 1 and T >= 1$"),
        ((2, 0, 2), r"^a multivariate series needs d >= 1 and T >= 1$"),
    ])
    def test_shape_messages(self, shape, message):
        with pytest.raises(ValueError, match=message):
            self.build(shape, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4, 2), (3, 4, 2)])
    def test_non_finite_bounds_rejected(self, shape):
        bounds = np.zeros(shape)
        bounds[(1,) * len(shape)] = np.nan
        with pytest.raises(NonFinite, match="^interval series bounds must be finite$"):
            self.build(shape, bounds)


class TestQuadraticFormProperties:
    """Seeded random sweeps over the distance's algebraic identities."""

    N_PAIRS = 1500
    TOL = 1e-10

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(11)
        k5 = iv.kernel_preset("K5")
        for _ in range(self.N_PAIRS):
            a, b = random_interval(rng), random_interval(rng)
            assert iv.dk_squared(a, b, k5) == iv.dk_squared(b, a, k5)
            assert iv.dk_squared(a, a, k5) == 0.0

    def test_kernel_identities(self):
        rng = np.random.default_rng(13)
        k1, k2 = iv.kernel_preset("K1"), iv.kernel_preset("K2")
        k3, k4 = iv.kernel_preset("K3"), iv.kernel_preset("K4")
        for _ in range(self.N_PAIRS):
            a, b = random_interval(rng), random_interval(rng)
            dc = a.center() - b.center()
            dr = a.range() - b.range()
            du = a.upper - b.upper
            dl = a.lower - b.lower
            assert iv.dk_squared(a, b, k1) == pytest.approx(dc * dc, abs=self.TOL)
            assert iv.dk_squared(a, b, k2) == pytest.approx(4 * dr * dr, abs=self.TOL)
            mixed = 2 * (k3.k_pp + k3.k_pm) * dr * dr + 2 * (k3.k_pp - k3.k_pm) * dc * dc
            assert iv.dk_squared(a, b, k3) == pytest.approx(mixed, abs=self.TOL)
            assert iv.dk_squared(a, b, k4) == pytest.approx(du * du + dl * dl, abs=self.TOL)

    def test_presets_never_negative(self):
        rng = np.random.default_rng(17)
        kernels = [iv.kernel_preset(f"K{i}") for i in range(1, 6)]
        for _ in range(self.N_PAIRS):
            a, b = random_interval(rng), random_interval(rng)
            for k in kernels:
                iv.dk_distance(a, b, k)  # must not raise

    def test_translation_invariance(self):
        rng = np.random.default_rng(19)
        k5 = iv.kernel_preset("K5")
        for _ in range(self.N_PAIRS):
            a, b = random_interval(rng), random_interval(rng)
            c = rng.uniform(-10, 10)
            shifted_a = iv.Interval(a.lower + c, a.upper + c)
            shifted_b = iv.Interval(b.lower + c, b.upper + c)
            assert iv.dk_squared(shifted_a, shifted_b, k5) == pytest.approx(
                iv.dk_squared(a, b, k5), abs=self.TOL
            )

    def test_scaling(self):
        rng = np.random.default_rng(23)
        k3 = iv.kernel_preset("K3")
        for _ in range(self.N_PAIRS):
            a, b = random_interval(rng), random_interval(rng)
            s = rng.uniform(-3, 3)
            scaled_a = iv.Interval(s * a.lower, s * a.upper)
            scaled_b = iv.Interval(s * b.lower, s * b.upper)
            assert iv.dk_squared(scaled_a, scaled_b, k3) == pytest.approx(
                s * s * iv.dk_squared(a, b, k3), abs=self.TOL
            )
