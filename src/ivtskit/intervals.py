"""Interval values, symmetric 2x2 kernels, and the quadratic-form distance.

An interval ``A = [lower, upper]`` can equally be written through its center
``(lower + upper) / 2`` and range ``(upper - lower) / 2``.  The squared
distance between two intervals under a symmetric kernel ``K`` on ``{+1, -1}``
is the quadratic form

    k_pp * (dU)^2 + k_mm * (dL)^2 - 2 * k_pm * dL * dU

with ``dU`` and ``dL`` the upper- and lower-bound differences.  Different
kernels reduce this to familiar special cases: squared center difference,
four times the squared range difference, a weighted mix of both, or the sum
of the squared bound differences.  Indefinite kernels are allowed; a negative
quadratic form only becomes an error when a square root is actually taken.

Series-level distances sum the per-step quadratic forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import LengthMismatch, NegativeSquaredDistance, NonFinite

#: Absolute tolerance absorbing float rounding before a square root.
NEGATIVE_TOLERANCE = 1e-12


def _require_finite(what: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFinite(f"{what} must be finite, got {v!r}")


@dataclass(frozen=True)
class Interval:
    """One interval-valued observation stored as raw lower/upper bounds.

    Improper intervals (lower > upper) are deliberately allowed: the
    simulation generators draw Gaussian ranges, which can be negative, and
    the quadratic-form distance is well defined on raw bounds either way.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        _require_finite("interval bounds", self.lower, self.upper)

    def center(self) -> float:
        return (self.lower + self.upper) / 2.0

    def range(self) -> float:
        return (self.upper - self.lower) / 2.0


def decompose(a: Interval) -> tuple[float, float]:
    """Return the (center, range) representation of an interval."""
    return a.center(), a.range()


def compose(center: float, range_: float) -> Interval:
    """Build the interval [center - range, center + range].

    A negative range yields an improper interval, which is permitted.
    """
    center = float(center)
    range_ = float(range_)
    _require_finite("center/range", center, range_)
    return Interval(center - range_, center + range_)


@dataclass(frozen=True)
class Kernel2x2:
    """Symmetric 2x2 kernel: symmetry is structural, one off-diagonal stored."""

    k_pp: float  # K(+1, +1)
    k_pm: float  # K(+1, -1) == K(-1, +1)
    k_mm: float  # K(-1, -1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_pp", float(self.k_pp))
        object.__setattr__(self, "k_pm", float(self.k_pm))
        object.__setattr__(self, "k_mm", float(self.k_mm))
        _require_finite("kernel entries", self.k_pp, self.k_pm, self.k_mm)

    def check_condition(self) -> bool:
        """True when the kernel is positive definite: k_pp > 0 and k_pp*k_mm > k_pm^2."""
        return self.k_pp > 0.0 and self.k_pp * self.k_mm > self.k_pm**2

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.k_pp, self.k_pm], [self.k_pm, self.k_mm]])


#: The five built-in kernels; K1..K4 use one representative aspect of the
#: interval (center, range, mixed, bounds), K5 is positive definite.
KERNEL_PRESETS: dict[str, Kernel2x2] = {
    "K1": Kernel2x2(0.25, -0.25, 0.25),
    "K2": Kernel2x2(1.0, 1.0, 1.0),
    "K3": Kernel2x2(0.5, 0.25, 0.5),
    "K4": Kernel2x2(1.0, 0.0, 1.0),
    "K5": Kernel2x2(2.0, 1.0, 1.0),
}


def kernel_preset(name: str) -> Kernel2x2:
    """Look up one of the built-in kernels K1..K5 by name."""
    try:
        return KERNEL_PRESETS[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown kernel preset {name!r}; expected one of {sorted(KERNEL_PRESETS)}"
        ) from None


def parse_kernel(text: str) -> Kernel2x2:
    """Parse a kernel literal: a preset name or a "k_pp,k_pm,k_mm" triple."""
    text = text.strip()
    if text.upper() in KERNEL_PRESETS:
        return KERNEL_PRESETS[text.upper()]
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(
            f"kernel literal {text!r} is neither a preset nor a k_pp,k_pm,k_mm triple"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"kernel literal {text!r} has a non-numeric entry") from None
    return Kernel2x2(*values)


def dk_squared(a: Interval, b: Interval, k: Kernel2x2) -> float:
    """Squared kernel distance between two intervals.

    May be negative when the kernel is indefinite; callers that need a real
    distance go through :func:`dk_distance`.
    """
    du = a.upper - b.upper
    dl = a.lower - b.lower
    return k.k_pp * du * du + k.k_mm * dl * dl - 2.0 * k.k_pm * dl * du


def distance_from_squared(q: float) -> float:
    """sqrt of a squared distance, raising once negativity exceeds tolerance."""
    if q < -NEGATIVE_TOLERANCE:
        raise NegativeSquaredDistance(
            f"squared distance {q} is negative beyond tolerance {NEGATIVE_TOLERANCE}; "
            "the kernel is indefinite on these inputs"
        )
    return math.sqrt(q) if q > 0.0 else 0.0


def dk_distance(a: Interval, b: Interval, k: Kernel2x2) -> float:
    """Kernel distance between two intervals (nonnegative real)."""
    return distance_from_squared(dk_squared(a, b, k))


def pointwise_dk_squared(b1: np.ndarray, b2: np.ndarray, k: Kernel2x2) -> np.ndarray:
    """Vectorized quadratic form on broadcastable (..., 2) bound arrays."""
    dl = b1[..., 0] - b2[..., 0]
    du = b1[..., 1] - b2[..., 1]
    return k.k_pp * du * du + k.k_mm * dl * dl - 2.0 * k.k_pm * dl * du


class IntervalSeries:
    """A length-T sequence of intervals backed by a read-only (T, 2) array."""

    __slots__ = ("_bounds",)

    def __init__(self, values: Iterable[Interval] | np.ndarray):
        if isinstance(values, np.ndarray):
            arr = np.array(values, dtype=np.float64)
        else:
            arr = np.array(
                [[v.lower, v.upper] for v in values], dtype=np.float64
            ).reshape(-1, 2)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError("an interval series needs shape (T, 2) with T >= 1")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("interval series bounds must be finite")
        arr.setflags(write=False)
        self._bounds = arr

    @classmethod
    def from_bounds(cls, lower, upper) -> "IntervalSeries":
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if lower.shape != upper.shape:
            raise LengthMismatch("lower and upper bound arrays differ in shape")
        return cls(np.stack([lower, upper], axis=-1))

    @classmethod
    def from_center_range(cls, centers, ranges) -> "IntervalSeries":
        centers = np.asarray(centers, dtype=np.float64)
        ranges = np.asarray(ranges, dtype=np.float64)
        if centers.shape != ranges.shape:
            raise LengthMismatch("center and range arrays differ in shape")
        return cls(np.stack([centers - ranges, centers + ranges], axis=-1))

    @property
    def bounds(self) -> np.ndarray:
        """The (T, 2) [lower, upper] array; read-only."""
        return self._bounds

    @property
    def lowers(self) -> np.ndarray:
        return self._bounds[:, 0]

    @property
    def uppers(self) -> np.ndarray:
        return self._bounds[:, 1]

    def __len__(self) -> int:
        return self._bounds.shape[0]

    def __getitem__(self, t: int) -> Interval:
        lo, up = self._bounds[t]
        return Interval(lo, up)

    def __iter__(self) -> Iterator[Interval]:
        for lo, up in self._bounds:
            yield Interval(lo, up)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSeries):
            return NotImplemented
        return np.array_equal(self._bounds, other._bounds)

    def __repr__(self) -> str:
        return f"IntervalSeries(T={len(self)})"


class MvIntervalSeries:
    """A d-dimensional interval series: a (d, T, 2) grid of bounds."""

    __slots__ = ("_grid",)

    def __init__(self, rows):
        if isinstance(rows, np.ndarray):
            arr = np.array(rows, dtype=np.float64)
            if arr.ndim != 3 or arr.shape[2] != 2:
                raise ValueError("a multivariate series needs shape (d, T, 2)")
        else:
            series = list(rows)
            if not series:
                raise ValueError("a multivariate series needs at least one dimension")
            lengths = {len(s) for s in series}
            if len(lengths) != 1:
                raise LengthMismatch(
                    f"all dimensions must share one length, got {sorted(lengths)}"
                )
            arr = np.stack([s.bounds for s in series], axis=0)
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("a multivariate series needs d >= 1 and T >= 1")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("interval series bounds must be finite")
        arr.setflags(write=False)
        self._grid = arr

    @property
    def d(self) -> int:
        return self._grid.shape[0]

    @property
    def grid(self) -> np.ndarray:
        """The (d, T, 2) bounds array; read-only."""
        return self._grid

    def __len__(self) -> int:
        return self._grid.shape[1]

    def dimension(self, j: int) -> IntervalSeries:
        return IntervalSeries(self._grid[j])

    def dimensions(self) -> tuple[IntervalSeries, ...]:
        return tuple(self.dimension(j) for j in range(self.d))

    def __getitem__(self, key: tuple[int, int]) -> Interval:
        j, t = key
        lo, up = self._grid[j, t]
        return Interval(lo, up)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MvIntervalSeries):
            return NotImplemented
        return np.array_equal(self._grid, other._grid)

    def __repr__(self) -> str:
        return f"MvIntervalSeries(d={self.d}, T={len(self)})"


def as_grid(series: IntervalSeries | MvIntervalSeries) -> np.ndarray:
    """The (d, T, 2) bounds of a series; a univariate series has d = 1."""
    if isinstance(series, MvIntervalSeries):
        return series.grid
    return series.bounds[None]


def from_grid(grid: np.ndarray, multivariate: bool) -> IntervalSeries | MvIntervalSeries:
    """The series whose :func:`as_grid` is `grid`, sharing it without a copy or
    a check: `grid` must be read-only, finite and (d, T, 2), d = 1 unless
    `multivariate`."""
    if multivariate:
        series = MvIntervalSeries.__new__(MvIntervalSeries)
        series._grid = grid
    else:
        series = IntervalSeries.__new__(IntervalSeries)
        series._bounds = grid[0]
    return series


def series_dk_squared(x1: IntervalSeries, x2: IntervalSeries, k: Kernel2x2) -> float:
    """Summed per-step squared kernel distance between equal-length series."""
    if len(x1) != len(x2):
        raise LengthMismatch(f"series lengths differ: {len(x1)} vs {len(x2)}")
    return float(pointwise_dk_squared(x1.bounds, x2.bounds, k).sum())
