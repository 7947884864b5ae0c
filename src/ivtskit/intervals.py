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

Series-level distances sum the per-step quadratic forms over T within each
dimension, then add the dimensions in index order from the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, NegativeSquaredDistance, NonFinite

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


def _read_only(values, dtype) -> np.ndarray:
    """`values` as a read-only array of `dtype`: kept without a copy when it is
    one already, copied otherwise, so later writes to the input never reach it.
    Every value type keeps the arrays it is handed by this rule."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _SeriesCore:
    """The read-only (d, T, 2) bounds grid both series types hold (d = 1 for an
    :class:`IntervalSeries`), with one finite check, ``len`` and ``==``."""

    __slots__ = ("_grid",)

    def __init__(self, grid: np.ndarray):
        if not np.all(np.isfinite(grid)):
            raise NonFinite("interval series bounds must be finite")
        self._grid = grid

    @property
    def grid(self) -> np.ndarray:
        """The (d, T, 2) bounds array; read-only."""
        return self._grid

    def __len__(self) -> int:
        return self._grid.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(self._grid, other._grid)


class IntervalSeries(_SeriesCore):
    """A length-T sequence of intervals: a read-only (T, 2) array of
    [lower, upper] bounds, kept without a copy when it is a read-only float64
    array and copied otherwise, and held as a (1, T, 2) grid."""

    __slots__ = ()

    def __init__(self, bounds: np.ndarray):
        arr = _read_only(bounds, np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError("an interval series needs shape (T, 2) with T >= 1")
        super().__init__(arr[None])

    @property
    def bounds(self) -> np.ndarray:
        """The (T, 2) [lower, upper] array; read-only, a view of the grid."""
        return self._grid[0]

    def __getitem__(self, t: int) -> Interval:
        lo, up = self._grid[0, t]
        return Interval(lo, up)

    def __iter__(self) -> Iterator[Interval]:
        for lo, up in self._grid[0]:
            yield Interval(lo, up)

    def __repr__(self) -> str:
        return f"IntervalSeries(T={len(self)})"


class MvIntervalSeries(_SeriesCore):
    """A d-dimensional interval series: a read-only (d, T, 2) grid of bounds,
    kept and copied as :class:`IntervalSeries` keeps and copies its array."""

    __slots__ = ()

    def __init__(self, grid: np.ndarray):
        arr = _read_only(grid, np.float64)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError("a multivariate series needs shape (d, T, 2)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("a multivariate series needs d >= 1 and T >= 1")
        super().__init__(arr)

    @property
    def d(self) -> int:
        return self._grid.shape[0]

    def dimension(self, j: int) -> IntervalSeries:
        return IntervalSeries(self._grid[j])

    def dimensions(self) -> tuple[IntervalSeries, ...]:
        return tuple(self.dimension(j) for j in range(self.d))

    def __getitem__(self, key: tuple[int, int]) -> Interval:
        j, t = key
        lo, up = self._grid[j, t]
        return Interval(lo, up)

    def __repr__(self) -> str:
        return f"MvIntervalSeries(d={self.d}, T={len(self)})"


def as_grid(series: IntervalSeries | MvIntervalSeries) -> np.ndarray:
    """The (d, T, 2) bounds of a series; a univariate series has d = 1."""
    return series.grid


def grid_dk_squared(g1: np.ndarray, g2: np.ndarray, k: Kernel2x2) -> np.ndarray:
    """Summed squared distances between broadcastable (..., d, T, 2) bound
    grids, of the broadcast shape (...): the quadratic form at each step, each
    dimension summed over T, then the dimensions added in index order starting
    from the first.  An overflow gives inf or NaN with numpy's warning."""
    dl = g1[..., 0] - g2[..., 0]
    du = g1[..., 1] - g2[..., 1]
    per_dim = (k.k_pp * du * du + k.k_mm * dl * dl - 2.0 * k.k_pm * dl * du).sum(axis=-1)
    dists = per_dim[..., 0]
    for j in range(1, per_dim.shape[-1]):
        dists = dists + per_dim[..., j]
    return dists


def series_dk_squared(x1: _SeriesCore, x2: _SeriesCore, k: Kernel2x2) -> float:
    """Squared kernel distance between two series of one d and one T, each an
    :class:`IntervalSeries` or an :class:`MvIntervalSeries`: the per-step forms
    summed over T, then over the dimensions in index order (:func:`grid_dk_squared`)."""
    (d1, t1, _), (d2, t2, _) = x1.grid.shape, x2.grid.shape
    if d1 != d2:
        raise DimensionMismatch(f"series dimensions differ: {d1} vs {d2}")
    if t1 != t2:
        raise LengthMismatch(f"series lengths differ: {t1} vs {t2}")
    return float(grid_dk_squared(x1.grid, x2.grid, k))
