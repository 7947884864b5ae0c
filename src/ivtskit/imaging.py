"""Binary recurrence imaging of interval-valued time series.

A series of length T yields ``N = T - (m - 1) * kappa`` delay trajectories of
length ``m`` with time delay ``kappa``.  Pixel (j, k) of the image is 1
exactly when the kernel distance between trajectories j and k is at most the
threshold; the step function uses the recurrence convention H(0) = 1, so a
distance exactly at threshold counts as recurrent.  Every image is therefore
square, binary, symmetric, and all-ones on the diagonal for a nonnegative
threshold.

Multivariate series are imaged one dimension at a time and the per-dimension
images are combined with an elementwise product, which on binary images is a
logical AND.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IvtsError,
    LengthMismatch,
    NegativeSquaredDistance,
    SeriesTooShort,
)
from .intervals import (
    NEGATIVE_TOLERANCE,
    Interval,
    IntervalSeries,
    Kernel2x2,
    MvIntervalSeries,
    as_grid,
    dk_squared,
    distance_from_squared,
    pointwise_dk_squared,
)
from .parallel import parallel_map

#: Default recurrence threshold.
DEFAULT_EPSILON = math.pi / 18.0


@dataclass(frozen=True)
class TrajectoryConfig:
    """Delay-embedding and threshold parameters for recurrence imaging.

    ``epsilon`` is a single threshold broadcast to every dimension, or a
    tuple with one threshold per dimension of a multivariate series.
    """

    m: int = 1
    kappa: int = 1
    epsilon: float | tuple[float, ...] = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"trajectory length m must be a positive integer, got {self.m}")
        if int(self.kappa) != self.kappa or self.kappa < 1:
            raise ValueError(f"time delay kappa must be a positive integer, got {self.kappa}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "kappa", int(self.kappa))
        eps = self.epsilon
        if isinstance(eps, (tuple, list, np.ndarray)):
            eps = tuple(float(e) for e in eps)
            if not eps:
                raise ValueError("epsilon tuple must be nonempty")
        else:
            eps = float(eps)
        values = eps if isinstance(eps, tuple) else (eps,)
        for e in values:
            if not math.isfinite(e) or e < 0.0:
                raise ValueError(f"epsilon must be finite and >= 0, got {e}")
        object.__setattr__(self, "epsilon", eps)

    def num_trajectories(self, series_length: int) -> int:
        n = series_length - (self.m - 1) * self.kappa
        if n < 1:
            raise SeriesTooShort(
                f"series of length {series_length} is too short for m={self.m}, "
                f"kappa={self.kappa}; need T >= {(self.m - 1) * self.kappa + 1}"
            )
        return n

    def epsilon_for(self, d: int) -> tuple[float, ...]:
        """Per-dimension thresholds: broadcast a scalar, validate a vector."""
        if isinstance(self.epsilon, tuple):
            if len(self.epsilon) == 1:
                return self.epsilon * d
            if len(self.epsilon) != d:
                raise DimensionMismatch(
                    f"{len(self.epsilon)} thresholds given for {d} dimensions"
                )
            return self.epsilon
        return (self.epsilon,) * d


class RecurrenceImage:
    """Square binary image backed by a read-only (N, N) uint8 array."""

    __slots__ = ("_pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("a recurrence image must be square and nonempty")
        if arr.dtype != bool and not ((arr == 0) | (arr == 1)).all():
            raise ValueError("recurrence image entries must be 0 or 1")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self._pixels = arr

    @property
    def pixels(self) -> np.ndarray:
        return self._pixels

    @property
    def n(self) -> int:
        return self._pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecurrenceImage):
            return NotImplemented
        return np.array_equal(self._pixels, other._pixels)

    def __repr__(self) -> str:
        return f"RecurrenceImage(n={self.n})"


def extract_trajectories(
    x: IntervalSeries, cfg: TrajectoryConfig
) -> list[tuple[Interval, ...]]:
    """All delay trajectories of x: trajectory j is (x[j], x[j+kappa], ...)."""
    n = cfg.num_trajectories(len(x))
    return [
        tuple(x[j + s * cfg.kappa] for s in range(cfg.m)) for j in range(n)
    ]


def trajectory_dk(
    ta: Sequence[Interval], tb: Sequence[Interval], k: Kernel2x2
) -> float:
    """Distance between equal-length trajectories: sqrt of summed per-slot forms."""
    if len(ta) != len(tb):
        raise LengthMismatch(f"trajectory lengths differ: {len(ta)} vs {len(tb)}")
    q = sum(dk_squared(a, b, k) for a, b in zip(ta, tb))
    return distance_from_squared(q)


def heaviside(x: float) -> int:
    """Step function with H(0) = 1."""
    return 1 if x >= 0 else 0


def irp(x: IntervalSeries, cfg: TrajectoryConfig, kernel: Kernel2x2) -> RecurrenceImage:
    """Image a univariate series: pixel (j, k) = H(epsilon - d(traj_j, traj_k))."""
    return image_series(x, cfg, kernel)


def ijrp(w: MvIntervalSeries, cfg: TrajectoryConfig, kernel: Kernel2x2) -> RecurrenceImage:
    """Image a multivariate series: AND of the per-dimension recurrence images."""
    return image_series(w, cfg, kernel)


def image_series(series, cfg: TrajectoryConfig, kernel: Kernel2x2) -> RecurrenceImage:
    """Image a series of d >= 1 dimensions: the AND over dimensions i of
    H(epsilon_i - d(traj_j, traj_k)) at pixel (j, k)."""
    grids = as_grid(series)
    out = None
    for bounds, eps in zip(grids, cfg.epsilon_for(grids.shape[0])):
        # (N, N) summed quadratic forms between all trajectory pairs
        n = cfg.num_trajectories(len(bounds))
        point = pointwise_dk_squared(bounds[:, None, :], bounds[None, :, :], kernel)
        dk2 = point[:n, :n].copy()
        for s in range(1, cfg.m):
            o = s * cfg.kappa
            dk2 += point[o : o + n, o : o + n]
        low = float(dk2.min())
        if low < -NEGATIVE_TOLERANCE:
            raise NegativeSquaredDistance(
                f"squared trajectory distance {low} is negative beyond tolerance; "
                "the kernel is indefinite on this series"
            )
        img = np.sqrt(np.maximum(dk2, 0.0)) <= eps
        out = img if out is None else out & img
    return RecurrenceImage(out)


def image_dataset(
    series_list, cfg: TrajectoryConfig, kernel: Kernel2x2, threads: int = 1, first: int = 0
) -> list[RecurrenceImage]:
    """Image a batch of observations.

    Imaging is pure and embarrassingly parallel across observations; output
    order always matches input order regardless of thread count.  A failure
    is re-raised as the same error type tagged with the item's index, counted
    from `first`.
    """

    def one(pair):
        i, series = pair
        try:
            return image_series(series, cfg, kernel)
        except IvtsError as e:
            raise type(e)(f"item {i}: {e}") from e

    return parallel_map(one, enumerate(series_list, first), threads)


def export_pgm(img: RecurrenceImage, path) -> None:
    """Write a binary (P5, maxval 255) greymap: pixel value = 255 * entry."""
    header = f"P5\n{img.n} {img.n}\n255\n".encode("ascii")
    payload = (img.pixels * np.uint8(255)).tobytes()
    Path(path).write_bytes(header + payload)


def load_pgm(path) -> RecurrenceImage:
    """Read a binary image previously written by :func:`export_pgm`."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError(f"{path}: not a binary P5 greymap")
    dims = parts[1].split()
    if len(dims) != 2:
        raise ValueError(f"{path}: malformed P5 dimension line")
    width, height = int(dims[0]), int(dims[1])
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    data = np.frombuffer(parts[3], dtype=np.uint8, count=width * height)
    return RecurrenceImage((data > 0).astype(np.uint8).reshape(height, width))


def export_csv(img: RecurrenceImage, path) -> None:
    """Write the image as N rows of comma-separated 0/1 entries."""
    # Row j is the 2N bytes "v,v,...,v\n": the entries at even offsets, a
    # comma or the newline at odd ones.
    text = np.full((img.n, 2 * img.n), ord(","), dtype=np.uint8)
    text[:, ::2] = img.pixels + ord("0")
    text[:, -1] = ord("\n")
    Path(path).write_bytes(text.tobytes())


def load_csv_image(path) -> RecurrenceImage:
    """Read an image previously written by :func:`export_csv`."""
    raw = Path(path).read_bytes()
    n_lines = raw.count(b"\n")
    if n_lines and len(raw) % n_lines == 0 and len(raw) // n_lines % 2 == 0:
        # The layout export_csv writes, read in one pass: rows of equal width
        # with a 0/1 at even offsets and commas, then a newline, at odd ones.
        text = np.frombuffer(raw, dtype=np.uint8).reshape(n_lines, -1)
        pixels = text[:, ::2] - np.uint8(ord("0"))  # wraps bytes below "0" to >= 208
        if (
            (pixels <= 1).all()
            and (text[:, 1:-1:2] == ord(",")).all()
            and (text[:, -1] == ord("\n")).all()
        ):
            return RecurrenceImage(pixels)
    # Any other text: blank lines, spaces, CRLF, a missing last newline, or
    # an error to report.
    rows = [
        [int(v) for v in line.split(",")]
        for line in raw.decode("ascii").splitlines()
        if line
    ]
    try:
        return RecurrenceImage(np.array(rows, dtype=np.uint8))
    except OverflowError:
        raise ValueError("recurrence image entries must be 0 or 1") from None
