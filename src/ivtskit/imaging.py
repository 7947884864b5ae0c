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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .defaults import DEFAULT_EPSILON
from .errors import DataError, DimensionMismatch, IvtsError, NegativeSquaredDistance, SeriesTooShort
from .intervals import NEGATIVE_TOLERANCE, Kernel2x2, _read_only, pair_dk_squared


@dataclass(frozen=True)
class TrajectoryConfig:
    """Delay-embedding and threshold parameters for recurrence imaging.

    ``epsilon`` is a tuple of thresholds: one per dimension of a multivariate
    series, or a single one broadcast to every dimension.  A scalar is
    stored as a 1-tuple.
    """

    m: int = 1
    kappa: int = 1
    epsilon: tuple[float, ...] = (DEFAULT_EPSILON,)

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"trajectory length m must be a positive integer, got {self.m}")
        if int(self.kappa) != self.kappa or self.kappa < 1:
            raise ValueError(f"time delay kappa must be a positive integer, got {self.kappa}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "kappa", int(self.kappa))
        eps = tuple(float(e) for e in np.atleast_1d(self.epsilon))
        if not eps:
            raise ValueError("epsilon tuple must be nonempty")
        for e in eps:
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
        """Per-dimension thresholds: broadcast a 1-tuple, validate a longer one."""
        if len(self.epsilon) == 1:
            return self.epsilon * d
        if len(self.epsilon) != d:
            raise DimensionMismatch(f"{len(self.epsilon)} thresholds given for {d} dimensions")
        return self.epsilon


class RecurrenceImage:
    """Square binary image backed by a read-only (N, N) uint8 array, kept
    without a copy when it is a read-only uint8 array and copied otherwise."""

    __slots__ = ("_pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("a recurrence image must be square and nonempty")
        if arr.dtype != bool and not ((arr == 0) | (arr == 1)).all():
            raise ValueError("recurrence image entries must be 0 or 1")
        self._pixels = _read_only(arr, np.uint8)

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


def squared_threshold(epsilon: float) -> float:
    """The largest float64 t with sqrt(t) <= epsilon, for a finite epsilon >= 0.
    sqrt is correctly rounded and monotone, so ``q <= t`` is
    ``sqrt(max(q, 0)) <= epsilon`` for every float64 q, NaN and infinities too."""
    t = min(epsilon * epsilon, sys.float_info.max)
    while math.sqrt(t) > epsilon:
        t = math.nextafter(t, 0.0)
    while (up := math.nextafter(t, math.inf)) < math.inf and math.sqrt(up) <= epsilon:
        t = up
    return t


def image_grids(grids, cfg: TrajectoryConfig, kernel: Kernel2x2, tag: bool = True):
    """Yield the (N, N) bool image of each (d, T, 2) bound grid in order: the
    AND over dimensions i of H(epsilon_i - d(traj_j, traj_k)) at pixel (j, k).
    The work buffers are made once per T, so each image is overwritten by the
    next.  With `tag`, a failure names the item's index."""
    T = None
    limit = {eps: squared_threshold(eps) for eps in cfg.epsilon}
    for item, grid in enumerate(grids):
        try:
            for i, eps in enumerate(cfg.epsilon_for(grid.shape[0])):
                bounds = grid[i]
                if len(bounds) != T:
                    n = cfg.num_trajectories(len(bounds))
                    T = len(bounds)
                    work = np.empty((4, T, T))
                    dk2 = work[3] if cfg.m == 1 else np.empty((n, n))
                    image, hit = np.empty((2, n, n), dtype=bool)
                # all pairs of time steps; an overflow to inf or NaN is no error
                with np.errstate(over="ignore", invalid="ignore"):
                    point = pair_dk_squared(bounds[:, None], bounds[None, :], kernel, work)
                    if cfg.m > 1:  # summed over the m slots of each trajectory pair
                        dk2[...] = point[:n, :n]
                        for s in range(1, cfg.m):
                            o = s * cfg.kappa
                            dk2 += point[o : o + n, o : o + n]
                low = float(dk2.min())
                if low < -NEGATIVE_TOLERANCE:
                    raise NegativeSquaredDistance(
                        f"squared trajectory distance {low} is negative beyond tolerance; "
                        "the kernel is indefinite on this series"
                    )
                np.less_equal(dk2, limit[eps], out=hit if i else image)
                if i:
                    image &= hit
        except IvtsError as e:
            if not tag:
                raise
            raise type(e)(f"item {item}: {e}") from e
        yield image


def image_series(series, cfg: TrajectoryConfig, kernel: Kernel2x2) -> RecurrenceImage:
    """The IRP of an IntervalSeries, or the IJRP (the AND of the per-dimension
    images) of an MvIntervalSeries; see :func:`image_grids`."""
    return RecurrenceImage(next(image_grids([series.grid], cfg, kernel, tag=False)))


def export_pgm(img: RecurrenceImage, path) -> None:
    """Write a binary (P5, maxval 255) greymap: pixel value = 255 * entry."""
    header = f"P5\n{img.n} {img.n}\n255\n".encode("ascii")
    payload = (img.pixels * np.uint8(255)).tobytes()
    Path(path).write_bytes(header + payload)


def load_pgm(path) -> RecurrenceImage:
    """Read an image written by :func:`export_pgm`; a malformed file is a DataError naming it."""
    raw = Path(path).read_bytes()
    try:
        parts = raw.split(b"\n", 3)
        if len(parts) != 4 or parts[0] != b"P5":
            raise ValueError("not a binary P5 greymap")
        dims = parts[1].split()
        if len(dims) != 2:
            raise ValueError("malformed P5 dimension line")
        width, height = int(dims[0]), int(dims[1])
        maxval = int(parts[2])
        if maxval != 255:
            raise ValueError(f"expected maxval 255, got {maxval}")
        if width * height > len(parts[3]):  # frombuffer overflows on a count past its index range
            raise ValueError(f"a {width}x{height} image needs {width * height} bytes, "
                             f"got {len(parts[3])}")
        data = np.frombuffer(parts[3], dtype=np.uint8, count=width * height)
        pixels = (data > 0).astype(np.uint8).reshape(height, width)
        pixels.setflags(write=False)  # a fresh array, handed over read-only so it is not copied
        return RecurrenceImage(pixels)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None


def export_csv(img: RecurrenceImage, path) -> None:
    """Write the image as N rows of comma-separated 0/1 entries."""
    # Row j is the 2N bytes "v,v,...,v\n": the entries at even offsets, a
    # comma or the newline at odd ones.
    text = np.full((img.n, 2 * img.n), ord(","), dtype=np.uint8)
    text[:, ::2] = img.pixels + ord("0")
    text[:, -1] = ord("\n")
    Path(path).write_bytes(text.tobytes())


def load_csv_image(path) -> RecurrenceImage:
    """Read an image written by :func:`export_csv`; a malformed file is a DataError naming it."""
    raw = Path(path).read_bytes()
    n_lines = raw.count(b"\n")
    try:
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
                pixels.setflags(write=False)  # fresh: handed over read-only, not copied
                return RecurrenceImage(pixels)
        # Any other text: blank lines, spaces, CRLF, a missing last newline, or
        # an error to report.
        rows = [
            [int(v) for v in line.split(",")]
            for line in raw.decode("ascii").splitlines()
            if line
        ]
        # no dtype: numpy 1.24 would wrap 256 into a uint8 0; RecurrenceImage
        # rejects every entry other than 0 or 1
        return RecurrenceImage(np.array(rows))
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None
