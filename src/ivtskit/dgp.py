"""Simulation generators for labeled interval-valued time series.

Three bivariate (center, range) processes share one residual law: Gaussian
pairs with unit center variance, range variance 1/4, and correlation ``rho``
between the two components.  The processes are

* process 1: a truncated coefficient series with a deterministic first term,
  Gaussian higher terms, and an additive residual;
* process 2: a VARMA(1, 1) recursion started from zero with a burn-in;
* process 3: an MA(1) with a zero initial residual.

Each generated (center, range) path is reconstructed into an interval series
via [center - range, center + range]; ranges can be negative, so improper
intervals are normal output.  Every observation gets its own RNG stream
derived from (base seed, item index, ...), which makes datasets reproducible
and generation parallelizable.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .defaults import DEFAULT_PER_CLASS, DEFAULT_RHO_GRID, DEFAULT_T
from .errors import DataError, LengthMismatch, NonFinite
from .intervals import IntervalSeries, MvIntervalSeries, _read_only
from .split import split_indices

AnySeries = Union[IntervalSeries, MvIntervalSeries]

PHI = np.array([[0.2, -0.1], [0.1, 0.2]])
GAMMA = np.array([[-0.6, 0.3], [0.3, 0.6]])

# Chunk size for vectorized draws in gen_dgp1; fixed so that a given
# (config, seed) always consumes the RNG stream identically.
_DGP1_CHUNK = 16384
# Process 1's (step, term) pairs held at once: each of its two work arrays,
# and its coefficients, stay within 2 MiB of float64 whatever L is.
_DGP1_BUDGET = 2**17


def _check_rho(rho: float) -> None:
    # written so that a NaN fails too
    if not abs(rho) <= 1.0:
        raise ValueError(f"correlation must satisfy |rho| <= 1, got {rho}")


def residual_covariance(rho: float) -> np.ndarray:
    """Covariance of one (center, range) residual pair."""
    _check_rho(rho)
    return np.array([[1.0, rho / 2.0], [rho / 2.0, 0.25]])


def _residual_cholesky(rho: float) -> np.ndarray:
    # Lower Cholesky factor of residual_covariance(rho), in closed form.
    return np.array([[1.0, 0.0], [rho / 2.0, math.sqrt(0.25 - rho * rho / 4.0)]])


def sample_residuals(rho: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n residual pairs as an (n, 2) array."""
    _check_rho(rho)
    z = rng.standard_normal((n, 2))
    return z @ _residual_cholesky(rho).T


@dataclass(frozen=True)
class DgpConfig:
    """Parameters shared by the three generators.

    ``truncation_L`` only affects process 1 (where the coefficient series is
    cut off) and ``burn_in`` only affects process 2.  Generators take an
    explicit RNG.
    """

    rho: float = 0.0
    T: int = DEFAULT_T
    truncation_L: int = 100
    burn_in: int = 100

    def __post_init__(self) -> None:
        _check_rho(self.rho)
        if self.T < 1:
            raise ValueError(f"series length T must be >= 1, got {self.T}")
        if self.truncation_L < 1:
            raise ValueError(f"truncation_L must be >= 1, got {self.truncation_L}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")


def gen_dgp1(cfg: DgpConfig, rng: np.random.Generator) -> np.ndarray:
    """Truncated-series process, returned as a (T, 2) (center, range) array.

    The first coefficient multiplies the deterministic vector (1, 1), so the
    process mean is pi_1 * PHI @ (1, 1); all higher terms and the residual
    are zero-mean Gaussians.  The one-item call of :func:`_generate`, whose
    memory does not grow with ``truncation_L``.
    """
    return _generate(1, cfg, [rng])[0]


def _varma11(eps: np.ndarray) -> np.ndarray:
    """The VARMA(1, 1) paths X_t = PHI X_{t-1} + eps_t - GAMMA eps_{t-1} of an
    (m, steps, 2) stack of residual paths, started from X_0 = 0, eps_0 = 0;
    returns an (m, steps, 2) array.

    The products are stacked matrix-vector products (np.matmul against a
    trailing axis of length 1), which numpy sends to the gemv kernel of the
    one-path ``PHI @ x``, so each path gets the bytes it would get alone;
    ``x @ PHI.T`` and einsum round differently.
    """
    m, steps, _ = eps.shape
    out = np.empty((m, steps, 2))
    x = np.zeros((m, 2, 1))
    e_prev = np.zeros((m, 2, 1))
    for t in range(steps):
        e = eps[:, t, :, None]
        x = np.matmul(PHI[None], x) + e - np.matmul(GAMMA[None], e_prev)
        out[:, t] = x[:, :, 0]
        e_prev = e
    return out


def gen_dgp2(cfg: DgpConfig, rng: np.random.Generator) -> np.ndarray:
    """VARMA(1, 1) recursion X_t = PHI X_{t-1} + eps_t - GAMMA eps_{t-1}.

    Starts from X_0 = 0, eps_0 = 0; the first ``burn_in`` steps are
    discarded.
    """
    return _generate(2, cfg, [rng])[0]


def gen_dgp3(cfg: DgpConfig, rng: np.random.Generator) -> np.ndarray:
    """MA(1) process X_t = eps_t - GAMMA eps_{t-1} with eps_0 = 0; the
    one-item call of :func:`_generate`."""
    return _generate(3, cfg, [rng])[0]


_PROCESSES = (1, 2, 3)  # in the scenario builders' class and dimension order


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """n series of one dimension count d and one length T with 1-based class
    labels: ``bounds``, a read-only float64 (n, d, T, 2) array, and
    ``label_ids``, a read-only int64 (n,) vector, each kept without a copy when
    it is a read-only array of its dtype and copied otherwise, so later writes
    to the input never reach it.  Both arrays determine the rest: there are
    ``n_classes`` = max(label_ids) classes, and the items are MvIntervalSeries
    exactly when d > 1 (``multivariate``), else IntervalSeries."""

    bounds: np.ndarray
    label_ids: np.ndarray

    def __post_init__(self) -> None:
        bounds = _read_only(self.bounds, np.float64)
        label_ids = _read_only(self.label_ids, np.int64)
        if bounds.ndim != 4 or bounds.shape[3] != 2 or 0 in bounds.shape:
            raise ValueError(f"bounds must be (n, d, T, 2) with n, d, T >= 1, got {bounds.shape}")
        if label_ids.shape != bounds.shape[:1]:
            raise LengthMismatch(f"{label_ids.shape} labels for {bounds.shape[0]} items")
        if label_ids.min() < 1:
            raise ValueError(f"label {label_ids.min()} is not a class id (1, 2, ...)")
        if not np.isfinite(bounds).all():
            raise NonFinite("interval series bounds must be finite")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "label_ids", label_ids)

    @property
    def n_classes(self) -> int:
        return int(self.label_ids.max())

    @property
    def multivariate(self) -> bool:
        return self.bounds.shape[1] > 1

    def __len__(self) -> int:
        return self.bounds.shape[0]

    def labels(self) -> list[int]:
        return self.label_ids.tolist()

    def series(self) -> list[AnySeries]:
        """One series per item, each a view of ``bounds``."""
        if self.multivariate:
            return [MvIntervalSeries(g) for g in self.bounds]
        return [IntervalSeries(g[0]) for g in self.bounds]

    def dim(self) -> int:
        return self.bounds.shape[1]


def _item_rng(seed: int, *key: int) -> np.random.Generator:
    # One independent stream per generated observation.
    return np.random.default_rng([int(seed), *map(int, key)])


def _coefficients(lo: int, hi: int) -> np.ndarray:
    """Process 1's coefficients pi_l = l^-2 / sqrt(3) for l = lo, ..., hi - 1."""
    pis = np.arange(lo, hi, dtype=np.float64)
    pis **= -2
    pis /= math.sqrt(3.0)
    return pis


def _generate(dgp_id: int, cfg: DgpConfig, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One (T, 2) (center, range) path of process `dgp_id` per generator in
    `rngs`, as an (m, T, 2) array; path i draws from ``rngs[i]`` alone.

    Process 1 draws each chunk of ``_DGP1_CHUNK`` steps as its L - 1 terms a
    step, t-major, then its residuals.  Its two work arrays, made once per
    call, and its coefficients hold at most ``_DGP1_BUDGET`` (step, term)
    pairs; above that, a step's terms are summed in pieces, which rounds
    unlike one sum."""
    if dgp_id != 1:
        steps = cfg.burn_in + cfg.T if dgp_id == 2 else cfg.T
        eps = np.stack([sample_residuals(cfg.rho, rng, steps) for rng in rngs])
        if dgp_id == 2:
            return _varma11(eps)[:, cfg.burn_in :]
        lagged = np.zeros_like(eps)
        lagged[:, 1:] = eps[:, :-1]
        return eps - lagged @ GAMMA.T
    out = np.empty((len(rngs), cfg.T, 2))
    terms = cfg.truncation_L - 1
    width = min(terms, _DGP1_BUDGET) or 1  # terms a piece
    rows = min(cfg.T, _DGP1_CHUNK, _DGP1_BUDGET // width)  # steps a piece
    pis = _coefficients(2, terms + 2) if terms <= width else None
    z, zc = np.empty((rows, width, 2)), np.empty((rows, width, 2))
    sums = np.empty((min(cfg.T, _DGP1_CHUNK), 2))
    mean = (1.0 / math.sqrt(3.0)) * (PHI @ np.ones(2))
    chol = _residual_cholesky(cfg.rho)
    for rng, path in zip(rngs, out):
        for start in range(0, cfg.T, _DGP1_CHUNK):
            block = path[start : start + _DGP1_CHUNK]
            nt = len(block)
            sums[:nt] = 0.0
            # one (1, 2) product rounds unlike a row of an (nt, 2) one, so
            # PHI multiplies the whole chunk's sums at once
            for a, b in itertools.product(range(0, nt, rows), range(0, terms, width)):
                m, n = min(rows, nt - a), min(width, terms - b)
                rng.standard_normal(out=z[:m, :n])
                np.matmul(z[:m, :n], chol.T, out=zc[:m, :n])
                coef = _coefficients(b + 2, b + 2 + n) if pis is None else pis
                sums[a : a + m] += np.einsum("l,tlj->tj", coef, zc[:m, :n])
            block[:] = mean
            block += sums[:nt] @ PHI.T
            block += sample_residuals(cfg.rho, rng, nt)
    return out


def _build(classes: Sequence[Sequence[tuple[int, float]]], per_class_n: int, T: int, seed: int,
           truncation_L: int, burn_in: int, multivariate: bool) -> LabeledDataset:
    """`per_class_n` items for each class; class c (1-based) lists in
    ``classes[c - 1]`` the (process id, rho) of every dimension.  Item i's
    dimension j draws from the stream (seed, i, j) if `multivariate`, else
    (seed, i); the dataset's own ``multivariate`` follows from d alone."""
    if not classes or not classes[0]:
        raise ValueError("rho_grid must be nonempty")
    if per_class_n < 1:
        raise ValueError("per_class_n must be >= 1")
    gens = [
        [(dgp_id, DgpConfig(rho=rho, T=T, truncation_L=truncation_L, burn_in=burn_in))
         for dgp_id, rho in dims]
        for dims in classes
    ]
    bounds = np.empty((len(classes) * per_class_n, len(classes[0]), T, 2))
    for c, dims in enumerate(gens):
        items = range(c * per_class_n, (c + 1) * per_class_n)
        for j, (dgp_id, cfg) in enumerate(dims):
            rngs = [_item_rng(seed, i, j) if multivariate else _item_rng(seed, i) for i in items]
            cr = _generate(dgp_id, cfg, rngs)
            block = bounds[items.start : items.stop, j]
            block[..., 0] = cr[..., 0] - cr[..., 1]
            block[..., 1] = cr[..., 0] + cr[..., 1]
    labels = np.repeat(np.arange(1, len(classes) + 1), per_class_n)
    for a in (bounds, labels):  # fresh arrays, handed over read-only so they are not copied
        a.setflags(write=False)
    return LabeledDataset(bounds, labels)


def build_univariate_dataset(
    dgp_id: int,
    per_class_n: int = DEFAULT_PER_CLASS,
    T: int = DEFAULT_T,
    rho_grid: Sequence[float] = DEFAULT_RHO_GRID,
    seed: int = 0,
    truncation_L: int = 100,
    burn_in: int = 100,
) -> LabeledDataset:
    """One class per correlation value, all generated by the same process."""
    if dgp_id not in _PROCESSES:
        raise ValueError(f"dgp_id must be one of {sorted(_PROCESSES)}, got {dgp_id}")
    classes = [[(dgp_id, rho)] for rho in rho_grid]
    return _build(classes, per_class_n, T, seed, truncation_L, burn_in, multivariate=False)


def build_multivariate_c1(
    per_class_n: int = DEFAULT_PER_CLASS,
    T: int = DEFAULT_T,
    rho_grid: Sequence[float] = DEFAULT_RHO_GRID,
    seed: int = 0,
    truncation_L: int = 100,
    burn_in: int = 100,
) -> LabeledDataset:
    """Scenario C1: one class per process, one dimension per correlation."""
    classes = [[(dgp_id, rho) for rho in rho_grid] for dgp_id in _PROCESSES]
    return _build(classes, per_class_n, T, seed, truncation_L, burn_in, multivariate=True)


def build_multivariate_c2(
    per_class_n: int = DEFAULT_PER_CLASS,
    T: int = DEFAULT_T,
    rho_grid: Sequence[float] = DEFAULT_RHO_GRID,
    seed: int = 0,
    truncation_L: int = 100,
    burn_in: int = 100,
) -> LabeledDataset:
    """Scenario C2: one class per correlation, one dimension per process."""
    classes = [[(dgp_id, rho) for dgp_id in _PROCESSES] for rho in rho_grid]
    return _build(classes, per_class_n, T, seed, truncation_L, burn_in, multivariate=True)


def build_dgp_mix_dataset(
    per_class_n: int,
    T: int = DEFAULT_T,
    rho: float = 0.7,
    seed: int = 0,
    truncation_L: int = 100,
    burn_in: int = 100,
) -> LabeledDataset:
    """Univariate dataset whose classes are the three processes at a fixed rho."""
    classes = [[(dgp_id, rho)] for dgp_id in _PROCESSES]
    return _build(classes, per_class_n, T, seed, truncation_L, burn_in, multivariate=False)


def train_test_split(
    ds: LabeledDataset, train_fraction: float, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified random split into an exact (disjoint, exhaustive) partition."""
    parts = []
    for idx in split_indices(ds.labels(), train_fraction, seed):
        bounds = ds.bounds[idx]  # a fresh array, handed over read-only so it is not copied
        bounds.setflags(write=False)
        parts.append(LabeledDataset(bounds, ds.label_ids[idx]))
    return tuple(parts)


DATASET_HEADER = "item,dim,t,lower,upper,label"
_ROW_DTYPE = np.dtype(
    [("item", np.int64), ("dim", np.int64), ("t", np.int64),
     ("lower", np.float64), ("upper", np.float64), ("label", np.int64)]
)
_ROW_ARGS = dict(delimiter=",", dtype=_ROW_DTYPE, comments=None, ndmin=1)


def save_dataset_csv(ds: LabeledDataset, path) -> None:
    """Write `item,dim,t,lower,upper,label` rows (0-based indices, 1-based labels).

    When `path` is a regular file, its sidecar ``<path>.npz`` then holds the
    dataset's arrays and the BLAKE2b-256 digest of the bytes written, for
    :func:`load_dataset_csv`.  Any older sidecar is removed first, and a
    sidecar that cannot be written is left out."""
    # One item at a time, written as it is formatted: every bound as a Python
    # float, or the whole text, at once would set the run's peak memory.  One
    # template holds an item's d * T rows; per item it takes the item id and
    # label, then one `%` call formats the item's bounds.
    _, d, T, _ = ds.bounds.shape
    template = "".join(f"{{item}},{j},{t},%r,%r,{{label}}\n" for j in range(d) for t in range(T))
    sidecar = _sidecar(path)
    _remove(sidecar)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(DATASET_HEADER + "\n")
        for item_idx, (grid, label) in enumerate(zip(ds.bounds, ds.labels())):
            rows = template.replace("{item}", str(item_idx)).replace("{label}", str(label))
            fh.write(rows % tuple(grid.reshape(-1).tolist()))
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            digest = np.frombuffer(_digest(path), np.uint8)
            with open(sidecar, "wb") as fh:
                np.savez(fh, bounds=np.ascontiguousarray(ds.bounds), label_ids=ds.label_ids,
                         blake2b=digest)
    except (OSError, ImportError):  # the sidecar only saves a parse: the dataset is written
        _remove(sidecar)


def _sidecar(path) -> Path:
    return Path(os.fsdecode(path) + ".npz")


def _remove(path: Path) -> None:
    try:
        path.unlink()
    except OSError:  # none there, or not ours to remove
        pass


def _digest(path) -> bytes:
    """The BLAKE2b-256 digest of the file's bytes."""
    # Not hashlib, which maps OpenSSL (about 3.6 MB) on import.  hashlib's
    # blake2b is this module's in every CPython, so it is no fallback: a
    # build without _blake2 raises ImportError here, and keeps no sidecar.
    from _blake2 import blake2b

    h = blake2b(digest_size=32)
    with open(path, "rb") as fh:
        # a chunk below glibc's mmap threshold (128 KiB) reuses heap pages:
        # 1 MiB chunks cost ~800 more page faults a read of a 4.5 MB file
        while chunk := fh.read(1 << 16):
            h.update(chunk)
    return h.digest()


def _read_sidecar(path) -> LabeledDataset | None:
    """The dataset that `path`'s sidecar holds for the file's current bytes,
    or None when it holds none."""
    try:
        with np.load(_sidecar(path), allow_pickle=False) as z:
            if z["blake2b"].tobytes() != _digest(path):
                return None
            bounds, labels = z["bounds"], z["label_ids"]
        # save_dataset_csv writes C-ordered native float64 bounds and int64
        # labels; LabeledDataset checks the shapes and values
        if not (bounds.dtype == np.float64 and bounds.flags.c_contiguous
                and labels.dtype == np.int64):
            return None
        for a in (bounds, labels):  # fresh arrays, handed over read-only so they are not copied
            a.setflags(write=False)
        return LabeledDataset(bounds, labels)
    # no sidecar, or a damaged one: np.load alone raises OSError, ValueError,
    # KeyError, EOFError, BadZipFile, zlib.error or RuntimeError on a damaged
    # zip, and LabeledDataset an IvtsError or ValueError on bad arrays
    except Exception:
        return None


def _data_lines(fh, skip: int):
    """(line number, line) of each non-blank line after the first `skip`."""
    for lineno, line in enumerate(fh, start=1):
        if lineno > skip and line.strip():
            yield lineno, line


def _line_of_row(fh, skip: int, row: int) -> int:
    fh.seek(0)
    return next(itertools.islice(_data_lines(fh, skip), row, None))[0]


def _read_rows(fh, path, skip: int) -> np.ndarray:
    """The rows of the non-blank lines that `fh` has left, parsed in one
    C-level pass; when that fails, the first bad row after line `skip` is named."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(filter(str.strip, fh), **_ROW_ARGS)
        except ValueError:
            fh.seek(0)
            for lineno, line in _data_lines(fh, skip):
                line = line.rstrip("\n")
                parts = line.split(",")
                if len(parts) != 6:
                    raise DataError(
                        f"{path}:{lineno}: expected 6 fields, got {len(parts)}") from None
                try:
                    np.loadtxt([line], **_ROW_ARGS)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: malformed row {line!r}") from None
            raise


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Indices of the rows where any of the equal-length `keys` differs from
    the row before; the first row always starts a run."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[0] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def _ascending(item: np.ndarray, dim: np.ndarray, t: np.ndarray) -> bool:
    """Whether each row's (item, dim, t) is greater than the row before's."""
    greater = t[1:] > t[:-1]
    for key in (dim, item):  # lexicographic, from the least significant key up
        greater &= key[1:] == key[:-1]
        greater |= key[1:] > key[:-1]
    return bool(greater.all())


def _load_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d, T, 2) bounds and (n,) labels of a dataset CSV; see
    :func:`load_dataset_csv`.  Every temporary, the parsed rows among them,
    is freed when this returns.  The file is opened once, in binary, and read
    as ASCII text: its header is the first non-blank line, and the line of a
    bad row or of a byte that is not ASCII is found by rewinding.  A file
    that cannot be rewound, such as a pipe, is read into memory first."""
    with open(path, "rb") as fb:
        buf = fb if fb.seekable() else io.BytesIO(fb.read())
        fh = io.TextIOWrapper(buf, encoding="ascii")
        try:
            skip, header = next(_data_lines(fh, 0), (0, ""))
            if header.rstrip("\n") != DATASET_HEADER:
                raise DataError(f"{path}: expected header {DATASET_HEADER!r}")
            rows = _read_rows(fh, path, skip)
        except UnicodeDecodeError:
            buf.seek(0)
            raw = buf.read()
            lines = raw[: len(raw) - len(raw.lstrip(bytes(range(128)))) + 1].splitlines()
            raise DataError(
                f"{path}:{len(lines)}: byte 0x{lines[-1][-1]:02x} is not ASCII") from None
        if rows.size == 0:
            raise DataError(f"{path}: no data rows")

        nonfinite = ~np.isfinite(rows["lower"])
        nonfinite |= ~np.isfinite(rows["upper"])
        if nonfinite.any():
            lineno = _line_of_row(fh, skip, int(nonfinite.argmax()))
            raise DataError(f"{path}:{lineno}: non-finite bound")

        # Rows sorted by (item, dim, t).  Files written by save_dataset_csv
        # already are, without repeats, and are used as read; any other file is
        # sorted stably, so `order` maps each sorted row to its row in the file.
        item, dim, t, label = rows["item"], rows["dim"], rows["t"], rows["label"]
        order = None
        if not _ascending(item, dim, t):
            order = np.lexsort((t, dim, item))
            item, dim, t, label = item[order], dim[order], t[order], label[order]

        # Each row's label must be that of its item's first row in file order.
        starts = _run_starts(item)
        first = starts if order is None else np.minimum.reduceat(order, starts)
        labels = rows["label"][first]
        conflict = np.flatnonzero(label != np.repeat(labels, np.diff(starts, append=len(item))))
        if conflict.size:
            row = int(conflict[0] if order is None else order[conflict].min())
            lineno = _line_of_row(fh, skip, row)
            raise DataError(f"{path}:{lineno}: item {rows['item'][row]} has conflicting labels")

        if order is not None:  # of repeated keys the last in file order ends the run: keep it
            last = np.append(_run_starts(item, dim, t)[1:], len(item)) - 1
            if len(last) < len(item):
                order, item, dim, t = order[last], item[last], dim[last], t[last]
                starts = _run_starts(item)

        # One group per (item, dim).  Its t values rise, so they run 0, 1, ...,
        # length - 1 exactly when the first is 0 and the last is length - 1.
        groups = _run_starts(item, dim)
        lengths = np.diff(groups, append=len(item))
        gap = (t[groups] != 0) | (t[groups + lengths - 1] != lengths - 1)
        if gap.any():
            row = groups[gap.argmax()]
            raise DataError(f"{path}: item {item[row]} dim {dim[row]} has gaps in t")
        dims = np.diff(np.searchsorted(groups, starts), append=len(groups))
        dims_seen = sorted(set(dims.tolist()))
        if len(dims_seen) != 1:
            raise DataError(f"{path}: items disagree on dimension count: {dims_seen}")
        lengths_seen = sorted(set(lengths.tolist()))
        if len(lengths_seen) != 1:
            raise DataError(f"{path}: items disagree on series length T: {lengths_seen}")
        if labels.min() < 1:  # an item's first row in file order comes before its other rows
            row = int(first[labels < 1].min())
            lineno = _line_of_row(fh, skip, row)
            raise DataError(
                f"{path}:{lineno}: label {rows['label'][row]} is not a class id (1, 2, ...)")

        bounds = np.empty((len(starts), dims_seen[0], lengths_seen[0], 2))
        flat = bounds.reshape(-1, 2)
        for j, column in enumerate(("lower", "upper")):
            flat[:, j] = rows[column] if order is None else rows[column][order]
        bounds.setflags(write=False)
        return bounds, labels


def load_dataset_csv(path) -> LabeledDataset:
    """Read a dataset written by :func:`save_dataset_csv`.

    Blank lines are skipped.  Rows may come in any order; a repeated
    (item, dim, t) keeps its last row.  Raises DataError, naming the file
    and, for a single bad row, its line, on a bad header, a malformed row, a
    non-finite bound, an item with two labels, a gap in t, items that
    disagree on their dimension count or on their length T, a label below
    1, or a byte that is not ASCII, whose line it names too.

    When the file's sidecar ``<path>.npz`` holds the BLAKE2b-256 digest of
    the file's current bytes, its arrays are returned instead of a parse.  They are the
    arrays the parse would return, since ``%r`` round-trips every float64.
    Any other file, or a sidecar that is missing, stale or damaged in any
    way, is parsed.
    """
    cached = _read_sidecar(path)
    if cached is not None:
        return cached
    return LabeledDataset(*_load_arrays(path))
