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

import itertools
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, NonFinite
from .intervals import IntervalSeries, MvIntervalSeries, as_grid, from_grid

AnySeries = Union[IntervalSeries, MvIntervalSeries]

PHI = np.array([[0.2, -0.1], [0.1, 0.2]])
GAMMA = np.array([[-0.6, 0.3], [0.3, 0.6]])

DEFAULT_RHO_GRID: tuple[float, ...] = (-0.9, -0.5, 0.0, 0.3, 0.7)
DEFAULT_T = 150
DEFAULT_PER_CLASS = 500

# Chunk size for vectorized draws in gen_dgp1; fixed so that a given
# (config, seed) always consumes the RNG stream identically.
_DGP1_CHUNK = 16384

# Stream tag separating split shuffles from item generation streams.
_SPLIT_STREAM = 24301


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
    cut off) and ``burn_in`` only affects process 2.  ``seed`` documents the
    base seed of the run; generators take an explicit RNG.
    """

    rho: float = 0.0
    T: int = DEFAULT_T
    truncation_L: int = 100
    burn_in: int = 100
    seed: int = 0

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
    are zero-mean Gaussians.
    """
    L = cfg.truncation_L
    pis = np.arange(1, L + 1, dtype=np.float64) ** -2 / math.sqrt(3.0)
    mean = pis[0] * (PHI @ np.ones(2))
    chol = _residual_cholesky(cfg.rho)
    out = np.empty((cfg.T, 2))
    for start in range(0, cfg.T, _DGP1_CHUNK):
        stop = min(start + _DGP1_CHUNK, cfg.T)
        nt = stop - start
        block = np.broadcast_to(mean, (nt, 2)).copy()
        if L > 1:
            z = rng.standard_normal((nt, L - 1, 2)) @ chol.T
            block += np.einsum("l,tlj->tj", pis[1:], z) @ PHI.T
        block += rng.standard_normal((nt, 2)) @ chol.T
        out[start:stop] = block
    return out


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
    eps = sample_residuals(cfg.rho, rng, cfg.burn_in + cfg.T)
    return _varma11(eps[None])[0, cfg.burn_in :]


def gen_dgp3(cfg: DgpConfig, rng: np.random.Generator) -> np.ndarray:
    """MA(1) process X_t = eps_t - GAMMA eps_{t-1} with eps_0 = 0."""
    eps = sample_residuals(cfg.rho, rng, cfg.T)
    lagged = np.vstack([np.zeros((1, 2)), eps[:-1]])
    return eps - lagged @ GAMMA.T


_GENERATORS: dict[int, Callable[..., np.ndarray]] = {1: gen_dgp1, 2: gen_dgp2, 3: gen_dgp3}


@dataclass(frozen=True, init=False, eq=False)
class LabeledDataset:
    """n series of one dimension count d and one length T with 1-based class
    labels: ``bounds``, a read-only float64 (n, d, T, 2) array, and
    ``label_ids``, a read-only int64 (n,) vector.  ``multivariate`` says whether
    the items are MvIntervalSeries or, with d = 1, IntervalSeries."""

    bounds: np.ndarray
    label_ids: np.ndarray
    n_classes: int
    multivariate: bool

    def __init__(self, items, n_classes: int) -> None:
        """Stack (series, label) pairs.  Raises DimensionMismatch when the
        items mix univariate and multivariate series or differ in d, and
        LengthMismatch when they differ in T."""
        items = tuple(items)
        if not items:
            raise ValueError("a labeled dataset must be nonempty")
        kinds = {isinstance(s, MvIntervalSeries) for s, _ in items}
        if len(kinds) > 1:
            raise DimensionMismatch("cannot mix univariate and multivariate series")
        grids = [as_grid(s) for s, _ in items]
        dims = sorted({g.shape[0] for g in grids})
        if len(dims) > 1:
            raise DimensionMismatch(f"series dimensions differ: {dims}")
        lengths = sorted({g.shape[1] for g in grids})
        if len(lengths) > 1:
            raise LengthMismatch(f"series lengths differ: {lengths}")
        self._set(np.stack(grids), [label for _, label in items], n_classes, kinds.pop())

    @classmethod
    def from_arrays(cls, bounds, label_ids, n_classes: int, multivariate: bool) -> "LabeledDataset":
        """A dataset over (n, d, T, 2) `bounds`, which it keeps without a copy
        when they are float64 (treat them as handed over), and (n,) labels."""
        ds = cls.__new__(cls)
        ds._set(bounds, label_ids, n_classes, multivariate)
        return ds

    def _set(self, bounds, label_ids, n_classes: int, multivariate: bool) -> None:
        bounds = np.asarray(bounds, dtype=np.float64).view()
        label_ids = np.array(label_ids, dtype=np.int64)
        if bounds.ndim != 4 or bounds.shape[3] != 2 or 0 in bounds.shape:
            raise ValueError(f"bounds must be (n, d, T, 2) with n, d, T >= 1, got {bounds.shape}")
        if not multivariate and bounds.shape[1] != 1:
            raise DimensionMismatch(f"univariate items need d = 1, got d = {bounds.shape[1]}")
        if label_ids.shape != bounds.shape[:1]:
            raise LengthMismatch(f"{label_ids.shape} labels for {bounds.shape[0]} items")
        if n_classes < 1:
            raise ValueError("a labeled dataset needs at least one class")
        outside = label_ids[(label_ids < 1) | (label_ids > n_classes)]
        if outside.size:
            raise ValueError(f"label {outside[0]} outside the valid range 1..{n_classes}")
        if not np.isfinite(bounds).all():
            raise NonFinite("interval series bounds must be finite")
        bounds.setflags(write=False)
        label_ids.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "label_ids", label_ids)
        object.__setattr__(self, "n_classes", int(n_classes))
        object.__setattr__(self, "multivariate", bool(multivariate))

    def __len__(self) -> int:
        return self.bounds.shape[0]

    def labels(self) -> list[int]:
        return self.label_ids.tolist()

    def series(self) -> list[AnySeries]:
        """One series per item, each a view of ``bounds``."""
        return [from_grid(g, self.multivariate) for g in self.bounds]

    @property
    def items(self) -> tuple[tuple[AnySeries, int], ...]:
        return tuple(zip(self.series(), self.labels()))

    def class_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.label_ids, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    def dim(self) -> int:
        return self.bounds.shape[1]


def _item_rng(seed: int, *key: int) -> np.random.Generator:
    # One independent stream per generated observation.
    return np.random.default_rng([int(seed), *map(int, key)])


def _generate(dgp_id: int, cfg: DgpConfig, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One (T, 2) (center, range) path of process `dgp_id` per generator in
    `rngs`, as an (m, T, 2) array; path i is the one the process's generator
    function draws from ``rngs[i]``."""
    if dgp_id == 2:
        eps = np.stack([sample_residuals(cfg.rho, rng, cfg.burn_in + cfg.T) for rng in rngs])
        return _varma11(eps)[:, cfg.burn_in :]
    return np.stack([_GENERATORS[dgp_id](cfg, rng) for rng in rngs])


def _build(classes: Sequence[Sequence[tuple[int, float]]], per_class_n: int, T: int, seed: int,
           truncation_L: int, burn_in: int, multivariate: bool) -> LabeledDataset:
    """`per_class_n` items for each class; class c (1-based) lists in
    ``classes[c - 1]`` the (process id, rho) of every dimension.  Item i's
    dimension j draws from the stream (seed, i, j) if `multivariate`, else
    (seed, i)."""
    if not classes or not classes[0]:
        raise ValueError("rho_grid must be nonempty")
    if per_class_n < 1:
        raise ValueError("per_class_n must be >= 1")
    gens = [
        [(dgp_id, DgpConfig(rho=rho, T=T, truncation_L=truncation_L, burn_in=burn_in,
                            seed=seed)) for dgp_id, rho in dims]
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
    return LabeledDataset.from_arrays(bounds, labels, len(classes), multivariate)


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
    if dgp_id not in _GENERATORS:
        raise ValueError(f"dgp_id must be one of {sorted(_GENERATORS)}, got {dgp_id}")
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
    classes = [[(dgp_id, rho) for rho in rho_grid] for dgp_id in _GENERATORS]
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
    classes = [[(dgp_id, rho) for dgp_id in _GENERATORS] for rho in rho_grid]
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
    classes = [[(dgp_id, rho)] for dgp_id in _GENERATORS]
    return _build(classes, per_class_n, T, seed, truncation_L, burn_in, multivariate=False)


def split_indices(
    labels: Sequence[int], train_fraction: float, seed: int = 0
) -> tuple[list[int], list[int]]:
    """Stratified index split; both lists come back in ascending order."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    by_class: dict[int, list[int]] = defaultdict(list)
    for idx, label in enumerate(labels):
        by_class[label].append(idx)
    rng = np.random.default_rng([int(seed), _SPLIT_STREAM])
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_class):
        idx = by_class[label]
        if len(idx) < 2:
            raise ValueError(
                f"class {label} has {len(idx)} item(s); need at least 2 to split"
            )
        n_train = int(round(train_fraction * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        perm = rng.permutation(len(idx))
        chosen = {idx[p] for p in perm[:n_train]}
        train_idx.extend(i for i in idx if i in chosen)
        test_idx.extend(i for i in idx if i not in chosen)
    return sorted(train_idx), sorted(test_idx)


def train_test_split(
    ds: LabeledDataset, train_fraction: float, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified random split into an exact (disjoint, exhaustive) partition."""
    train_idx, test_idx = split_indices(ds.labels(), train_fraction, seed)
    return tuple(
        LabeledDataset.from_arrays(ds.bounds[idx], ds.label_ids[idx], ds.n_classes, ds.multivariate)
        for idx in (train_idx, test_idx)
    )


DATASET_HEADER = "item,dim,t,lower,upper,label"
_ROW_DTYPE = np.dtype(
    [("item", np.int64), ("dim", np.int64), ("t", np.int64),
     ("lower", np.float64), ("upper", np.float64), ("label", np.int64)]
)
_ROW_ARGS = dict(delimiter=",", dtype=_ROW_DTYPE, comments=None, ndmin=1)


def save_dataset_csv(ds: LabeledDataset, path) -> None:
    """Write `item,dim,t,lower,upper,label` rows (0-based indices, 1-based labels)."""
    # One item at a time, written as it is formatted: every bound as a Python
    # float, or the whole text, at once would set the run's peak memory.  One
    # template holds an item's d * T rows; per item it takes the item id and
    # label, then one `%` call formats the item's bounds.
    _, d, T, _ = ds.bounds.shape
    template = "".join(f"{{item}},{j},{t},%r,%r,{{label}}\n" for j in range(d) for t in range(T))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(DATASET_HEADER + "\n")
        for item_idx, (grid, label) in enumerate(zip(ds.bounds, ds.labels())):
            rows = template.replace("{item}", str(item_idx)).replace("{label}", str(label))
            fh.write(rows % tuple(grid.reshape(-1).tolist()))


def _data_lines(fh, skip: int):
    """(line number, line) of each non-blank line after the first `skip`."""
    for lineno, line in enumerate(fh, start=1):
        if lineno > skip and line.strip():
            yield lineno, line


def _line_of_row(path, skip: int, row: int) -> int:
    with open(path, encoding="ascii") as fh:
        return next(itertools.islice(_data_lines(fh, skip), row, None))[0]


def _read_rows(path, skip: int) -> np.ndarray:
    """The data rows after the first `skip` lines, parsed in one C-level pass."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(path, skiprows=skip, encoding="ascii", **_ROW_ARGS)
        except ValueError:
            pass
        # Either a bad row, or a whitespace-only line, which the C parser does
        # not skip: name the first bad row, or else parse the non-blank lines.
        with open(path, encoding="ascii") as fh:
            for lineno, line in _data_lines(fh, skip):
                line = line.rstrip("\n")
                parts = line.split(",")
                if len(parts) != 6:
                    raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
                try:
                    np.loadtxt([line], **_ROW_ARGS)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from None
            fh.seek(0)
            return np.loadtxt((line for _, line in _data_lines(fh, skip)), **_ROW_ARGS)


def load_dataset_csv(path) -> LabeledDataset:
    """Read a dataset written by :func:`save_dataset_csv`.

    Blank lines are skipped.  Rows may come in any order; a repeated
    (item, dim, t) keeps its last row.  Raises ValueError, naming the file
    and, for a single bad row, its line, on a bad header, a malformed row, a
    non-finite bound, an item with two labels, a gap in t, or items that
    disagree on their dimension count or on their length T.
    """
    skip, header = 0, ""
    with open(path, encoding="ascii") as fh:
        for skip, header in _data_lines(fh, 0):
            break
    if header.rstrip("\n") != DATASET_HEADER:
        raise ValueError(f"{path}: expected header {DATASET_HEADER!r}")
    rows = _read_rows(path, skip)
    if rows.size == 0:
        raise ValueError(f"{path}: no data rows")

    bounds = np.stack([rows["lower"], rows["upper"]], axis=-1)
    nonfinite = ~np.isfinite(bounds).all(axis=1)
    if nonfinite.any():
        lineno = _line_of_row(path, skip, int(nonfinite.argmax()))
        raise ValueError(f"{path}:{lineno}: non-finite bound")
    item, dim, t, label = rows["item"], rows["dim"], rows["t"], rows["label"]
    _, first, inverse = np.unique(item, return_index=True, return_inverse=True)
    conflict = label != label[first][inverse]
    if conflict.any():
        row = int(conflict.argmax())
        lineno = _line_of_row(path, skip, row)
        raise ValueError(f"{path}:{lineno}: item {item[row]} has conflicting labels")

    # Sort by (item, dim, t); the sort is stable, so of repeated keys the
    # last in file order ends each run and is the one kept.  Files written by
    # save_dataset_csv are sorted and unique, so neither step copies them.
    order = np.lexsort((t, dim, item))
    if not np.array_equal(order, np.arange(len(order))):
        item, dim, t, label, bounds = item[order], dim[order], t[order], label[order], bounds[order]
    keep = np.ones(len(item), dtype=bool)
    keep[:-1] = (item[1:] != item[:-1]) | (dim[1:] != dim[:-1]) | (t[1:] != t[:-1])
    if not keep.all():
        item, dim, t, label, bounds = item[keep], dim[keep], t[keep], label[keep], bounds[keep]

    # One group per (item, dim); its t values must run 0, 1, ..., length - 1.
    new_group = np.ones(len(item), dtype=bool)
    new_group[1:] = (item[1:] != item[:-1]) | (dim[1:] != dim[:-1])
    group_start = np.flatnonzero(new_group)
    position = np.arange(len(item)) - group_start[np.cumsum(new_group) - 1]
    gap = t != position
    if gap.any():
        row = int(gap.argmax())
        raise ValueError(f"{path}: item {item[row]} dim {dim[row]} has gaps in t")
    _, item_dims = np.unique(item[group_start], return_counts=True)
    dims_seen = sorted(set(item_dims.tolist()))
    if len(dims_seen) != 1:
        raise ValueError(f"{path}: items disagree on dimension count: {dims_seen}")
    lengths_seen = np.unique(np.diff(group_start, append=len(item))).tolist()
    if len(lengths_seen) != 1:
        raise ValueError(f"{path}: items disagree on series length T: {lengths_seen}")

    n, d, T = len(item_dims), dims_seen[0], lengths_seen[0]
    return LabeledDataset.from_arrays(
        bounds.reshape(n, d, T, 2), label[:: d * T], int(label.max()), multivariate=d > 1
    )
