"""Whole-array hot paths pinned to the per-item loops they replaced.

Each reference below is the loop version kept as an oracle.  The rewrites do
the same float operations in the same order, so results must be equal, not
merely close: `np.array_equal` or `==` throughout.  The one exception is
`train`'s Gram (dual) form for p > n, which reorders the sums and is pinned to
the primal loop within 1e-12 with equal predictions.
"""

import contextlib
import csv
import io
import itertools
import math
import random
import shutil
import sys
import tempfile
import tracemalloc
from collections import Counter, defaultdict
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import ivtskit as iv
from ivtskit import classify, cli, imaging, ingest, intervals, split, theory
from ivtskit.classify import LOSSES, _margins
from ivtskit.errors import (BlockGridInvalid, DimensionMismatch, LengthMismatch,
                            NegativeSquaredDistance, NonFinite)
from ivtskit.imaging import squared_threshold
from ivtskit.intervals import (NEGATIVE_TOLERANCE, grid_dk_squared, pair_dk_squared,
                               series_dk_squared)

KERNELS = ("K1", "K4", "K5")
CFG = iv.TrajectoryConfig(m=1, kappa=1, epsilon=0.5)


# ---------------------------------------------------------------------------
# references


def ref_block_mean(img, fc):
    px = img.pixels.astype(np.float64)
    cells = np.array_split(np.arange(img.n), fc.q)
    z = np.array([px[np.ix_(r, c)].mean() for r in cells for c in cells])
    norm = float(np.linalg.norm(z))
    if norm > fc.normalize_cap:
        z = z * (fc.normalize_cap / norm)
    return z


def ref_series_dk_squared(x1, x2, k):
    """The per-step quadratic form on two IntervalSeries' (T, 2) bounds, summed over T."""
    b1, b2 = x1.bounds, x2.bounds
    dl = b1[:, 0] - b2[:, 0]
    du = b1[:, 1] - b2[:, 1]
    return float((k.k_pp * du * du + k.k_mm * dl * dl - 2.0 * k.k_pm * dl * du).sum())


def ref_pair_distance(query, item, kernel):
    """Per-dimension series distances summed; an IntervalSeries is one dimension."""
    def dims(series):
        return series.dimensions() if isinstance(series, iv.MvIntervalSeries) else (series,)

    pairs = zip(dims(query), dims(item), strict=True)
    return sum(ref_series_dk_squared(a, b, kernel) for a, b in pairs)


def ref_knn(train, query, k, kernel):
    items = list(zip(train.series(), train.labels()))
    dists = np.array([ref_pair_distance(query, item, kernel) for item, _ in items])
    order = np.argsort(dists, kind="stable")[:k]
    votes, totals = {}, {}
    for idx in order:
        label = items[idx][1]
        votes[label] = votes.get(label, 0) + 1
        totals[label] = totals.get(label, 0.0) + float(dists[idx])
    top = max(votes.values())
    tied = [label for label, v in votes.items() if v == top]
    return min(tied, key=lambda label: (totals[label], label)), dists


def ref_load_csv(path):
    text = Path(path).read_text(encoding="ascii")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != iv.dgp.DATASET_HEADER:
        raise ValueError(f"{path}: expected header {iv.dgp.DATASET_HEADER!r}")
    per_item = defaultdict(lambda: defaultdict(dict))
    item_labels = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        try:
            item, dim, t = int(parts[0]), int(parts[1]), int(parts[2])
            lower, upper = float(parts[3]), float(parts[4])
            label = int(parts[5])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from None
        if item in item_labels and item_labels[item] != label:
            raise ValueError(f"{path}:{lineno}: item {item} has conflicting labels")
        item_labels[item] = label
        per_item[item][dim][t] = (lower, upper)
    if not per_item:
        raise ValueError(f"{path}: no data rows")
    items = []
    dims_seen = set()
    for item in sorted(per_item):
        dims = per_item[item]
        dims_seen.add(len(dims))
        rows = []
        for dim in sorted(dims):
            steps = dims[dim]
            if sorted(steps) != list(range(len(steps))):
                raise ValueError(f"{path}: item {item} dim {dim} has gaps in t")
            rows.append(np.array([steps[t] for t in range(len(steps))]))
        lengths = sorted({len(r) for r in rows})
        if len(lengths) > 1:
            raise LengthMismatch(f"all dimensions must share one length, got {lengths}")
        if len(rows) == 1:
            series = iv.IntervalSeries(rows[0])
        else:
            series = iv.MvIntervalSeries(np.stack(rows))
        items.append((series, item_labels[item]))
    if len(dims_seen) != 1:
        raise ValueError(f"{path}: items disagree on dimension count: {sorted(dims_seen)}")
    return ref_dataset(items)


def ref_dataset(items):
    """The dataset of (series, label) pairs; series of different lengths are a
    LengthMismatch."""
    grids = [series.grid for series, _ in items]
    lengths = sorted({g.shape[1] for g in grids})
    if len(lengths) > 1:
        raise LengthMismatch(f"series lengths differ: {lengths}")
    return iv.LabeledDataset(np.stack(grids), [label for _, label in items])


def ref_load_csv_named(path):
    """`ref_load_csv` with the loader's wording for the three faults that the
    reference leaves to the series and dataset constructors: a non-finite
    bound and a label below 1, each named by its first line in file order,
    and series of different lengths."""
    try:
        return ref_load_csv(path)
    except (NonFinite, LengthMismatch, ValueError) as e:
        if str(e).startswith(str(path)):
            raise
        error = e
    lines = Path(path).read_text(encoding="ascii").splitlines()
    rows = [(lineno, line.split(",")) for lineno, line in enumerate(lines, start=1) if line.strip()][1:]
    if isinstance(error, NonFinite):
        lineno = next(n for n, f in rows if not (math.isfinite(float(f[3])) and math.isfinite(float(f[4]))))
        raise ValueError(f"{path}:{lineno}: non-finite bound")
    if isinstance(error, LengthMismatch):
        lengths = Counter(key[:2] for key in {tuple(map(int, f[:3])) for _, f in rows})
        raise ValueError(f"{path}: items disagree on series length T: {sorted(set(lengths.values()))}")
    lineno, label = next((n, int(f[5])) for n, f in rows if int(f[5]) < 1)
    raise ValueError(f"{path}:{lineno}: label {label} is not a class id (1, 2, ...)")


def assert_loads_as_reference(path):
    """The loader returns the reference's dataset, or raises its message."""
    try:
        want = ref_load_csv_named(path)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            iv.load_dataset_csv(path)
        assert str(got.value) == str(e)
    else:
        assert_same_dataset(iv.load_dataset_csv(path), want)


def ref_save_dataset_csv(ds, path):
    """`save_dataset_csv` formatting every row on its own."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(iv.dgp.DATASET_HEADER + "\n")
        for item_idx, (grid, label) in enumerate(zip(ds.bounds, ds.labels())):
            fh.writelines(
                f"{item_idx},{dim_idx},{t},{lower!r},{upper!r},{label}\n"
                for dim_idx, steps in enumerate(grid.tolist())
                for t, (lower, upper) in enumerate(steps)
            )


def ref_train(features, labels, kind, steps, step_size=0.5, c_A=1.0, c_B=1.0):
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n, p = X.shape
    n_classes = int(y.max())
    w = np.zeros((n_classes, p))
    b = np.zeros(n_classes)

    def risk(wm, bv):
        margins, _ = _margins(X @ wm.T + bv, y)
        return float(LOSSES[kind].value(margins).mean())

    best_risk, best_w, best_b = risk(w, b), w.copy(), b.copy()
    rows = np.arange(n)
    for t in range(1, steps + 1):
        margins, best_other = _margins(X @ w.T + b, y)
        g = LOSSES[kind].subgradient(margins)
        coeff = np.zeros((n, n_classes))
        coeff[rows, y - 1] = g
        coeff[rows, best_other] -= g
        w -= (step_size / math.sqrt(t)) * (coeff.T @ X) / n
        b -= (step_size / math.sqrt(t)) * coeff.sum(axis=0) / n
        norms = np.linalg.norm(w, axis=1)
        over = norms > c_A
        if over.any():
            w[over] *= (c_A / norms[over])[:, None]
        np.clip(b, -c_B, c_B, out=b)
        r = risk(w, b)
        if r < best_risk:
            best_risk, best_w, best_b = r, w.copy(), b.copy()
    return best_w, best_b


def ref_scores(clf, z):
    """The length-C score vector A_Y^T z + B_Y of one feature vector."""
    return clf.weights @ np.asarray(z, dtype=np.float64) + clf.biases


def ref_predict(clf, z):
    """The highest-scoring class, ties to the lowest."""
    return int(np.argmax(ref_scores(clf, z))) + 1


def ref_one_draw(X, c_A, c_B, varrho, inner_steps, seed, draw):
    n, p = X.shape
    rng = np.random.default_rng([seed, draw])
    tau = rng.integers(0, 2, size=n) * 2.0 - 1.0
    a = np.zeros(p)
    b = 0.0
    step = 1.0 / (2.0 * varrho + 1.0)
    best = 0.0
    for _ in range(inner_steps):
        f = X @ a + b
        resid = tau - 2.0 * varrho * f
        a = a + step * (X.T @ resid) / n
        norm = float(np.linalg.norm(a))
        if norm > c_A:
            a *= c_A / norm
        b = float(np.clip(b + step * resid.mean(), -c_B, c_B))
        f = X @ a + b
        obj = float(np.mean(tau * f - varrho * f * f))
        if obj > best:
            best = obj
    return best


def ref_gen_dgp2(cfg, eps):
    """The per-item VARMA(1, 1) loop over one (burn_in + T, 2) residual path."""
    total = cfg.burn_in + cfg.T
    out = np.empty((total, 2))
    prev_x = np.zeros(2)
    prev_e = np.zeros(2)
    for t in range(total):
        x = iv.dgp.PHI @ prev_x + eps[t] - iv.dgp.GAMMA @ prev_e
        out[t] = x
        prev_x = x
        prev_e = eps[t]
    return out[cfg.burn_in :]


def ref_gen_dgp1(cfg, rng):
    """The per-item truncated-series body: each chunk's terms, then its residuals."""
    L = cfg.truncation_L
    pis = np.arange(1, L + 1, dtype=np.float64) ** -2 / math.sqrt(3.0)
    mean = pis[0] * (iv.dgp.PHI @ np.ones(2))
    chol = iv.dgp._residual_cholesky(cfg.rho)
    out = np.empty((cfg.T, 2))
    for start in range(0, cfg.T, iv.dgp._DGP1_CHUNK):
        stop = min(start + iv.dgp._DGP1_CHUNK, cfg.T)
        nt = stop - start
        block = np.broadcast_to(mean, (nt, 2)).copy()
        if L > 1:
            z = rng.standard_normal((nt, L - 1, 2)) @ chol.T
            block += np.einsum("l,tlj->tj", pis[1:], z) @ iv.dgp.PHI.T
        block += rng.standard_normal((nt, 2)) @ chol.T
        out[start:stop] = block
    return out


def ref_gen_dgp3(cfg, rng):
    """The per-item MA(1) body over one (T, 2) residual path."""
    eps = iv.dgp.sample_residuals(cfg.rho, rng, cfg.T)
    lagged = np.vstack([np.zeros((1, 2)), eps[:-1]])
    return eps - lagged @ iv.dgp.GAMMA.T


def ref_gen(dgp_id, cfg, rng):
    """One (T, 2) path of process `dgp_id`, drawn from `rng` by its per-item body."""
    if dgp_id == 1:
        return ref_gen_dgp1(cfg, rng)
    if dgp_id == 2:
        return ref_gen_dgp2(cfg, iv.dgp.sample_residuals(cfg.rho, rng, cfg.burn_in + cfg.T))
    return ref_gen_dgp3(cfg, rng)


REF_PROCESSES = (1, 2, 3)


def ref_bounds(cr):
    """The [lower, upper] bounds of a (T, 2) (center, range) path."""
    return np.stack([cr[:, 0] - cr[:, 1], cr[:, 0] + cr[:, 1]], axis=-1)


def _ref_cfg(rho, T, truncation_L, burn_in):
    return iv.DgpConfig(rho=rho, T=T, truncation_L=truncation_L, burn_in=burn_in)


def ref_build_univariate(dgp_id, per_class_n, T, rho_grid, seed=0, truncation_L=100,
                         burn_in=100):
    items, item_index = [], 0
    for label, rho in enumerate(rho_grid, start=1):
        cfg = _ref_cfg(rho, T, truncation_L, burn_in)
        for _ in range(per_class_n):
            cr = ref_gen(dgp_id, cfg, iv.dgp._item_rng(seed, item_index))
            items.append((iv.IntervalSeries(ref_bounds(cr)), label))
            item_index += 1
    return ref_dataset(items)


def ref_build_c1(per_class_n, T, rho_grid, seed=0, truncation_L=100, burn_in=100):
    items, item_index = [], 0
    for label, dgp_id in enumerate(REF_PROCESSES, start=1):
        for _ in range(per_class_n):
            rows = []
            for dim, rho in enumerate(rho_grid):
                cfg = _ref_cfg(rho, T, truncation_L, burn_in)
                cr = ref_gen(dgp_id, cfg, iv.dgp._item_rng(seed, item_index, dim))
                rows.append(ref_bounds(cr))
            items.append((iv.MvIntervalSeries(np.stack(rows)), label))
            item_index += 1
    return ref_dataset(items)


def ref_build_c2(per_class_n, T, rho_grid, seed=0, truncation_L=100, burn_in=100):
    items, item_index = [], 0
    for label, rho in enumerate(rho_grid, start=1):
        cfg = _ref_cfg(rho, T, truncation_L, burn_in)
        for _ in range(per_class_n):
            rows = []
            for dim, dgp_id in enumerate(REF_PROCESSES):
                cr = ref_gen(dgp_id, cfg, iv.dgp._item_rng(seed, item_index, dim))
                rows.append(ref_bounds(cr))
            items.append((iv.MvIntervalSeries(np.stack(rows)), label))
            item_index += 1
    return ref_dataset(items)


def ref_build_mix(per_class_n, T, rho, seed=0, truncation_L=100, burn_in=100):
    items, item_index = [], 0
    for label, dgp_id in enumerate(REF_PROCESSES, start=1):
        cfg = _ref_cfg(rho, T, truncation_L, burn_in)
        for _ in range(per_class_n):
            cr = ref_gen(dgp_id, cfg, iv.dgp._item_rng(seed, item_index))
            items.append((iv.IntervalSeries(ref_bounds(cr)), label))
            item_index += 1
    return ref_dataset(items)


def ref_split_indices(labels, train_fraction, seed=0):
    """The stratified split as it drew from numpy's own generator."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    by_class = defaultdict(list)
    for idx, label in enumerate(labels):
        by_class[label].append(idx)
    rng = np.random.default_rng([int(seed), 24301])
    train_idx, test_idx = [], []
    for label in sorted(by_class):
        idx = by_class[label]
        if len(idx) < 2:
            raise ValueError(f"class {label} has {len(idx)} item(s); need at least 2 to split")
        n_train = min(max(int(round(train_fraction * len(idx))), 1), len(idx) - 1)
        chosen = {idx[p] for p in rng.permutation(len(idx))[:n_train]}
        train_idx.extend(i for i in idx if i in chosen)
        test_idx.extend(i for i in idx if i not in chosen)
    return sorted(train_idx), sorted(test_idx)


# ---------------------------------------------------------------------------
# fixtures at the benchmark's shapes


def _uni(per_class, T, seed=0):
    return iv.build_univariate_dataset(2, per_class_n=per_class, T=T, seed=seed)


def _c1(per_class, T, seed=0):
    return iv.build_multivariate_c1(per_class_n=per_class, T=T, seed=seed)


def assert_same_dataset(a, b):
    assert a.n_classes == b.n_classes
    assert len(a) == len(b)
    for (sa, la), (sb, lb) in zip(zip(a.series(), a.labels()), zip(b.series(), b.labels())):
        assert type(sa) is type(sb)
        assert sa == sb
        assert la == lb


# ---------------------------------------------------------------------------
# dataset builders


GRID = iv.dgp.DEFAULT_RHO_GRID


class TestBuilders:
    @pytest.mark.parametrize(
        "build,ref",
        [
            *[(lambda g=g: iv.build_univariate_dataset(g, 3, 20, GRID, seed=4),
               lambda g=g: ref_build_univariate(g, 3, 20, GRID, seed=4)) for g in (1, 2, 3)],
            (lambda: iv.build_univariate_dataset(1, 2, 9, (0.5,), 1, truncation_L=3),
             lambda: ref_build_univariate(1, 2, 9, (0.5,), 1, truncation_L=3)),
            (lambda: iv.build_multivariate_c1(3, 20, GRID, seed=4),
             lambda: ref_build_c1(3, 20, GRID, seed=4)),
            (lambda: iv.build_multivariate_c1(2, 20, (0.3,), seed=5, burn_in=7),
             lambda: ref_build_c1(2, 20, (0.3,), seed=5, burn_in=7)),
            (lambda: iv.build_multivariate_c2(3, 20, GRID, seed=4),
             lambda: ref_build_c2(3, 20, GRID, seed=4)),
            (lambda: iv.build_multivariate_c2(2, 20, (0.3,), seed=5),
             lambda: ref_build_c2(2, 20, (0.3,), seed=5)),
            (lambda: iv.build_dgp_mix_dataset(3, 20, 0.7, seed=4),
             lambda: ref_build_mix(3, 20, 0.7, seed=4)),
        ],
    )
    def test_same_dataset(self, build, ref):
        got, want = build(), ref()
        assert np.array_equal(got.bounds, want.bounds)
        assert got.labels() == want.labels()
        assert_same_dataset(got, want)

    def test_one_dimension_c1_items_are_univariate(self):
        """A d = 1 dataset holds IntervalSeries whatever built it; c1 still
        draws its one dimension from the (seed, i, 0) streams."""
        ds = iv.build_multivariate_c1(1, 8, (0.3,))
        assert ds.dim() == 1 and not ds.multivariate
        assert all(isinstance(s, iv.IntervalSeries) for s in ds.series())
        assert np.array_equal(ds.bounds, ref_build_c1(1, 8, (0.3,)).bounds)


# ---------------------------------------------------------------------------
# the split's PCG64 stream


_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7,
          *random.Random(5).sample(range(2**40), 4)]
_KEYS = [key for seed in _SEEDS for key in ([seed], [seed, split._SPLIT_STREAM])]
# sizes on both sides of each mask boundary, up to 600
_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
          255, 256, 257, 511, 512, 513, 599, 600]


class TestSplitStream:
    """`split`'s copy of numpy's stream: each part, each permutation and the
    split itself equal numpy's."""

    @pytest.mark.parametrize("key", _KEYS, ids=str)
    def test_seeding_equals_numpys(self, key):
        ss = np.random.SeedSequence(key)
        assert split._seed_state(key) == ss.generate_state(8, np.uint32).tolist()
        want = np.random.PCG64(ss).state["state"]
        assert split._pcg64_start(key) == (want["state"], want["inc"])

    @pytest.mark.parametrize("key", _KEYS, ids=str)
    def test_permutations_equal_numpys(self, key):
        for k in _SIZES:  # each from a fresh stream
            assert split._permutation(split._draws32(*split._pcg64_start(key)), k) == (
                np.random.default_rng(key).permutation(k).tolist()), k
        # odd sizes in turn from one stream: an odd number of 32-bit draws
        # leaves a buffered high half for the next permutation
        rng, draws = np.random.default_rng(key), split._draws32(*split._pcg64_start(key))
        for k in range(1, 601, 2):
            assert split._permutation(draws, k) == rng.permutation(k).tolist(), k

    def test_split_indices_equals_numpys(self):
        r = random.Random(11)
        for _ in range(300):
            sizes = [r.randint(2, 40) for _ in range(r.randint(2, 7))]
            labels = [c for c, size in enumerate(sizes, start=1) for _ in range(size)]
            r.shuffle(labels)
            fraction = r.uniform(0.1, 0.9)
            seed = r.choice([0, 1, 2**32, r.randrange(2**33)])
            assert split.split_indices(labels, fraction, seed) == (
                ref_split_indices(labels, fraction, seed))

    def test_negative_seed_raises(self):
        for fn in (split.split_indices, ref_split_indices):
            with pytest.raises(ValueError):
                fn([1, 1, 2, 2], 0.5, -1)


# ---------------------------------------------------------------------------
# featurize(block_mean)


class TestBlockMean:
    @pytest.mark.parametrize("T", [30, 150])
    @pytest.mark.parametrize("q", [10, 7, 1])
    def test_recurrence_images(self, T, q):
        ds = _uni(2, T)
        for kernel in KERNELS:
            for series in ds.series():
                img = iv.image_series(series, CFG, iv.kernel_preset(kernel))
                fc = iv.FeatureConfig(mode="block_mean", q=q, normalize_cap=1.0)
                assert np.array_equal(iv.featurize(img, fc), ref_block_mean(img, fc))

    @pytest.mark.parametrize("N", [30, 150])
    def test_dense_random_images(self, N):
        rng = np.random.default_rng(N)
        for q in (N, N // 4, 9):
            img = iv.RecurrenceImage(rng.integers(0, 2, size=(N, N)))
            for cap in (1.0, 1e6):
                fc = iv.FeatureConfig(mode="block_mean", q=q, normalize_cap=cap)
                assert np.array_equal(iv.featurize(img, fc), ref_block_mean(img, fc))


    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(N=st.integers(1, 40), q_frac=st.floats(0, 1),
                          density=st.floats(0, 1), seed=st.integers(0, 2**16))
        def check(N, q_frac, density, seed):
            rng = np.random.default_rng(seed)
            img = iv.RecurrenceImage(rng.random((N, N)) < density)
            fc = iv.FeatureConfig(mode="block_mean", q=1 + int(q_frac * (N - 1)))
            assert np.array_equal(iv.featurize(img, fc), ref_block_mean(img, fc))

        check()


# ---------------------------------------------------------------------------
# k-NN scan


def _check_knn(train, queries, k, kernel):
    X = train.bounds
    preds = classify.knn_rows(X, train.labels(), [q.grid for q in queries], k, kernel)
    for q, pred in zip(queries, preds):
        want, dists = ref_knn(train, q, k, kernel)
        assert pred == want
        assert classify.knn_classify(train, q, k, kernel) == want
        assert np.array_equal(grid_dk_squared(q.grid[None, None], X[None], kernel)[0], dists)


class TestKnnScan:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_univariate(self, kernel):
        train, test = iv.train_test_split(_uni(120, 150), 0.8, seed=1)
        queries = test.series()[::15]
        for k in (1, 3):
            _check_knn(train, queries, k, iv.kernel_preset(kernel))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_multivariate(self, kernel):
        train, test = iv.train_test_split(_c1(50, 150), 0.8, seed=1)
        queries = test.series()[::5]
        for k in (1, 3):
            _check_knn(train, queries, k, iv.kernel_preset(kernel))

    @pytest.mark.parametrize("block", [1, 100, 700])
    def test_blocking_does_not_change_results(self, monkeypatch, block):
        # blocks smaller than one query (train items split) and than a few
        train, test = iv.train_test_split(_c1(6, 20), 0.5, seed=2)
        queries = test.series()
        kernel = iv.kernel_preset("K5")
        want = [ref_knn(train, q, 3, kernel)[0] for q in queries]
        monkeypatch.setattr(classify, "BLOCK_BYTES", 8 * block)  # block floats
        grids = [q.grid for q in queries]
        assert classify.knn_rows(train.bounds, train.labels(), grids, 3, kernel) == want

    @pytest.mark.parametrize("queries,items", [(1, 5), (4, None)],
                             ids=["ragged-item-blocks", "ragged-query-blocks"])
    def test_one_work_set_per_call(self, monkeypatch, queries, items):
        """knn_rows hands pair_dk_squared views of one preallocated work set
        in every block, and each block's distances are bit for bit those of
        a block that allocates its own arrays, the last block of items or of
        queries being smaller than the others (d = 5, k = 3)."""
        train, test = iv.train_test_split(_c1(9, 7), 0.5, seed=3)
        X, Q = train.bounds, test.bounds
        kernel = iv.kernel_preset("K5")
        per_item = 5 * 7
        budget = items or len(X) * queries  # floats: `items` items, or all items
        monkeypatch.setattr(classify, "BLOCK_BYTES", 8 * per_item * budget)
        calls = []
        original = intervals.pair_dk_squared

        def spy(a, b, k, work=None):
            assert work is not None and all(w.flags.c_contiguous for w in work)
            calls.append((tuple(w.__array_interface__["data"][0] for w in work),
                          work[0].shape[:2]))
            out = original(a, b, k, work)
            assert out.tobytes() == original(a, b, k).tobytes()
            return out

        monkeypatch.setattr(intervals, "pair_dk_squared", spy)
        preds = classify.knn_rows(X, train.labels(), Q, 3, kernel)
        monkeypatch.undo()
        assert len({addresses for addresses, _ in calls}) == 1
        shapes = [shape for _, shape in calls]
        assert shapes[0] == (queries, items or len(X))
        assert len(set(shapes)) == 2  # the last block is ragged
        assert len(X) % 5 and len(Q) % 4  # so that it is
        assert preds == [ref_knn(train, q, 3, kernel)[0] for q in test.series()]

    @pytest.mark.parametrize("error,reshape", [
        (LengthMismatch, lambda Q: Q[:, :, :1]),
        (DimensionMismatch, lambda Q: np.concatenate([Q, Q], axis=1)),
    ], ids=["T", "d"])
    def test_query_shape_checked(self, error, reshape):
        """A query block of another T or d raises what knn_classify raises for
        one such query, with the same message, where the scan would broadcast."""
        train = _uni(4, 20)
        Q = reshape(train.bounds[:3])
        kernel = iv.kernel_preset("K4")
        with pytest.raises(error) as want:
            classify.knn_classify(train, iv.MvIntervalSeries(Q[0]), 1, kernel)
        with pytest.raises(error) as got:
            classify.knn_rows(train.bounds, train.labels(), Q, 1, kernel)
        assert str(got.value) == str(want.value)

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            n=st.integers(1, 7), d=st.integers(1, 3), T=st.integers(1, 5),
            k_frac=st.floats(0, 1), entries=st.tuples(*[st.floats(-2, 2)] * 3),
            seed=st.integers(0, 2**16), mv=st.booleans(),
        )
        def check(n, d, T, k_frac, entries, seed, mv):
            rng = np.random.default_rng(seed)
            # few distinct values, so that distance and vote ties occur
            grid = rng.integers(-2, 3, size=(n + 2, d, T, 2)) * 0.5
            if mv or d > 1:
                series = [iv.MvIntervalSeries(g) for g in grid]
            else:
                series = [iv.IntervalSeries(g[0]) for g in grid]
            labels = rng.integers(1, 4, size=n).tolist()
            train = iv.LabeledDataset(grid[:n], labels)
            k = 1 + int(k_frac * (n - 1))
            _check_knn(train, series[n:], k, iv.Kernel2x2(*entries))

        check()

    @pytest.mark.parametrize("make", [_uni, _c1])
    @pytest.mark.parametrize("self_test,k,fraction,seed,runs",
                             [(False, 1, 0.8, 0, 3), (True, 3, 0.8, 0, 2), (False, 2, 0.6, 4, 2)])
    def test_cli_matches_split_datasets(self, tmp_path, make, self_test, k, fraction, seed,
                                        runs):
        """`classify --mode knn` scans the split's rows of the dataset array;
        each run reports the accuracy of `knn_classify` on the series of the
        datasets `train_test_split` makes (the whole dataset under --self-test)."""
        ds = make(6, 20)
        iv.save_dataset_csv(ds, tmp_path / "ds.csv")
        argv = ["classify", "--data", tmp_path / "ds.csv", "--mode", "knn", "--kernel", "K5",
                "--k", k, "--train-fraction", fraction, "--seed", seed, "--runs", runs,
                *(["--self-test"] if self_test else []), "--outdir", tmp_path / "out"]
        assert _run("classify", cli.cmd_classify, list(map(str, argv)))[::2] == (0, "")
        want = ["run,kernel,dgp,seed,accuracy"]
        for r in range(runs):
            train, test = (ds, ds) if self_test else iv.train_test_split(ds, fraction, seed + r)
            preds = [classify.knn_classify(train, q, k, iv.kernel_preset("K5"))
                     for q in test.series()]
            want.append(f"{r},K5,ds,{seed + r},{classify.accuracy(preds, test.labels())!r}")
        assert (tmp_path / "out" / "report.csv").read_text().splitlines() == want


# ---------------------------------------------------------------------------
# series distance


ALL_KERNELS = ("K1", "K2", "K3", "K4", "K5")


def _scanned(monkeypatch, x1, x2, kernel):
    """The distance `knn_rows` votes on for query x1 against the one item x2."""
    seen = []
    monkeypatch.setattr(classify, "_vote", lambda dists, labels, k: seen.append(dists) or 1)
    classify.knn_rows(x2.grid[None], [1], x1.grid[None], 1, kernel)
    (dists,) = seen
    return float(dists[0])


class TestSeriesDistance:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("d,T", [(5, 1), (5, 150), (3, 1), (3, 150)])
    def test_multivariate(self, monkeypatch, kernel, d, T):
        """On multivariate series the distance is the k-NN scan's, and the
        per-dimension distances added in index order."""
        rng = np.random.default_rng(d * T)
        k = iv.kernel_preset(kernel)
        for _ in range(3):
            x1, x2 = (iv.MvIntervalSeries(rng.normal(size=(d, T, 2))) for _ in range(2))
            got = series_dk_squared(x1, x2, k)
            assert got == _scanned(monkeypatch, x1, x2, k)
            want = 0.0
            for a, b in zip(x1.dimensions(), x2.dimensions(), strict=True):
                want += series_dk_squared(a, b, k)
            assert got == want

    def test_univariate_against_one_dimension(self):
        rng = np.random.default_rng(0)
        bounds = rng.normal(size=(12, 2))
        uni, mv = iv.IntervalSeries(bounds), iv.MvIntervalSeries(rng.normal(size=(1, 12, 2)))
        k = iv.kernel_preset("K5")
        assert series_dk_squared(uni, mv, k) == ref_series_dk_squared(uni, mv.dimension(0), k)
        assert series_dk_squared(uni, iv.MvIntervalSeries(bounds[None]), k) == 0.0

    @pytest.mark.parametrize("error,shapes", [
        (DimensionMismatch, ((3, 10, 2), (5, 10, 2))),
        (LengthMismatch, ((3, 10, 2), (3, 12, 2))),
    ], ids=["d", "T"])
    def test_shape_mismatch_messages(self, error, shapes):
        """A pair of another d or T raises what `knn_rows` raises for the same shapes."""
        x1, x2 = (iv.MvIntervalSeries(np.zeros(shape)) for shape in shapes)
        k = iv.kernel_preset("K4")
        with pytest.raises(error) as got:
            series_dk_squared(x1, x2, k)
        with pytest.raises(error) as want:
            classify.knn_rows(x2.grid[None], [1], x1.grid[None], 1, k)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("T", [1, 7, 150])
    def test_univariate_bytes(self, kernel, T):
        """On univariate series the distance is the per-step form summed over T."""
        k = iv.kernel_preset(kernel)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x1, x2 = (iv.IntervalSeries(rng.normal(size=(T, 2)) * 3) for _ in range(2))
            assert series_dk_squared(x1, x2, k) == ref_series_dk_squared(x1, x2, k)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_overflow_warns(self, kernel):
        x1, x2 = iv.IntervalSeries([[0.0, 1e200]]), iv.IntervalSeries([[0.0, -1e200]])
        k = iv.kernel_preset(kernel)
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = series_dk_squared(x1, x2, k)
        with np.errstate(over="ignore"):
            assert got == ref_series_dk_squared(x1, x2, k) == math.inf


class TestPairKernel:
    """`pair_dk_squared`, the one array form imaging and the k-NN scan call, is
    the scalar `dk_squared` at every pair, bit for bit, overflows included."""

    @staticmethod
    def _bits(x):
        return np.asarray(x, dtype=np.float64).view(np.uint64)

    # entries that are not powers of two, or a reassociated product would agree
    @pytest.mark.parametrize("kernel", ALL_KERNELS + ("1,2,1", "0.3,0.7,1.1"))
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 3e7, 1e150, 1e155, 1e200])
    def test_equals_scalar_reference(self, kernel, scale):
        k = iv.parse_kernel(kernel)
        rng = np.random.default_rng(int(math.log10(scale)) + 10)
        a, b = rng.normal(size=(9, 1, 2)) * scale, rng.normal(size=(1, 7, 2)) * scale
        a[0, 0] = b[0, 0]  # one zero distance
        want = [[iv.dk_squared(iv.Interval(*x), iv.Interval(*y), k) for y in b[0]] for x in a[:, 0]]
        work = np.empty((4, 9, 7))
        listed = [np.empty((9, 7)) for _ in range(4)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = pair_dk_squared(a, b, k)
            into = pair_dk_squared(a, b, k, work)
            assert pair_dk_squared(a, b, k, listed) is listed[3]
        assert got.shape == into.shape == (9, 7)
        for result in (got, into, listed[3]):
            assert np.array_equal(self._bits(result), self._bits(want))
        assert np.shares_memory(into, work[3]) and np.array_equal(into, work[3], equal_nan=True)
        if scale == 1e200:
            assert not np.isfinite(got).all()

    def test_overflow_warns_without_errstate(self):
        k = iv.kernel_preset("K4")
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = pair_dk_squared(np.array([0.0, 1e200]), np.array([0.0, -1e200]), k)
        assert got == math.inf


# ---------------------------------------------------------------------------
# dataset CSV


_FIELDS = ("item", "dim", "t", "lower", "upper", "label")


def _set(rows, which, **fields):
    """The CSV rows with the given fields of rows `which` replaced: by a
    string, or by a function of the field's integer value."""
    rows = list(rows)
    for r in which:
        parts = rows[r].split(",")
        for name, value in fields.items():
            k = _FIELDS.index(name)
            parts[k] = str(value(int(parts[k])) if callable(value) else value)
        rows[r] = ",".join(parts)
    return rows


def _same(rows, r, *names):
    """Indices of the rows that share row r's values of the named fields."""
    key = [rows[r].split(",")[_FIELDS.index(n)] for n in names]
    return [i for i, row in enumerate(rows) if [row.split(",")[_FIELDS.index(n)] for n in names] == key]


# One fault each, injected at row r of a sorted dataset CSV body.
_FAULTS = {
    "none": lambda rs, r: rs,
    "label": lambda rs, r: _set(rs, [r], label=lambda c: c + 1),
    "repeat": lambda rs, r: rs[: r + 1] + _set([rs[r]], [0], lower="9.5") + rs[r + 1 :],
    "drop": lambda rs, r: rs[:r] + rs[r + 1 :],
    "shift-t": lambda rs, r: _set(rs, _same(rs, r, "item", "dim"), t=lambda t: t + 1),
    "non-finite": lambda rs, r: _set(rs, [r], **{("lower", "upper")[r % 2]: ("inf", "nan", "-inf")[r % 3]}),
    "label-below-1": lambda rs, r: _set(rs, _same(rs, r, "item"), label=r % 2 - 1),
    "item-id": lambda rs, r: _set(rs, _same(rs, r, "item"), item=lambda i: -7 - i),
    "dim-id": lambda rs, r: _set(rs, _same(rs, r, "item", "dim"), dim=lambda j: j + 5),
    "drop-group": lambda rs, r: [row for i, row in enumerate(rs) if i not in _same(rs, r, "item", "dim")],
    "fields": lambda rs, r: rs[:r] + [rs[r] + ",1"] + rs[r + 1 :],
    "malformed": lambda rs, r: _set(rs, [r], t="1.5"),
}


class TestCsvLoader:
    @pytest.mark.parametrize("make", [lambda: _uni(120, 150), lambda: _c1(10, 150)])
    def test_benchmark_shapes(self, tmp_path, make):
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(make(), path)
        assert_same_dataset(iv.load_dataset_csv(path), ref_load_csv(path))
        (tmp_path / "ds.csv.npz").unlink()  # and parsed
        assert_same_dataset(iv.load_dataset_csv(path), ref_load_csv(path))

    def test_shuffled_duplicated_and_blank_lines(self, tmp_path):
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(_c1(2, 12), path)
        lines = path.read_text().splitlines()
        body = lines[1:]
        random.Random(0).shuffle(body)
        # a repeated (item, dim, t) keeps its last row
        body.append(body[10].rsplit(",", 3)[0] + ",9.5,9.5," + body[10].rsplit(",", 1)[1])
        body[5:5] = ["", "   ", "\t"]
        path.write_text("\n" + "\n".join([lines[0]] + body) + "\n \n")
        assert_same_dataset(iv.load_dataset_csv(path), ref_load_csv(path))
        plain = tmp_path / "plain.csv"
        plain.write_text("\n".join([lines[0]] + [b for b in body if b.strip()]) + "\n")
        assert_same_dataset(iv.load_dataset_csv(plain), ref_load_csv(plain))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda ls: ["item,dim,t,lower,upper"] + ls[1:],
            lambda ls: ls[:4] + ["0,0,3,1.0,2.0"] + ls[5:],
            lambda ls: ls[:4] + ["0,0,3,1.0,2.0,1,7"] + ls[5:],
            lambda ls: ls[:4] + ["0,0,3,abc,2.0,1"] + ls[5:],
            lambda ls: ls[:4] + ["0,0,3.0,1.0,2.0,1"] + ls[5:],
            lambda ls: ls[:6] + [ls[2].rsplit(",", 1)[0] + ",2"] + ls[7:],
            lambda ls: ls[:3] + ls[4:],
            lambda ls: ls + ["99,0,0,1.0,2.0,1", "99,1,0,1.0,2.0,1"],
            lambda ls: ls[:1],
            lambda ls: [],
        ],
    )
    def test_same_errors(self, tmp_path, mutate):
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(_uni(2, 8), path)
        path.write_text("\n".join(mutate(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError) as want:
            ref_load_csv(path)
        with pytest.raises(ValueError) as got:
            iv.load_dataset_csv(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda rs: _set(rs, [7], label="2"),  # a label change mid-item
            lambda rs: rs[:8] + _set([rs[7]], [0], lower="9.5") + rs[8:],  # last kept
            lambda rs: _set(rs, range(25, 30), t=lambda t: t + 1),  # t from 1
            lambda rs: _set(rs, [25], t="-1"),  # t from -1, skipping 0
            lambda rs: rs[:32] + rs[33:],  # a gap
            lambda rs: _set(rs, range(75), item=lambda i: (-4, 3, 10)[i]),
            lambda rs: _set(rs, range(75), dim=lambda j: (3, 7, 8, 12, 20)[j]),
            lambda rs: rs[:45] + rs[50:],  # item 1 has one dim fewer
            lambda rs: [r for r in rs if r.split(",")[0] != "2" or r.split(",")[2] != "4"],
            lambda rs: _set(rs, [74], lower="inf"),
            lambda rs: _set(rs, range(50, 75), label="0"),
            lambda rs: _set(_set(rs, range(50, 75), label="0"), range(25), label="-1"),
        ],
        ids=["label-mid-item", "repeated-row", "t-from-1", "t-from-minus-1", "gap", "item-ids",
             "dims-3-and-7", "dim-fewer", "shorter-item", "non-finite-last", "label-0",
             "labels-0-and-negative"],
    )
    def test_sorted_file_faults(self, tmp_path, mutate):
        """Faults in files that stay in (item, dim, t) order, where the loader
        checks each row against the one before it."""
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(_c1(1, 5), path)  # 3 items x 5 dims x T = 5, labels 1, 2, 3
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + mutate(rows)) + "\n")
        assert_loads_as_reference(path)

    def test_saved_file_is_not_sorted(self, tmp_path, monkeypatch):
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(_c1(2, 7), path)
        monkeypatch.setattr(np, "lexsort", None)
        assert np.array_equal(iv.load_dataset_csv(path).bounds, _c1(2, 7).bounds)

    def test_property_one_fault(self, tmp_path):
        """A file, shuffled or not, with at most one injected fault loads as
        the reference does: the same dataset, or the same error text."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        path = tmp_path / "ds.csv"

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            n=st.integers(1, 4), d=st.integers(1, 3), T=st.integers(1, 5),
            fault=st.sampled_from(sorted(_FAULTS)), at=st.integers(0, 10**6),
            shuffle=st.booleans(), seed=st.integers(0, 2**16),
        )
        def check(n, d, T, fault, at, shuffle, seed):
            rng = np.random.default_rng(seed)
            bounds = rng.standard_normal((n, d, T, 2)).round(3)
            labels = rng.integers(1, 4, size=n)
            iv.save_dataset_csv(iv.LabeledDataset(bounds, labels), path)
            header, *rows = path.read_text().splitlines()
            rows = _FAULTS[fault](rows, at % len(rows))
            if shuffle:
                random.Random(seed).shuffle(rows)
            path.write_text("\n".join([header] + rows) + "\n")
            assert_loads_as_reference(path)

        check()

    @pytest.mark.parametrize("make", [lambda: _uni(120, 150), lambda: _c1(10, 150)])
    def test_writer_same_bytes(self, tmp_path, make):
        ds = make()
        ref_save_dataset_csv(ds, tmp_path / "want.csv")
        iv.save_dataset_csv(ds, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_writer_extreme_values(self, tmp_path):
        """d = 3, twelve items with labels up to 12, and bounds whose repr is
        unusual: -0.0, the least subnormal, 1e22 and 1e-7."""
        rng = np.random.default_rng(8)
        bounds = rng.standard_normal((12, 3, 5, 2)) * 10.0 ** rng.integers(-300, 300, (12, 3, 5, 2))
        bounds[0, 0, :2] = [[-0.0, 5e-324], [1e22, 1e-7]]
        bounds[11, 2, 4] = [-5e-324, -1e22]
        ds = iv.LabeledDataset(bounds, np.arange(12, 0, -1))
        ref_save_dataset_csv(ds, tmp_path / "want.csv")
        iv.save_dataset_csv(ds, tmp_path / "got.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b"\n0,0,0,-0.0,5e-324,12\n0,0,1,1e+22,1e-07,12\n" in got
        assert got.endswith(b"\n11,2,4,-5e-324,-1e+22,1\n")
        assert np.array_equal(iv.load_dataset_csv(tmp_path / "got.csv").bounds, bounds)

    def test_property(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        path = tmp_path / "ds.csv"

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(
            n=st.integers(1, 5), d=st.integers(1, 3), T=st.integers(1, 6),
            seed=st.integers(0, 2**16),
        )
        def check(n, d, T, seed):
            rng = np.random.default_rng(seed)
            grid = rng.standard_normal((n, d, T, 2)) * 10.0 ** rng.integers(-5, 6, (n, d, T, 2))
            labels = rng.integers(1, 4, size=n).tolist()
            iv.save_dataset_csv(iv.LabeledDataset(grid, labels), path)
            lines = path.read_text().splitlines()
            body = lines[1:]
            random.Random(seed).shuffle(body)
            path.write_text("\n".join([lines[0]] + body) + "\n")
            loaded = iv.load_dataset_csv(path)
            assert_same_dataset(loaded, ref_load_csv(path))
            assert np.array_equal(loaded.bounds, grid)

        check()


# ---------------------------------------------------------------------------
# train and the Monte-Carlo draw


class TestTrainOracle:
    # p <= n runs the primal loop with the reference's bytes; p > n runs the
    # Gram (dual) form, which sums in another order: its weights, biases and
    # risk are pinned within 1e-12 and its predictions exactly
    @pytest.mark.parametrize(
        "n,p,C,steps",
        [(480, 100, 5, 500), (120, 22500, 3, 60), (60, 60, 3, 200), (60, 61, 3, 200),
         # n mod 8 of 1 and 7, and p = n + 1 at n = 8: shapes where BLAS may
         # take another path for the one X @ X.T product
         (121, 300, 3, 60), (127, 2500, 3, 60), (8, 9, 3, 200)],
    )
    @pytest.mark.parametrize("kind", ["hinge", "squared_hinge", "exponential"])
    def test_benchmark_shapes(self, n, p, C, steps, kind):
        rng = np.random.default_rng(p)
        X = rng.random((n, p))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = np.arange(n) % C + 1
        model = iv.train(X, y, kind=kind, steps=steps)
        w, b = ref_train(X, y, kind, steps)
        if p <= n:
            assert np.array_equal(model.weights, w)
            assert np.array_equal(model.biases, b)
            return
        assert np.allclose(model.weights, w, atol=1e-12, rtol=0)
        assert np.allclose(model.biases, b, atol=1e-12, rtol=0)
        ref = iv.LinearClassifier(w, b)
        for Z in (X, rng.random((40, p))):
            assert np.array_equal(classify.predict_rows(model, Z),
                                  classify.predict_rows(ref, Z))
        assert abs(iv.empirical_phi_risk(model, X, y, kind)
                   - iv.empirical_phi_risk(ref, X, y, kind)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_gram_keeps_primal(self, scale):
        # X X^T overflows, so p > n runs the primal loop and its zero model
        rng = np.random.default_rng(0)
        X = rng.random((12, 40)) * scale
        y = np.arange(12) % 3 + 1
        model = iv.train(X, y, steps=20)
        with np.errstate(over="ignore"):
            w, b = ref_train(X, y, "hinge", 20)
        assert np.array_equal(model.weights, w)
        assert np.array_equal(model.biases, b)
        assert np.array_equal(classify.predict_rows(model, X),
                              classify.predict_rows(iv.LinearClassifier(w, b), X))

    @pytest.mark.parametrize("kind", ["hinge", "squared_hinge", "exponential"])
    def test_identical_rows_give_the_zero_model(self, kind):
        # mv-c1's collapse: every image is the identity, so every feature row
        # is equal and no iterate's risk may fall below the zero model's, in
        # either form, by rounding (the primal reference runs the CLI's
        # default loss only, as it takes seconds at this shape)
        row = np.eye(150).ravel()
        X = np.tile(row / np.linalg.norm(row), (120, 1))
        y = np.arange(120) % 3 + 1
        model = iv.train(X, y, kind=kind, steps=500)
        assert not model.weights.any() and not model.biases.any()
        if kind == "hinge":
            w, b = ref_train(X, y, kind, 500)
            assert not w.any() and not b.any()


def bit_rows(n, N, cap, seed):
    """The flatten FeatureRows of n random N x N images of densities from 0.5%
    to 30%, under the norm cap `cap`; image 1 is all zero."""
    rng = np.random.default_rng(seed)
    images = rng.random((n, N, N)) < rng.uniform(0.005, 0.3, (n, 1, 1))
    images[1] = False
    return classify.feature_matrix(images, n, classify.FeatureConfig("flatten", 1, cap))


class TestBitOracle:
    # flatten rows train from their packed bits: the Gram from exact pixel
    # counts, the weights from column chunks.  p = 1369 spans two chunks of
    # 1024 columns and, like p = 9, is not a multiple of 8; cap 0.5 scales
    # every row with a set pixel, cap 5 most rows of p = 1369 and none of p = 9
    @pytest.mark.parametrize("N", [3, 37])
    @pytest.mark.parametrize("cap", [0.5, 5.0])
    def test_gram(self, N, cap):
        F = bit_rows(40, N, cap, N)
        assert F.p % 8 and F.p % classify._BIT_CHUNK and not F.rows[1].any()
        for idx in (slice(None), [5, 1, 0, 17, 5, 39, 2], slice(3, 30, 2)):
            X = F.subset(idx).take()
            G = F.subset(idx).gram()
            assert np.allclose(G, X @ X.T, rtol=1e-14, atol=0)
            assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("kind", ["hinge", "squared_hinge", "exponential"])
    def test_train_from_bits(self, kind):
        F, fresh = bit_rows(60, 37, 5.0, 1), bit_rows(40, 37, 5.0, 2).take()
        y = np.random.default_rng(3).integers(1, 4, 60)
        idx = np.random.default_rng(4).permutation(60)[:48].tolist()
        model = iv.train(F.subset(idx), y[idx], kind=kind, steps=200)
        X = F.subset(idx).take()
        ref = iv.train(X, y[idx], kind=kind, steps=200)
        assert model.weights.any()
        assert np.allclose(model.weights, ref.weights, atol=1e-12, rtol=0)
        assert np.allclose(model.biases, ref.biases, atol=1e-12, rtol=0)
        for Z in (X, fresh):
            assert np.array_equal(classify.predict_rows(model, Z),
                                  classify.predict_rows(ref, Z))

    @pytest.mark.parametrize("kind", ["hinge", "squared_hinge", "exponential"])
    def test_identical_rows_give_the_zero_model(self, kind):
        # TestTrainOracle's case of mv-c1's collapse, from packed bits
        images = [np.eye(150, dtype=np.uint8)] * 120
        F = classify.feature_matrix(images, 120, classify.FeatureConfig())
        model = iv.train(F, np.arange(120) % 3 + 1, kind=kind, steps=500)
        assert not model.weights.any() and not model.biases.any()

    @pytest.mark.parametrize("mode,N", [("flatten", 6), ("block_mean", 12)])
    def test_primal_rows_train_as_floats(self, mode, N):
        # packed bits with p <= n, and block means, train on take's float64 rows
        rng = np.random.default_rng(N)
        F = classify.feature_matrix(rng.random((50, N, N)) < 0.3, 50,
                                    classify.FeatureConfig(mode, 4, 2.0))
        y = np.arange(50) % 3 + 1
        model = iv.train(F, y, steps=100)
        ref = iv.train(F.take(), y, steps=100)
        assert F.p <= 50
        assert np.array_equal(model.weights, ref.weights)
        assert np.array_equal(model.biases, ref.biases)


class TestMcOracle:
    # the CLI's caps, then caps that bind: a small c_A projects most steps
    @pytest.mark.parametrize("c_A,c_B", [(1.0, 1.0), (0.05, 0.0), (0.2, 0.01)])
    def test_draws_and_estimate(self, c_A, c_B):
        rng = np.random.default_rng([0, 4242])
        X = rng.standard_normal((50, 8))
        norms = np.linalg.norm(X, axis=1)
        X[norms > 1.0] /= norms[norms > 1.0][:, None]
        varrho = iv.optimal_varrho(1.0, 1.0, 1.0, 1.0)
        want = [ref_one_draw(X, c_A, c_B, varrho, 200, 3, i) for i in range(16)]
        got = [theory._draws(X, c_A, c_B, varrho, 200, 3, range(i, i + 1))[0]
               for i in range(16)]
        assert got == want
        est = iv.empirical_offset_rademacher(X, c_A, c_B, varrho, mc_draws=16,
                                             inner_steps=200, seed=3)
        assert est.value == float(np.mean(want))
        assert theory._draws(X, c_A, c_B, varrho, 0, 3, range(0, 1))[0] == 0.0


# ---------------------------------------------------------------------------
# the VARMA(1, 1) recursion over a stack of items


def _residual_stack(m, cfg, seed=0):
    total = cfg.burn_in + cfg.T
    return np.stack([iv.dgp.sample_residuals(cfg.rho, iv.dgp._item_rng(seed, i), total)
                     for i in range(m)])


class TestVarmaOracle:
    @pytest.mark.parametrize(
        "m,burn_in,T", [(1, 100, 150), (500, 100, 150), (9, 0, 150), (9, 100, 1), (4, 0, 1)]
    )
    def test_stack_matches_item_loop(self, m, burn_in, T):
        cfg = iv.DgpConfig(rho=0.7, T=T, burn_in=burn_in)
        eps = _residual_stack(m, cfg, seed=m)
        got = iv.dgp._varma11(eps)[:, burn_in:]
        want = np.stack([ref_gen_dgp2(cfg, e) for e in eps])
        assert got.shape == (m, T, 2)
        assert np.array_equal(got, want)

    def test_gen_dgp2_is_the_one_item_stack(self):
        cfg = iv.DgpConfig(rho=-0.5, T=40, burn_in=25)
        injected = np.random.default_rng(3).standard_normal((65, 2)) * 10.0
        assert np.array_equal(iv.dgp._varma11(injected[None])[0, cfg.burn_in :],
                              ref_gen_dgp2(cfg, injected))
        eps = iv.dgp.sample_residuals(cfg.rho, iv.dgp._item_rng(4, 2), 65)
        assert np.array_equal(iv.gen_dgp2(cfg, iv.dgp._item_rng(4, 2)), ref_gen_dgp2(cfg, eps))

    def test_builder_matches_item_loop(self):
        ds = iv.build_univariate_dataset(2, per_class_n=500, T=150, rho_grid=(0.3,), seed=1)
        cfg = iv.DgpConfig(rho=0.3, T=150, burn_in=100)
        cr = np.stack([ref_gen_dgp2(cfg, e) for e in _residual_stack(500, cfg, seed=1)])
        assert np.array_equal(ds.bounds[:, 0, :, 0], cr[..., 0] - cr[..., 1])
        assert np.array_equal(ds.bounds[:, 0, :, 1], cr[..., 0] + cr[..., 1])


# ---------------------------------------------------------------------------
# every process's stack of paths, against its per-item body


def _ref_stack(dgp_id, cfg, seeds):
    return np.stack([ref_gen(dgp_id, cfg, iv.dgp._item_rng(*s)) for s in seeds])


def _stack(dgp_id, cfg, seeds):
    return iv.dgp._generate(dgp_id, cfg, [iv.dgp._item_rng(*s) for s in seeds])


class _SpyRng:
    """A generator that records the `out` array of each standard_normal call."""

    def __init__(self, rng, outs):
        self.rng, self.outs = rng, outs

    def standard_normal(self, *args, out=None, **kwargs):
        self.outs.append(out)
        return self.rng.standard_normal(*args, out=out, **kwargs)


class TestGenerateOracle:
    @pytest.mark.parametrize("T", [1, 17, 150])
    @pytest.mark.parametrize("dgp_id", REF_PROCESSES)
    def test_stack_matches_item_bodies(self, dgp_id, T):
        for m, L, burn_in, rho in itertools.product((1, 50), (1, 2, 100), (0, 100),
                                                   (-1.0, 0.0, 0.7, 1.0)):
            cfg = iv.DgpConfig(rho=rho, T=T, truncation_L=L, burn_in=burn_in)
            seeds = [(m, i) for i in range(m)]
            got = _stack(dgp_id, cfg, seeds)
            assert got.shape == (m, T, 2)
            assert np.array_equal(got, _ref_stack(dgp_id, cfg, seeds)), (m, L, burn_in, rho)

    @pytest.mark.parametrize("dgp_id", REF_PROCESSES)
    def test_generator_is_the_one_item_stack(self, dgp_id):
        gen = {1: iv.gen_dgp1, 2: iv.gen_dgp2, 3: iv.gen_dgp3}[dgp_id]
        cfg = iv.DgpConfig(rho=-0.9, T=17, truncation_L=9, burn_in=5)
        assert np.array_equal(gen(cfg, iv.dgp._item_rng(6, 1)),
                              ref_gen(dgp_id, cfg, iv.dgp._item_rng(6, 1)))

    @pytest.mark.parametrize("L", [1, 2, 100])
    def test_dgp1_past_the_chunk(self, monkeypatch, L):
        """A short last chunk: 23 steps in chunks of 7."""
        monkeypatch.setattr(iv.dgp, "_DGP1_CHUNK", 7)
        cfg = iv.DgpConfig(rho=0.7, T=23, truncation_L=L)
        seeds = [(2, i) for i in range(3)]
        assert np.array_equal(_stack(1, cfg, seeds), _ref_stack(1, cfg, seeds))

    def test_dgp1_past_the_real_chunk(self):
        cfg = iv.DgpConfig(rho=0.3, T=iv.dgp._DGP1_CHUNK + 3, truncation_L=3)
        assert np.array_equal(_stack(1, cfg, [(1, 0)]), _ref_stack(1, cfg, [(1, 0)]))

    @pytest.mark.parametrize("T", [1, 5, 17])
    def test_dgp1_budget_keeps_bytes_up_to_it(self, monkeypatch, T):
        """While L - 1 is within the budget, the steps go in pieces of
        budget // (L - 1) and every byte is kept; above it, each step's
        terms are summed in pieces, within 1e-12 of one sum."""
        monkeypatch.setattr(iv.dgp, "_DGP1_BUDGET", 8)
        seeds = [(T, i) for i in range(3)]
        for L in (2, 3, 5, 9, 10, 17, 30, 100):
            cfg = iv.DgpConfig(rho=-0.5, T=T, truncation_L=L)
            got, want = _stack(1, cfg, seeds), _ref_stack(1, cfg, seeds)
            if L - 1 <= 8:
                assert np.array_equal(got, want), L
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), L

    def test_dgp1_draws_every_path_into_one_work_array(self):
        cfg = iv.DgpConfig(rho=0.7, T=17, truncation_L=100)
        outs = [[] for _ in range(4)]
        rngs = [_SpyRng(iv.dgp._item_rng(0, i), o) for i, o in enumerate(outs)]
        got = iv.dgp._generate(1, cfg, rngs)
        assert np.array_equal(got, _ref_stack(1, cfg, [(0, i) for i in range(4)]))
        term_outs = [[a for a in o if a is not None] for o in outs]
        assert all(term_outs)
        first = term_outs[0][0]
        assert all(np.shares_memory(first, a) for o in term_outs for a in o)


# ---------------------------------------------------------------------------
# the Monte-Carlo ascent over blocks of draws


def _mc_features(n, p):
    X = np.random.default_rng([n, p]).standard_normal((n, p))
    norms = np.linalg.norm(X, axis=1)
    X[norms > 1.0] /= norms[norms > 1.0][:, None]
    return X


class TestMcBlocks:
    VARRHO = 0.125

    def _check(self, X, mc_draws, inner_steps, threads=1, c_A=1.0, c_B=1.0):
        want = [ref_one_draw(X, c_A, c_B, self.VARRHO, inner_steps, 5, i)
                for i in range(mc_draws)]
        est = iv.empirical_offset_rademacher(X, c_A, c_B, self.VARRHO, mc_draws=mc_draws,
                                             inner_steps=inner_steps, seed=5, threads=threads)
        assert est.value == float(np.mean(want))
        return est, want

    def test_draws_not_a_multiple_of_the_block(self, monkeypatch):
        X = _mc_features(50, 8)
        monkeypatch.setattr(classify, "BLOCK_BYTES", 8 * 8 * 50)  # blocks of 8 draws
        self._check(X, 21, 40)

    def test_wide_features_split_the_draws(self):
        X = _mc_features(30, 40000)
        assert classify.BLOCK_BYTES // 8 // 40000 < 10
        self._check(X, 10, 3, c_A=0.05)

    def test_biases_only_class(self):
        self._check(np.zeros((6, 0)), 12, 30, c_B=0.3)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_thread_count_is_ignored(self, threads):
        self._check(_mc_features(50, 8), 32, 100, threads=threads)

    def test_stderr(self):
        est, values = self._check(_mc_features(20, 5), 40, 50)
        assert est.stderr == np.std(values, ddof=1) / math.sqrt(40)
        one = iv.empirical_offset_rademacher(_mc_features(20, 5), 1.0, 1.0, self.VARRHO,
                                             mc_draws=1)
        assert math.isnan(one.stderr)
        assert math.isnan(iv.RademacherEstimate(0.5, 3, 10).stderr)


# ---------------------------------------------------------------------------
# recurrence imaging


def ref_image_series(series, cfg, kernel):
    """`image_series` as a fresh broadcast quadratic form per dimension, the
    shifted-block sum, then ``sqrt(max(q, 0)) <= epsilon``."""
    grids = series.grid
    out = None
    for bounds, eps in zip(grids, cfg.epsilon_for(grids.shape[0])):
        n = cfg.num_trajectories(len(bounds))
        b1, b2 = bounds[:, None, :], bounds[None, :, :]
        dl = b1[..., 0] - b2[..., 0]
        du = b1[..., 1] - b2[..., 1]
        point = kernel.k_pp * du * du + kernel.k_mm * dl * dl - 2.0 * kernel.k_pm * dl * du
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
    return iv.RecurrenceImage(out)


def ref_image_dataset(series_list, cfg, kernel):
    """One `ref_image_series` per item, yielded as it is made, a failure
    tagged with the item's index."""
    for i, series in enumerate(series_list):
        try:
            yield ref_image_series(series, cfg, kernel)
        except iv.IvtsError as e:
            raise type(e)(f"item {i}: {e}") from e


def _imaged(fn, *args):
    """(shape, 0/1 pixel bytes) of each image `fn` returns or yields, or (type,
    message) of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
            images = [out] if isinstance(out, iv.RecurrenceImage) else out
            pixels = [np.asarray(getattr(img, "pixels", img), np.uint8) for img in images]
    except iv.IvtsError as e:
        return type(e), str(e)
    return [(px.shape, px.tobytes()) for px in pixels]


def check_imaging(series, cfg, kernel):
    """`image_series` gives the reference's pixels or error; returns it."""
    want = _imaged(ref_image_series, series, cfg, kernel)
    assert _imaged(iv.image_series, series, cfg, kernel) == want
    return want


def _series(rng, d, T, scale=1.0):
    grid = rng.standard_normal((d, T, 2)) * scale
    return iv.IntervalSeries(grid[0]) if d == 1 else iv.MvIntervalSeries(grid)


IMAGING_KERNELS = ("K1", "K2", "K3", "K4", "K5", "1,2,1")
IMAGING_EPSILONS = (0.0, 5e-324, math.pi / 18, 0.5, 1e300)
# t is eps * eps itself, one step above it (1.34...), one step below it (the
# square of 9.42...e-160 rounds up in the subnormals), or the largest float
THRESHOLD_EPSILONS = (0.0, 5e-324, 1e-320, 1e-160, 9.422263843986697e-160, math.pi / 18, 0.5,
                      1.3436424411240122, 3.0, 5.0, 1e150, 1e154, 1.3407807929942596e154, 1e300)


class TestImagingOracle:
    @pytest.mark.parametrize("kernel", IMAGING_KERNELS)
    @pytest.mark.parametrize("eps", IMAGING_EPSILONS)
    @pytest.mark.parametrize("d, T", [(1, 1), (1, 30), (1, 150), (5, 30), (5, 150)])
    def test_kernels_and_thresholds(self, kernel, eps, d, T):
        rng = np.random.default_rng(T + d)
        check_imaging(_series(rng, d, T), iv.TrajectoryConfig(epsilon=eps),
                      iv.parse_kernel(kernel))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    @pytest.mark.parametrize("d, T", [(1, 1), (1, 30), (5, 30), (5, 150)])
    def test_embeddings(self, m, kappa, d, T):
        rng = np.random.default_rng(7 * m + kappa)
        # 1,2,1 fails on these with the same message, or images T = 1
        series = _series(rng, d, T)
        for kernel in ("K4", "K5", "1,2,1"):
            check_imaging(series, iv.TrajectoryConfig(m=m, kappa=kappa, epsilon=1.0),
                          iv.parse_kernel(kernel))

    @pytest.mark.parametrize("kernel", IMAGING_KERNELS)
    def test_indefinite_kernel_within_tolerance(self, kernel):
        # fixed lower bounds: every form is k_pp * du * du >= 0
        upper = np.random.default_rng(3).random((40, 1))
        series = iv.IntervalSeries(np.concatenate([np.zeros_like(upper), upper], axis=1))
        for eps in IMAGING_EPSILONS:
            check_imaging(series, iv.TrajectoryConfig(m=2, kappa=3, epsilon=eps),
                          iv.parse_kernel(kernel))

    @pytest.mark.parametrize("eps", [(0.5, 1.0, 0.0, 1e300, math.pi / 18), (0.7,), (0.5, 1.0)])
    def test_per_dimension_thresholds(self, eps):
        series = _series(np.random.default_rng(5), 5, 30)
        got = check_imaging(series, iv.TrajectoryConfig(epsilon=eps), iv.kernel_preset("K5"))
        assert (got[0] is iv.DimensionMismatch) == (len(eps) == 2)

    @pytest.mark.parametrize("kernel", IMAGING_KERNELS)
    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    def test_overflow_to_inf_and_nan(self, kernel, scale):
        rng = np.random.default_rng(11)
        for d in (1, 5):
            for eps in IMAGING_EPSILONS:
                for m in (1, 2):
                    check_imaging(_series(rng, d, 30, scale),
                                  iv.TrajectoryConfig(m=m, epsilon=eps), iv.parse_kernel(kernel))

    @pytest.mark.parametrize("eps", THRESHOLD_EPSILONS)
    def test_distance_exactly_at_the_threshold(self, eps):
        # under K4 with equal lower bounds the squared distance is du * du:
        # the pairs straddle eps and eps squared to the last bit
        steps = [eps, math.nextafter(eps, 0.0), math.nextafter(eps, math.inf),
                 math.sqrt(min(eps * eps, sys.float_info.max)), 0.0, 3.0 * eps / 5.0]
        upper = np.array([0.0] + steps + [4.0 * eps / 5.0])
        series = iv.IntervalSeries(np.stack([np.zeros_like(upper), upper], axis=1))
        for kernel in ("K4", "K2", "K5"):
            check_imaging(series, iv.TrajectoryConfig(epsilon=eps), iv.parse_kernel(kernel))

    def test_errors_tagged_with_the_item(self):
        rng = np.random.default_rng(9)
        fixed = np.zeros((2, 12, 2))
        fixed[..., 1] = rng.random((2, 12))
        batch = [iv.MvIntervalSeries(fixed), _series(rng, 2, 12), _series(rng, 2, 4)]
        cfg = iv.TrajectoryConfig(m=3, kappa=2, epsilon=0.5)
        for kernel in map(iv.parse_kernel, ("K4", "1,2,1")):
            want = _imaged(ref_image_dataset, batch, cfg, kernel)
            assert _imaged(imaging.image_grids, (s.grid for s in batch), cfg, kernel) == want
            assert want[0] in (iv.SeriesTooShort, iv.NegativeSquaredDistance)
            assert want[1].startswith(("item 1: ", "item 2: "))

    def test_series_of_several_lengths(self):
        rng = np.random.default_rng(10)
        batch = [_series(rng, 1, T) for T in (9, 9, 4, 9, 1, 6)]
        k5 = iv.kernel_preset("K5")
        for cfg in (iv.TrajectoryConfig(epsilon=0.8), iv.TrajectoryConfig(m=2, epsilon=0.8)):
            want = _imaged(ref_image_dataset, batch, cfg, k5)
            assert _imaged(imaging.image_grids, (s.grid for s in batch), cfg, k5) == want

    @pytest.mark.parametrize("eps", THRESHOLD_EPSILONS)
    def test_squared_threshold(self, eps):
        t = squared_threshold(eps)
        assert math.sqrt(t) <= eps and t < math.inf
        up = math.nextafter(t, math.inf)
        assert up == math.inf or math.sqrt(up) > eps
        probes = [t, up, math.nextafter(t, 0.0), 0.0, -0.0, -1e-300, -1.0, -math.inf,
                  math.inf, math.nan, eps * eps, sys.float_info.max]
        q = np.array(probes)
        with np.errstate(invalid="ignore"):
            assert ((q <= t) == (np.sqrt(np.maximum(q, 0.0)) <= eps)).all()

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        extra_np = pytest.importorskip("hypothesis.extra.numpy")

        bound = st.one_of(
            st.floats(-4.0, 4.0),
            st.sampled_from([0.0, -0.0, 0.5, 1e-160, 1e200, -1e200, 1e308, -1e308]),
        )

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            grid=extra_np.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 12),
                                                       st.just(2)), elements=bound),
            m=st.integers(1, 3),
            kappa=st.integers(1, 3),
            eps=st.lists(st.one_of(st.floats(0.0, 10.0), st.sampled_from(IMAGING_EPSILONS)),
                         min_size=1, max_size=3),
            kernel=st.one_of(
                st.sampled_from(IMAGING_KERNELS).map(iv.parse_kernel),
                st.tuples(*[st.floats(-3.0, 3.0)] * 3).map(lambda k: iv.Kernel2x2(*k)),
            ),
        )
        def check(grid, m, kappa, eps, kernel):
            series = iv.MvIntervalSeries(grid) if len(grid) > 1 else iv.IntervalSeries(grid[0])
            check_imaging(series, iv.TrajectoryConfig(m=m, kappa=kappa, epsilon=tuple(eps)),
                          kernel)

        check()


# ---------------------------------------------------------------------------
# CSV images


def ref_export_csv(img):
    return "\n".join(",".join(str(int(v)) for v in row) for row in img.pixels) + "\n"


def ref_load_csv_image(path):
    try:
        rows = [
            [int(v) for v in line.split(",")]
            for line in Path(path).read_text(encoding="ascii").splitlines()
            if line
        ]
        return iv.RecurrenceImage(np.array(rows, dtype=np.uint8))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


class TestCsvImageOracle:
    @pytest.mark.parametrize("N", [1, 2, 30, 150])
    def test_export_bytes(self, tmp_path, N):
        img = iv.RecurrenceImage(np.random.default_rng(N).integers(0, 2, size=(N, N)))
        iv.export_csv(img, tmp_path / "a.csv")
        assert (tmp_path / "a.csv").read_bytes() == ref_export_csv(img).encode("ascii")
        assert iv.load_csv_image(tmp_path / "a.csv") == ref_load_csv_image(tmp_path / "a.csv")

    @pytest.mark.parametrize(
        "text",
        [
            "0,1\r\n1,0\r\n",
            "\n0,1\n\n1,0\n",
            "0,1\n1,0",
            " 0,1\n1, 0\n",
            "1\n",
            "0,1\n1,0\n1,1\n",
            "01,1\n1,0\n",
        ],
    )
    def test_other_layouts(self, tmp_path, text):
        path = tmp_path / "a.csv"
        path.write_bytes(text.encode("ascii"))
        try:
            want = ref_load_csv_image(path)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                iv.load_csv_image(path)
            assert str(got.value) == str(e)
        else:
            assert iv.load_csv_image(path) == want

    @pytest.mark.parametrize("text", ["0,1\n1,x\n", "0,2\n1,0\n", "0,1\n1\n", ""])
    def test_same_errors(self, tmp_path, text):
        path = tmp_path / "a.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as want:
            ref_load_csv_image(path)
        with pytest.raises(ValueError) as got:
            iv.load_csv_image(path)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# ingest


REF_RAW_HEADER = ["series_id", "dim", "timestamp", "value", "label"]


def ref_ingest(eff):
    """`ingest` as a loop over csv records into nested dicts of Python lists,
    the form `cli.cmd_ingest` had before it went columnar, with the input
    rules added since: the file is read as UTF-8, a non-finite value is a
    data error, and only the labels that have a window get class ids."""
    cli._require(eff, "input", "out")
    window = eff["window"]
    stride = eff["stride"] if eff["stride"] is not None else window
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")

    readings = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    labels = {}
    try:
        with open(eff["input"], newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != REF_RAW_HEADER:
                raise cli.DataError(
                    f"{eff['input']}: expected header {','.join(REF_RAW_HEADER)}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 5:
                    raise cli.DataError(f"{eff['input']}:{lineno}: expected 5 fields")
                sid, dim, ts, value, label = (f.strip() for f in row)
                try:  # a trailing Z is UTC on every Python (3.10's fromisoformat refuses it)
                    day = datetime.fromisoformat(ts[:-1] + "+00:00" if ts.endswith("Z")
                                                 else ts).date()
                except ValueError:
                    raise cli.DataError(
                        f"{eff['input']}:{lineno}: bad ISO timestamp {ts!r}"
                    ) from None
                try:
                    v = float(value)
                except ValueError:
                    raise cli.DataError(
                        f"{eff['input']}:{lineno}: bad value {value!r}"
                    ) from None
                if not math.isfinite(v):
                    raise cli.DataError(f"{eff['input']}:{lineno}: non-finite value {value!r}")
                if sid in labels and labels[sid] != label:
                    raise cli.DataError(
                        f"{eff['input']}:{lineno}: series {sid!r} has conflicting labels"
                    )
                labels[sid] = label
                readings[sid][day][dim].append(v)
    except OSError as e:
        raise cli.DataError(f"cannot read {eff['input']}: {e}") from e
    if not readings:
        raise cli.DataError(f"{eff['input']}: no data rows")

    grids, window_labels = [], []
    dims_per_sid = set()
    for sid in sorted(readings):
        days = readings[sid]
        all_dims = sorted({d for day in days.values() for d in day})
        dims_per_sid.add(len(all_dims))
        full_days = sorted(d for d, per_dim in days.items() if len(per_dim) == len(all_dims))
        dropped = len(days) - len(full_days)
        if dropped:
            print(
                f"warning: series {sid!r}: dropped {dropped} day(s) with missing dimensions",
                file=sys.stderr,
            )
        daily = np.array(
            [[(min(days[day][dim]), max(days[day][dim])) for day in full_days] for dim in all_dims]
        ).reshape(len(all_dims), len(full_days), 2)
        for start in range(0, len(full_days) - window + 1, stride):
            grids.append(daily[:, start : start + window])
            window_labels.append(labels[sid])
    if len(dims_per_sid) > 1:
        raise cli.DataError(f"series disagree on dimension count: {sorted(dims_per_sid)}")
    if not grids:
        raise cli.DataError("no complete windows; input too short for the window length")

    label_map = {raw: i for i, raw in enumerate(sorted(set(window_labels)), start=1)}
    for raw in sorted(set(labels.values())):
        if raw not in label_map:
            print(f"warning: label {raw!r}: no series has {window} complete days, so it gets "
                  "no class id", file=sys.stderr)
    ds = iv.LabeledDataset(np.stack(grids), [label_map[raw] for raw in window_labels])
    out = Path(eff["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    iv.save_dataset_csv(ds, out)
    mapping = ", ".join(f"{raw!r}->{i}" for raw, i in sorted(label_map.items(), key=lambda kv: kv[1]))
    print(f"wrote {out}: n={len(ds)} C={len(label_map)} d={ds.dim()} T={window} labels: {mapping}")


def _run(name, command, argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` with `command` as the
    `name` command."""
    saved = cli.COMMANDS[name]
    cli.COMMANDS[name] = (saved[0], command, saved[2])
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    finally:
        cli.COMMANDS[name] = saved
    return rc, stdout.getvalue(), stderr.getvalue()


def _run_ingest(command, raw, out, opts):
    """(exit code, stdout, stderr, dataset bytes or None) of `cli.main` on
    an ingest argv, with `command` as the ingest command."""
    rc, stdout, stderr = _run(
        "ingest", command, ["ingest", "--input", str(raw), "--out", str(out), *map(str, opts)]
    )
    data = out.read_bytes() if out.exists() else None
    if data is not None:
        out.unlink()
    return rc, stdout, stderr, data


def check_ingest(tmp, text, opts=("--window", "2")):
    """Run the reference and `cmd_ingest` on the same raw text (str, or bytes
    written as they are) and require the same exit code, stdout, stderr and
    dataset bytes; returns that common result."""
    raw, out = Path(tmp) / "raw.csv", Path(tmp) / "ds.csv"
    raw.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    want = _run_ingest(ref_ingest, raw, out, opts)
    got = _run_ingest(cli.cmd_ingest, raw, out, opts)
    assert got == want
    rc, _, err, _ = got
    if rc != 0:
        assert rc in (3, 4)
        assert len(err.splitlines()) == 1 + err.count("warning: ")
        assert "Traceback" not in err
    return got


RAW_HEAD = "series_id,dim,timestamp,value,label\n"


def _raw_rows(sids=("s1", "s2"), dims=("x",), days=4, per_day=2, labels=None, start=(2021, 3, 1)):
    labels = labels or {sid: f"L{i % 2}" for i, sid in enumerate(sids)}
    rows = []
    for s, sid in enumerate(sids):
        for d in range(days):
            day = date(*start) + timedelta(days=d)
            for j, dim in enumerate(dims):
                for r in range(per_day):
                    v = round(math.sin(1 + 7 * s + 3 * d + 5 * j + r), 4)
                    rows.append(f"{sid},{dim},{day.isoformat()}T{6 * r:02d}:00:00,{v},{labels[sid]}")
    return rows


class TestIngestOracle:
    @pytest.mark.parametrize(
        "text, opts",
        [
            (RAW_HEAD + "\n".join(_raw_rows()) + "\n", ("--window", "2")),
            (RAW_HEAD + "\n".join(_raw_rows(dims=("x", "y", "z"), days=9)), ("--window", "3")),
            # --stride other than --window
            (RAW_HEAD + "\n".join(_raw_rows(days=7)) + "\n", ("--window", "3", "--stride", "2")),
            (RAW_HEAD + "\n".join(_raw_rows(days=7)) + "\n", ("--window", "2", "--stride", "5")),
            # unsorted rows, repeated readings
            (RAW_HEAD + "\n".join(sorted(_raw_rows(dims=("b", "a")) * 2, reverse=True)) + "\n",
             ("--window", "2")),
            # label L1's only series is shorter than the window: it gets no class id
            (RAW_HEAD + "\n".join(
                _raw_rows(sids=("s1", "s3"), days=5, labels={"s1": "L0", "s3": "L2"})
                + _raw_rows(sids=("s2",), days=2, labels={"s2": "L1"})) + "\n",
             ("--window", "3")),
            # CRLF line endings
            (RAW_HEAD.replace("\n", "\r\n") + "\r\n".join(_raw_rows()) + "\r\n", ("--window", "2")),
            # blank and whitespace-only lines, padded fields and header
            ("series_id , dim,timestamp ,value, label\n\n"
             + "\n  \n".join(" , ".join(r.split(",")) for r in _raw_rows()) + "\n\n",
             ("--window", "2")),
            # quoted fields holding commas and a line break
            (RAW_HEAD + "\n".join('"{},q",{},"{}\nx"'.format(sid, *rest.rsplit(",", 1))
                                  for sid, rest in (r.split(",", 1) for r in _raw_rows())),
             ("--window", "2")),
            # dims named differently per series, with the same count
            (RAW_HEAD + "\n".join(_raw_rows(sids=("s1",), dims=("a", "b"))
                                  + _raw_rows(sids=("s2",), dims=("c", "d"))) + "\n",
             ("--window", "2")),
            # offsets and date-only stamps on one local day; -0.0 and 0.0 tied
            (RAW_HEAD + "s,x,2020-01-01T23:30:00-05:00,0.0,a\ns,x,2020-01-01,-0.0,a\n"
             "s,x,2020-01-01T01:00:00+09:00,0.5,a\ns,x,2020-01-02,-0.0,a\n"
             "s,x,2020-01-02T12:00:00Z,0.0,a\ns,x,2020-01-02T13:00,-2,a\n"
             "s,x,2020-01-03,2,a\ns,x,2020-01-03,-0.0,a\ns,x,2020-01-03,0.0,a\n",
             ("--window", "1")),
            # dropped days with the warning, in sorted series order
            (RAW_HEAD + "\n".join(r for r in _raw_rows(sids=("zz", "aa", "mm"), dims=("x", "y"),
                                                       days=5)
                                  if not (r.startswith(("zz,y,2021-03-02", "mm,x,2021-03-0"))
                                          and "T06" in r)) + "\n",
             ("--window", "2")),
            # non-ASCII names, \x1c that str.strip() drops and float() keeps
            (RAW_HEAD + "é,x,2020-01-01,\x1c1.5,ü\né,x,2020-01-02,2,ü\n", ("--window", "2")),
        ],
    )
    def test_same_output(self, tmp_path, text, opts):
        rc, _, _, data = check_ingest(tmp_path, text, opts)
        assert rc == 0 and data

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "series_id,dim,timestamp,value\n",
            RAW_HEAD,
            RAW_HEAD + "\n \n",
            RAW_HEAD + "s,x,2020-01-01,1\n",
            RAW_HEAD + "s,x,2020-01-01,1,a,extra\n",
            RAW_HEAD + "s,x,notadate,1,a\n",
            RAW_HEAD + "s,x,2020-01-01,abc,a\n",
            RAW_HEAD + "s,x,2020-01-01,nan,a\n",
            RAW_HEAD + "s,x,2020-01-01,1,a\ns,x,2020-01-01T12:00:00, -inf ,a\n",
            RAW_HEAD + "s,x,2020-01-01,1,a\ns,x,2020-01-02,1,b\n",
            RAW_HEAD + "\n".join(_raw_rows(sids=("s1",), dims=("a",))
                                 + _raw_rows(sids=("s2",), dims=("a", "b"))) + "\n",
            RAW_HEAD + "s,x,2020-01-01,1,a\n",
            # the first faulty record wins, and within one the check order
            RAW_HEAD + "s,x,2020-01-01,1,a\ns,x,2020-01-01,zz,b\ns,x,bad,1,a\n",
            RAW_HEAD + "s,x,2020-01-01,1,a\ns,x,bad,zz,b\n",
            RAW_HEAD + "s,x,2020-01-01,1,a\ns,x,2020-01-01,zz,b\n",
            RAW_HEAD + "s,x,2020-01-01,1,a\ns,x,2020-01-01,1,b\ns,x\n",
            RAW_HEAD + "s,x,bad,1,a\ns,x,2020-01-01,1\n",
            # four fields and six: five on average
            RAW_HEAD + "s,x,2020-01-01,1,a\ns,x,2020-01-01,1\ns,x,2020-01-01,1,a,\n",
            RAW_HEAD + "\ns,x,2020-01-01,1,a,s,x,2020-01-01,1,a\n",
            # a quoted record over two lines counts as one
            RAW_HEAD + 's,x,2020-01-01,1,"a\nb"\ns,x,2020-01-01,1,a\n',
        ],
    )
    def test_same_errors(self, tmp_path, text):
        rc, _, _, data = check_ingest(tmp_path, text)
        assert rc in (3, 4) and data is None

    @pytest.mark.parametrize("opts", [("--window", "0"), ("--window", "2", "--stride", "0")])
    def test_numeric_errors(self, tmp_path, opts):
        rc, _, err, _ = check_ingest(tmp_path, RAW_HEAD + "\n".join(_raw_rows()) + "\n", opts)
        assert rc == 4 and err == "numeric error: window and stride must be >= 1\n"

    def test_missing_input(self, tmp_path):
        want = _run_ingest(ref_ingest, tmp_path / "none.csv", tmp_path / "o.csv", ())
        got = _run_ingest(cli.cmd_ingest, tmp_path / "none.csv", tmp_path / "o.csv", ())
        assert got == want and got[0] == 3 and got[2].startswith("data error: cannot read ")

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    @pytest.mark.parametrize(
        "tail",
        [
            "",
            's2,x,2021-03-01,1,"L1"\n',  # a quote, so csv.reader reads the rest
            's2,"x\ny",2021-03-01,1,L1\n',  # a record over two lines
            "s2,x,2021-03-01,1,L1\r\n",
            "\n\n s2 ,x,2021-03-02,1,L1\n",
            "s2,x,2021-03-02,1,L0\n",  # conflicting labels
            "s2,x,2021-03-02\n",
            "s2,x,2021-03-02,1e999,L1\n",
        ],
    )
    def test_block_boundaries(self, tmp_path, monkeypatch, block, tail):
        monkeypatch.setattr(ingest, "BLOCK_CHARS", block)
        rows = _raw_rows(days=6)
        text = RAW_HEAD + "\n".join(rows[:9]) + "\n" + tail + "\n".join(rows[9:]) + "\n"
        check_ingest(tmp_path, text)

    def test_blocks_merged_every_64(self, tmp_path, monkeypatch):
        # one record a block, so 80 records merge after the 64th block and
        # again at the end
        monkeypatch.setattr(ingest, "BLOCK_CHARS", 1)
        merged, merge = [], ingest._RawReadings._merge_blocks

        def spy(readings):
            merged.append(len(readings.blocks))
            merge(readings)

        monkeypatch.setattr(ingest._RawReadings, "_merge_blocks", spy)
        rc, _, _, data = check_ingest(tmp_path, RAW_HEAD + "\n".join(_raw_rows(days=20)) + "\n",
                                      ("--window", "3"))
        assert rc == 0 and data and merged == [64, 16]

    def test_signed_zeros_in_shuffled_rows(self, tmp_path):
        # min and max keep the first of -0.0 and 0.0 in file order, so the
        # sort that groups the cells must be stable
        rng = random.Random(5)
        rows = [f"s,{dim},2020-01-0{day}T{r % 24:02d}:00:00,{rng.choice(['0.0', '-0.0'])},a"
                for dim in "abc" for day in (1, 2, 3) for r in range(60)]
        rng.shuffle(rows)
        rc, _, _, data = check_ingest(tmp_path, RAW_HEAD + "\n".join(rows) + "\n",
                                      ("--window", "3"))
        assert rc == 0 and b"-0.0" in data and b",0.0" in data

    def test_benchmark_raw_file(self, tmp_path):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            import rawgen
        finally:
            sys.path.pop(0)
        rows = rawgen.write_raw_readings(tmp_path / "gen.csv", 3, series=8, dims=3, days=40,
                                         per_day=4)
        rc, out, err, data = check_ingest(tmp_path, (tmp_path / "gen.csv").read_bytes(),
                                          ("--window", "10"))
        assert rows > 3000 and rc == 0 and err.count("warning: ") == 8 and data

    def test_wide_key_groups_the_same(self, tmp_path, monkeypatch):
        # more (series, day, dim) combinations than an int64 key can number
        # switch to dense (series, day) ranks; a limit of 1 forces that
        text = RAW_HEAD + "\n".join(sorted(_raw_rows(sids=("c", "a", "b"), dims=("y", "x"),
                                                     days=5))) + "\n"
        want = check_ingest(tmp_path, text)

        monkeypatch.setattr(ingest, "_KEY_MAX", 1)
        assert _run_ingest(cli.cmd_ingest, tmp_path / "raw.csv", tmp_path / "ds.csv",
                           ("--window", "2")) == want

    def test_property(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        label_of = {"s1": "a", " s1": " a", "s2": "b", "s,3": "a", "s\n4": "c", "é": "b"}
        reading = st.tuples(
            st.sampled_from(sorted(label_of)),
            st.sampled_from(["x", " x "]),
            st.sampled_from(["2020-01-01", "2020-01-01T06:00:00", "2020-01-02T23:30:00-05:00",
                             "2020-01-02", "2020-01-03", "2020-01-03T01:00:00+09:00",
                             "2020-01-04"]),
            st.sampled_from(["1.5", "-0.0", "0.0", "0", " 2 ", "-1e3", "3", "1_0"]),
        ).map(lambda r: [*r, label_of[r[0]]])
        faults = {
            "short": lambda r: r[:4],
            "long": lambda r: r + [""],
            "blank": lambda r: [],
            "spaces": lambda r: ["  "],
            "stamp": lambda r: r[:2] + ["2020-13-01"] + r[3:],
            "nan": lambda r: r[:3] + ["nan"] + r[4:],
            "inf": lambda r: r[:3] + ["-inf"] + r[4:],
            "value": lambda r: r[:3] + ["1.5.1"] + r[4:],
            "label": lambda r: r[:4] + ["z"],
            "dim": lambda r: r[:1] + ["y"] + r[2:],
        }

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            records=st.lists(reading, max_size=40),
            hits=st.lists(st.tuples(st.integers(0, 39), st.sampled_from(sorted(faults))),
                          max_size=1),
            quote=st.booleans(),
            eol=st.sampled_from(["\n", "\r\n"]),
            window=st.integers(1, 3),
            stride=st.sampled_from([None, 1, 2]),
            block=st.sampled_from([1, 16, 1 << 16]),
        )
        def check(records, hits, quote, eol, window, stride, block):
            for at, fault in hits:
                if records:
                    records[at % len(records)] = faults[fault](records[at % len(records)])
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator=eol,
                                quoting=csv.QUOTE_ALL if quote else csv.QUOTE_MINIMAL)
            writer.writerow(REF_RAW_HEADER)
            writer.writerows(records)
            opts = ("--window", window) + (() if stride is None else ("--stride", stride))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "BLOCK_CHARS", block)
                check_ingest(tmp_path, buf.getvalue(), opts)

        check()


@pytest.mark.parametrize("opts", [("--window", str(2**70)),
                                  ("--window", "2", "--stride", str(2**70)),
                                  ("--window", "5", "--stride", str(2**70))])
def test_ingest_window_or_stride_past_int64(tmp_path, opts):
    """The windows are counted on int64 day counts; a --window or --stride
    that no int64 holds counts as the reference counts it."""
    check_ingest(tmp_path, RAW_HEAD + "\n".join(_raw_rows(days=5)) + "\n", opts)


# ---------------------------------------------------------------------------
# classify --mode linear


def ref_featurize(img, fc):
    """`featurize` of one image, as it was before it wrapped `featurize_stack`."""
    px = img.pixels.astype(np.float64)
    if fc.mode == "flatten":
        z = px.reshape(-1)
    else:
        if fc.q > img.n:
            raise BlockGridInvalid(f"block grid {fc.q} exceeds image size {img.n}")
        cells = np.array_split(np.arange(img.n), fc.q)
        starts = [cell[0] for cell in cells]
        sizes = np.array([len(cell) for cell in cells])
        sums = np.add.reduceat(np.add.reduceat(px, starts, axis=0), starts, axis=1)
        z = (sums / np.outer(sizes, sizes)).reshape(-1)
    norm = float(np.linalg.norm(z))
    if norm > fc.normalize_cap:
        z = z * (fc.normalize_cap / norm)
    return z


def ref_feature_matrix(features, n):
    X = None
    for i, z in enumerate(features):
        if X is None:
            X = np.empty((n, len(z)))
        elif len(z) != X.shape[1]:
            raise cli.DataError(
                f"items give features of different lengths {sorted({len(z), X.shape[1]})}; "
                "--feature-mode flatten needs images of one size"
            )
        X[i] = z
    return X


def ref_load_image_features(images_dir, fc):
    """The labels that the directory's index.csv lists, checked before any
    image is opened, and a generator of each image's feature vector."""
    index = images_dir / "index.csv"
    try:
        lines = index.read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as e:
        raise cli.DataError(f"cannot read {index}: {e}") from e
    if not lines or lines[0] != "file,item,label":
        raise cli.DataError(f"{index}: expected header file,item,label")
    names, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise cli.DataError(f"{index}:{lineno}: expected 3 fields")
        name, _, label = parts
        try:
            labels.append(int(label))
        except ValueError:
            raise cli.DataError(f"{index}:{lineno}: bad label {label!r}") from None
        names.append(name)
    if not labels:
        raise cli.DataError(f"{index}: no images listed")
    cli._check_labels(labels, index, linear=True)

    def features():
        for name in names:
            path = images_dir / name
            try:
                img = iv.load_pgm(path) if path.suffix == ".pgm" else iv.load_csv_image(path)
            except (OSError, ValueError) as e:  # each names the file
                raise cli.DataError(str(e)) from e
            yield ref_featurize(img, fc)

    return np.array(labels), features()


def ref_classify(eff):
    """`classify --mode linear` as a per-item path: the index and its labels,
    then run_config.txt, read before any image; each image featurized as it is
    imaged or read, one feature vector per image in a list, a copy of the
    training rows per run and one `predict` per test row."""
    assert eff["mode"] == "linear"
    if (eff["data"] is None) == (eff["images"] is None):
        raise cli.UsageError("pass exactly one of --data or --images")
    cli._require(eff, "outdir")
    seed = cli._check_seed(eff["seed"])
    if eff["runs"] < 1:
        raise ValueError("runs must be >= 1")
    if not 0.0 < eff["train_fraction"] < 1.0:
        raise ValueError("train-fraction must lie in (0, 1)")
    cli._check_threads(eff["threads"])
    kernel_text = str(eff["kernel"])
    kernel = cli._parse_kernel_opt(kernel_text)
    tag = eff["tag"] or Path(eff["data"] or eff["images"]).stem
    outdir = Path(eff["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    fc = classify.FeatureConfig(eff["feature_mode"], eff["blocks"], eff["cap"])
    if eff["data"] is not None:
        ds = iv.load_dataset_csv(eff["data"])
        cli._check_labels(ds.labels(), eff["data"], linear=True)
        images = ref_image_dataset(ds.series(), cli._trajectory_config(eff), kernel)
        X = ref_feature_matrix((ref_featurize(img, fc) for img in images), len(ds))
        y = ds.label_ids
    else:
        y, features = ref_load_image_features(Path(eff["images"]), fc)
        kernel_text = cli._images_kernel(Path(eff["images"]))
        X = ref_feature_matrix(features, len(y))
    report_rows = []
    for r in range(eff["runs"]):
        run_seed = seed + r
        if eff["self_test"]:
            train_idx = test_idx = list(range(len(y)))
        else:
            try:
                train_idx, test_idx = iv.dgp.split_indices(y.tolist(), eff["train_fraction"],
                                                           run_seed)
            except ValueError as e:
                raise cli.DataError(str(e)) from e
        model = classify.train(X[train_idx], y[train_idx], kind=eff["loss"],
                               steps=eff["steps"], step_size=eff["step_size"],
                               c_A=eff["c_a"], c_B=eff["c_b"])
        if not (model.weights.any() or model.biases.any()):
            print(f"warning: run {r}: no training step beat the zero model's risk, so the "
                  "model is all zeros and predicts class 1 for every item", file=sys.stderr)
        preds = [classify.predict(model, X[i]) for i in test_idx]
        acc = classify.accuracy(preds, [int(y[i]) for i in test_idx])
        model_path = outdir / f"model_run{r}.txt"
        classify.save_model(model, eff["loss"], model_path)
        report_rows.append((r, kernel_text, tag, run_seed, acc))
        print(f"run {r} (seed {run_seed}): linear accuracy {acc!r} -> {model_path}")
    report = outdir / "report.csv"
    with open(report, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "kernel", "dgp", "seed", "accuracy"])
        writer.writerows((r, k, d, s, repr(a)) for r, k, d, s, a in report_rows)
    cli._echo_config(outdir, "classify", eff)
    print(f"wrote {report}")


def _run_classify(command, argv, outdir):
    """(exit code, stdout, stderr, {name: bytes} of the outdir) of `cli.main`
    on a classify argv, with `command` as the classify command."""
    rc, out, err = _run(
        "classify", command, ["classify", *map(str, argv), "--outdir", str(outdir)]
    )
    files = {}
    if outdir.exists():
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        shutil.rmtree(outdir)
    return rc, out, err, files


def assert_models_close(got, want):
    """Model files with the same header and row lengths whose values agree
    within 1e-12 absolute."""
    got, want = got.decode().splitlines(), want.decode().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for a, b in zip(got[1:], want[1:]):
        a, b = np.array(a.split(), dtype=float), np.array(b.split(), dtype=float)
        assert a.shape == b.shape and np.allclose(a, b, atol=1e-12, rtol=0)


def check_classify(tmp, argv):
    """Run the reference and `cmd_classify` on one argv and require the same
    exit code, stdout, stderr and output files; returns that common result.

    Under flatten with p > n, `cmd_classify` trains the dual form from packed
    bits and the reference from float64 rows, so the model files of flatten
    runs are compared within 1e-12 (those with p <= n run the primal loop on
    the same float64 rows in both); every other file is compared byte for
    byte."""
    out = Path(tmp) / "out"
    want = _run_classify(ref_classify, argv, out)
    got = _run_classify(cli.cmd_classify, argv, out)
    if "flatten" in map(str, argv):
        assert got[3].keys() == want[3].keys()
        for name in [name for name in got[3] if name.startswith("model_run")]:
            assert_models_close(got[3][name], want[3][name])
            got[3][name] = want[3][name]
    assert got == want
    rc, _, err, _ = got
    assert rc in (0, 2, 3, 4) and "Traceback" not in err
    if rc:
        assert len(err.splitlines()) == 1
    return got


def _write_image_dir(path, sizes, labels, suffixes, seed=0):
    """An image directory of random images, image i of size sizes[i]."""
    path.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines = ["file,item,label"]
    for i, (N, label, suffix) in enumerate(zip(sizes, labels, suffixes)):
        density = 0.2 + 0.6 * (label % 2)
        export = iv.export_pgm if suffix == ".pgm" else iv.export_csv
        export(iv.RecurrenceImage(rng.random((N, N)) < density), path / f"x_{i}{suffix}")
        lines.append(f"x_{i}{suffix},{i},{label}")
    (path / "index.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


@pytest.fixture(scope="module")
def classify_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("classify")
    for argv in (
        ["generate", "--scenario", "mix", "--per-class", "8", "--T", "24", "--seed", "3",
         "--out", root / "mix.csv"],
        ["generate", "--scenario", "c1", "--per-class", "6", "--T", "20", "--seed", "2",
         "--out", root / "c1.csv"],
        ["image", "--data", root / "mix.csv", "--outdir", root / "pgm", "--kernel", "K4",
         "--epsilon", "0.5"],
        ["image", "--data", root / "mix.csv", "--outdir", root / "csv", "--kernel", "K1",
         "--epsilon", "0.5", "--format", "csv"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(map(str, argv))) == 0
    # under the kernel 1,2,1 only the last item's squared distances are
    # negative: fixed lower bounds, then intervals shifted whole
    rng = np.random.default_rng(4)
    upper = rng.random((12, 1, 10, 1)) + 0.1
    bounds = np.concatenate([np.zeros_like(upper), upper], axis=-1)
    bounds[-1, ..., 0] = upper[-1, ..., 0] - 0.1
    iv.save_dataset_csv(iv.LabeledDataset(bounds, np.arange(12) % 2 + 1),
                        root / "tail.csv")
    n = 21
    _write_image_dir(root / "mixed", [9 + i % 5 for i in range(n)], [1 + i % 3 for i in range(n)],
                     [(".pgm", ".csv")[i % 2] for i in range(n)])
    return root


def _inputs(root, argv):
    """argv with the names of the `classify_inputs` files made paths."""
    return [root / a if a in ("mix.csv", "c1.csv", "tail.csv", "pgm", "csv", "mixed") else a for a in argv]


# Block budgets of 1 byte, of 7 images of N = 24 and the default of 2 MiB;
# none of them changes how `classify` featurizes the 24 images of `mix`
BLOCK_BYTES = (1, 7 * 24 * 24, classify.BLOCK_BYTES)


class TestClassifyOracle:
    @pytest.mark.parametrize("block", BLOCK_BYTES)
    @pytest.mark.parametrize(
        "argv",
        [
            ("--data", "mix.csv", "--feature-mode", "flatten", "--epsilon", "0.5", "--runs", "3"),
            # q = 7 does not divide N = 24, and p = 49 is odd
            ("--data", "mix.csv", "--blocks", "7", "--epsilon", "1.0", "--runs", "3"),
            ("--data", "mix.csv", "--blocks", "5", "--epsilon", "0.5", "--self-test",
             "--runs", "2", "--loss", "exponential"),
            ("--data", "c1.csv", "--kernel", "K5", "--feature-mode", "flatten", "--epsilon",
             "1.0", "--runs", "3", "--threads", "2", "--loss", "squared_hinge"),
            ("--data", "c1.csv", "--kernel", "K5", "--feature-mode", "flatten", "--epsilon",
             "1.0", "--self-test"),
            ("--images", "pgm", "--blocks", "7", "--runs", "3"),
            ("--images", "pgm", "--feature-mode", "flatten", "--self-test"),
            ("--images", "csv", "--feature-mode", "flatten", "--runs", "1", "--cap", "30"),
            ("--images", "csv", "--blocks", "10", "--runs", "3", "--train-fraction", "0.6"),
            # N from 9 to 13 in PGM and CSV images, q = 4 and p = 16
            ("--images", "mixed", "--blocks", "4", "--runs", "3"),
            ("--images", "mixed", "--blocks", "9", "--self-test"),
            # each run builds its training rows, then its test rows, from the
            # compact rows: several runs and --self-test in both modes and from
            # both inputs; --cap 30 is above every flatten norm (N = 24), so
            # every factor is 1.0
            ("--data", "c1.csv", "--kernel", "K5", "--blocks", "6", "--epsilon", "1.0",
             "--runs", "3"),
            ("--data", "c1.csv", "--kernel", "K5", "--blocks", "6", "--epsilon", "1.0",
             "--self-test", "--runs", "2"),
            ("--data", "mix.csv", "--feature-mode", "flatten", "--epsilon", "0.5", "--cap", "30",
             "--self-test", "--runs", "2"),
            ("--images", "pgm", "--feature-mode", "flatten", "--runs", "3", "--cap", "30"),
            ("--images", "csv", "--feature-mode", "flatten", "--self-test", "--runs", "2"),
            ("--images", "csv", "--blocks", "10", "--self-test", "--runs", "2"),
        ],
    )
    def test_same_output(self, classify_inputs, tmp_path, monkeypatch, argv, block):
        monkeypatch.setattr(classify, "BLOCK_BYTES", block)
        rc, out, err, files = check_classify(tmp_path, _inputs(classify_inputs, argv))
        assert rc == 0 and "report.csv" in files
        # some run learns: the reordered rows reach train and the scoring
        assert err.count("warning: ") < out.count("linear accuracy")

    def test_flatten_peak_below_a_quarter_of_the_training_rows(self, tmp_path):
        """Under flatten `classify` trains from the packed bits and scores its
        test rows in blocks, so no run builds its training rows as float64:
        the traced peak of a paper-style classify at 120 training rows and p =
        22,500 stays below a quarter of those rows' float64 bytes."""
        data, out = tmp_path / "dgp2.csv", tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", "--dgp", "2", "--per-class", "30", "--T", "150",
                             "--out", str(data)]) == 0
        labels = iv.load_dataset_csv(data).labels()
        train_idx, _ = split.split_indices(labels, 0.8, 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(["classify", "--data", str(data), "--feature-mode", "flatten",
                                 "--outdir", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        p = int((out / "model_run0.txt").read_text().split()[1])
        assert p == 150 * 150 and len(train_idx) == 120
        assert peak < len(train_idx) * p * 8 / 4

    @pytest.mark.parametrize(
        "argv",
        [
            # flatten on mixed N; a block grid finer than the smallest image
            ("--images", "mixed", "--feature-mode", "flatten"),
            ("--images", "mixed", "--blocks", "11"),
            ("--data", "mix.csv", "--blocks", "25"),
            # imaging fails at the last item, in the last block of one; a bad
            # grid is reported at the first item, before that imaging error
            ("--data", "tail.csv", "--kernel", "1,2,1"),
            ("--data", "tail.csv", "--blocks", "11", "--kernel", "1,2,1"),
            ("--data", "tail.csv", "--blocks", "11"),
            # the first training step overflows
            ("--data", "mix.csv", "--loss", "exponential", "--step-size", "1e300",
             "--c-a", "1e300", "--c-b", "1e300", "--epsilon", "0.5"),
        ],
    )
    @pytest.mark.parametrize("block", BLOCK_BYTES[:2])
    def test_same_errors(self, classify_inputs, tmp_path, monkeypatch, argv, block):
        monkeypatch.setattr(classify, "BLOCK_BYTES", block)
        rc, _, err, _ = check_classify(tmp_path, _inputs(classify_inputs, argv))
        assert rc in (3, 4) and "warning" not in err

    def test_property(self, tmp_path):
        """Image directories with at most one fault give the reference's exit
        code, stdout, stderr and outputs, and at most one stderr line."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def truncate(path):
            path.write_bytes(path.read_bytes()[:-3])

        def header(text):
            def edit(path):
                raw = path.read_bytes()
                if path.suffix == ".pgm":
                    n = int(raw.split(b"\n")[1].split()[0])
                    path.write_bytes(text.format(n=n).encode("ascii") + raw.split(b"\n", 3)[3])
                else:
                    path.write_bytes(b"P5\n" + raw)
            return edit

        def entry(value):
            def edit(path):
                if path.suffix == ".csv":
                    path.write_bytes(path.read_bytes().replace(b"1", value, 1))
                else:
                    truncate(path)
            return edit

        def ragged(path):
            if path.suffix == ".csv":
                lines = path.read_bytes().split(b"\n")
                path.write_bytes(b"\n".join([lines[0] + b",1"] + lines[1:]))
            else:
                path.write_bytes(path.read_bytes() + b"\x00")

        def index_line(new):
            def edit(imgdir, i):
                index = imgdir / "index.csv"
                lines = index.read_text().splitlines()
                lines[1 + i] = new(lines[1 + i])
                index.write_text("\n".join(lines) + "\n")
            return edit

        file_faults = {
            "truncated": truncate,
            "p6": header("P6\n{n} {n}\n255\n"),
            "maxval": header("P5\n{n} {n}\n1\n"),
            "dims": header("P5\n{n}\n255\n"),
            "text-dims": header("P5\nn {n}\n255\n"),
            "huge-dims": header("P5\n99999999999 99999999999\n255\n"),
            "entry2": entry(b"2"),
            "entry-1": entry(b"-1"),
            "entryx": entry(b"x"),
            "ragged": ragged,
            "missing": lambda path: path.unlink(),
        }
        index_faults = {
            "fields": index_line(lambda line: line + ",1"),
            "label": index_line(lambda line: line.rsplit(",", 1)[0] + ",one"),
            "class0": index_line(lambda line: line.rsplit(",", 1)[0] + ",0"),
            "name": index_line(lambda line: "nope.pgm," + line.split(",", 1)[1]),
        }

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            n=st.integers(4, 9),
            sizes=st.lists(st.integers(2, 7), min_size=1, max_size=3),
            suffixes=st.lists(st.sampled_from([".pgm", ".csv"]), min_size=1, max_size=3),
            mode=st.sampled_from(["flatten", "block_mean"]),
            blocks=st.integers(1, 4),
            fault=st.sampled_from([None, *sorted(file_faults), *sorted(index_faults)]),
            at=st.integers(0, 8),
            block=st.sampled_from([1, 2 * 7 * 7, 1 << 21]),
            runs=st.sampled_from(["1", "--self-test"]),
        )
        @hypothesis.example(n=4, sizes=[5], suffixes=[".pgm"], mode="block_mean", blocks=1,
                            fault="huge-dims", at=1, block=1 << 21, runs="1")
        def check(n, sizes, suffixes, mode, blocks, fault, at, block, runs):
            imgdir = Path(tempfile.mkdtemp(dir=tmp_path))
            _write_image_dir(imgdir, [sizes[i % len(sizes)] for i in range(n)],
                             [1 + i % 2 for i in range(n)],
                             [suffixes[i % len(suffixes)] for i in range(n)], seed=n)
            at %= n
            if fault in file_faults:
                file_faults[fault](imgdir / f"x_{at}{suffixes[at % len(suffixes)]}")
            elif fault in index_faults:
                index_faults[fault](imgdir, at)
            argv = ["--images", imgdir, "--feature-mode", mode, "--blocks", blocks,
                    "--steps", "5", "--train-fraction", "0.5"]
            argv += ["--self-test"] if runs == "--self-test" else ["--runs", runs]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(classify, "BLOCK_BYTES", block)
                rc, _, err, _ = check_classify(imgdir, argv)
            assert len(err.splitlines()) <= 1

        check()

    @pytest.mark.parametrize("block, calls",
                             [(block, [(24, 24)] * 24) for block in BLOCK_BYTES])
    @pytest.mark.parametrize("argv", [("--data", "mix.csv", "--epsilon", "0.5"),
                                      ("--images", "pgm")])
    def test_block_budget_is_live(self, classify_inputs, tmp_path, monkeypatch, argv, block,
                                  calls):
        """Under every budget that `test_same_output` sets, each of the 24
        images is featurized on its own, one image per call."""
        seen = []
        featurize_row = classify._featurize_row

        def counted(pixels, fc):
            seen.append(pixels.shape)
            return featurize_row(pixels, fc)

        monkeypatch.setattr(classify, "_featurize_row", counted)
        monkeypatch.setattr(classify, "BLOCK_BYTES", block)
        argv = [*_inputs(classify_inputs, argv), "--steps", "5"]
        assert _run_classify(cli.cmd_classify, argv, tmp_path / "out")[0] == 0
        assert seen == calls

    def test_property_data(self, tmp_path):
        """Small datasets with at most one fault (an indefinite kernel at one
        item, --blocks above N, or a missing class id) give the reference's
        exit code, stdout, stderr and outputs under any block budget."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            n=st.integers(4, 9), d=st.integers(1, 2), T=st.integers(3, 8),
            mode=st.sampled_from(["flatten", "block_mean"]), blocks=st.integers(1, 3),
            fault=st.sampled_from([None, "indefinite", "blocks", "class"]),
            at=st.integers(0, 8), seed=st.integers(0, 2**16),
            block=st.sampled_from([1, 2 * 8 * 8, 1 << 21]),
            runs=st.sampled_from(["1", "2", "--self-test"]),
        )
        def check(n, d, T, mode, blocks, fault, at, seed, block, runs):
            # under the kernel 1,2,1 an item's squared distances are negative
            # only when its intervals are shifted whole (as in `tail.csv`)
            rng = np.random.default_rng(seed)
            upper = rng.random((n, d, T, 1)) + 0.1
            bounds = np.concatenate([np.zeros_like(upper), upper], axis=-1)
            if fault == "indefinite":
                bounds[at % n, ..., 0] = upper[at % n, ..., 0] - 0.1
            labels = np.arange(n) % 2 + 1
            if fault == "class":
                labels[labels == 2] = 3
            if fault == "blocks":
                mode, blocks = "block_mean", T + 1
            path = Path(tempfile.mkdtemp(dir=tmp_path)) / "ds.csv"
            iv.save_dataset_csv(
                iv.LabeledDataset(bounds, labels), path)
            argv = ["--data", path, "--kernel", "1,2,1", "--epsilon", "0.3", "--feature-mode",
                    mode, "--blocks", blocks, "--steps", "5", "--train-fraction", "0.5"]
            argv += ["--self-test"] if runs == "--self-test" else ["--runs", runs]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(classify, "BLOCK_BYTES", block)
                rc, _, err, _ = check_classify(path.parent, argv)
            assert (rc == 0) == (fault is None), err

        check()


class TestFeaturizeStack:
    """`featurize` and `FeatureRows.take` give `ref_featurize`'s rows."""

    # N = 13 with q = 4 and N = 150 with q = 7 leave uneven cells; q = 150
    # is q = N
    @pytest.mark.parametrize("N", [1, 7, 13, 30, 150])
    @pytest.mark.parametrize("mode,q", [("flatten", 1), ("block_mean", 1), ("block_mean", 4),
                                        ("block_mean", 7), ("block_mean", 10),
                                        ("block_mean", 150)])
    def test_rows_equal_featurize(self, N, mode, q):
        q = min(q, N)
        rng = np.random.default_rng(N * q)
        density = rng.random((40, 1, 1))
        stack = (rng.random((40, N, N)) < density).astype(np.uint8)
        for cap, images in ((1.0, stack), (0.3, stack), (1e6, stack), (1.0, stack.astype(bool))):
            fc = iv.FeatureConfig(mode=mode, q=q, normalize_cap=cap)
            features = classify.feature_matrix(iter(images), 40, fc)
            Z = features.take()
            assert Z.shape == (40, fc.length(N)) and Z.dtype == np.float64
            for pixels, z in zip(images, Z):
                img = iv.RecurrenceImage(pixels)
                assert np.array_equal(z, ref_featurize(img, fc))
                assert np.array_equal(z, iv.featurize(img, fc))
            idx = [39, 3, 3, 0]  # any rows, in the order asked
            assert np.array_equal(features.subset(idx).take(), Z[idx])

    def test_recurrence_images(self):
        ds = _uni(8, 150)
        images = [iv.image_series(s, CFG, iv.kernel_preset("K4")) for s in ds.series()]
        for fc in (iv.FeatureConfig("block_mean", 10), iv.FeatureConfig("block_mean", 7),
                   iv.FeatureConfig("flatten", normalize_cap=50.0)):
            assert all(np.array_equal(iv.featurize(img, fc), ref_featurize(img, fc))
                       for img in images)

    def test_grid_finer_than_image(self):
        with pytest.raises(BlockGridInvalid, match="block grid 5 exceeds image size 4"):
            iv.featurize(iv.RecurrenceImage(np.zeros((4, 4), np.uint8)),
                         iv.FeatureConfig("block_mean", 5))


class TestFeatureRowsTake:
    """`take` builds float64 rows equal to `ref_featurize`'s bit for bit."""

    @pytest.mark.parametrize("N", [1, 13, 30])  # p = 1 and 169 are not multiples of 8
    @pytest.mark.parametrize("mode,q", [("flatten", 1), ("block_mean", 4)])
    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    @pytest.mark.parametrize("cap", [1e-3, 2.0, 1e6])  # below, among and above the norms
    def test_rows_equal_ref_featurize(self, N, mode, q, dtype, cap):
        rng = np.random.default_rng(N)
        images = (rng.random((12, N, N)) < rng.random((12, 1, 1))).astype(dtype)
        images[0] = 0  # a zero row has norm 0 and factor 1.0 under any cap
        fc = iv.FeatureConfig(mode, min(q, N), normalize_cap=cap)
        features = classify.feature_matrix(iter(images), 12, fc)
        if mode == "flatten":  # one bit a pixel
            assert features.rows.dtype == np.uint8
            assert features.rows.shape == (12, -(-N * N // 8))
        uncapped = iv.FeatureConfig(mode, min(q, N), normalize_cap=sys.float_info.max)
        norms = [np.linalg.norm(ref_featurize(iv.RecurrenceImage(px), uncapped))
                 for px in images]
        assert np.array_equal(features.factors < 1.0, np.array(norms) > cap)
        assert features.factors[0] == 1.0 and (cap < 1e6 or (features.factors == 1.0).all())
        want = np.array([ref_featurize(iv.RecurrenceImage(px), fc) for px in images])
        for idx in ([5, 0, 11, 5], list(range(12)), slice(None), []):
            X = features.subset(idx).take()
            assert X.dtype == np.float64 and X.flags.c_contiguous
            assert X.shape == (len(want[idx]), fc.length(N))
            assert np.array_equal(X, want[idx])


class TestFeatureMatrix:
    """`feature_matrix` gives each image `featurize`'s row, whatever
    ``BLOCK_BYTES`` is: it featurizes each image on its own."""

    @staticmethod
    def rows(images, fc):
        return np.array([iv.featurize(iv.RecurrenceImage(px), fc) for px in images])

    @pytest.mark.parametrize("block", [1, 3 * 30 * 30, classify.BLOCK_BYTES])
    @pytest.mark.parametrize("mode,q,cap", [("flatten", 1, 20.0), ("block_mean", 7, 0.5),
                                            ("block_mean", 10, 1.0)])
    def test_rows_equal_featurize_stack(self, monkeypatch, block, mode, q, cap):
        rng = np.random.default_rng(q)
        images = rng.random((10, 30, 30)) < rng.random((10, 1, 1))
        fc = iv.FeatureConfig(mode, q, normalize_cap=cap)
        monkeypatch.setattr(classify, "BLOCK_BYTES", block)
        X = classify.feature_matrix(iter(images), 10, fc).take()
        assert X.dtype == np.float64 and np.array_equal(X, self.rows(images, fc))

    @pytest.mark.parametrize("block", [1, 4 * 12 * 12, classify.BLOCK_BYTES])
    def test_source_reusing_one_buffer(self, monkeypatch, block):
        """Each array is copied before the next is taken: a source that
        overwrites one buffer, after its last image too, gives the same rows."""
        images = np.random.default_rng(1).random((9, 12, 12)) < 0.4

        def reused():
            buf = np.empty((12, 12), dtype=bool)
            for pixels in images:
                buf[...] = pixels
                yield buf
                buf[...] = True
        monkeypatch.setattr(classify, "BLOCK_BYTES", block)
        for fc in (iv.FeatureConfig("block_mean", 5), iv.FeatureConfig("flatten")):
            X = classify.feature_matrix(reused(), 9, fc).take()
            assert np.array_equal(X, self.rows(images, fc))

    @pytest.mark.parametrize("block", [1, 2 * 13 * 13, classify.BLOCK_BYTES])
    def test_mixed_sizes_under_block_mean(self, monkeypatch, block):
        rng = np.random.default_rng(2)
        images = [rng.random((N, N)) < 0.5 for N in (9, 9, 13, 13, 13, 10, 9, 9, 9, 12)]
        fc = iv.FeatureConfig("block_mean", 4)
        monkeypatch.setattr(classify, "BLOCK_BYTES", block)
        X = classify.feature_matrix(images, len(images), fc).take()
        assert np.array_equal(X, self.rows(images, fc))
        assert all(np.array_equal(x, ref_featurize(iv.RecurrenceImage(px), fc))
                   for px, x in zip(images, X))

    def test_grid_finer_than_an_image_raised_at_it(self):
        taken = []

        def source():
            for N in (6, 6, 3, 6, 6):
                taken.append(N)
                yield np.zeros((N, N), dtype=bool)
        with pytest.raises(BlockGridInvalid, match="^block grid 4 exceeds image size 3$"):
            classify.feature_matrix(source(), 5, iv.FeatureConfig("block_mean", 4))
        assert taken == [6, 6, 3]

    @pytest.mark.parametrize("dtype,value", [(np.uint8, 2), (np.int64, -1), (np.float64, 0.5),
                                             (np.float64, 2.0), (np.float64, np.nan)])
    def test_flatten_needs_binary_pixels(self, dtype, value):
        """Flatten rows are stored as bits, so a pixel other than 0 or 1 is an
        error naming the image, not a silent 1; 0/1 arrays of any dtype pass."""
        images = np.random.default_rng(6).integers(0, 2, (4, 5, 5)).astype(dtype)
        fc = iv.FeatureConfig("flatten", normalize_cap=100.0)
        X = classify.feature_matrix(iter(images), 4, fc).take()
        assert np.array_equal(X, images.reshape(4, 25))
        images[2, 3, 1] = value
        with pytest.raises(ValueError, match=f"^image 2 has pixel value {dtype(value).item()!r}; "
                           "flatten features need pixels of 0 or 1$"):
            classify.feature_matrix(iter(images), 4, fc)

    def test_flatten_size_mismatch_raised_at_the_image(self):
        """Features of different lengths are reported at the first image whose
        length differs, so an error that the source raises later is never reached."""
        taken = []

        def source():
            for N in (4, 4, 5, 4):
                taken.append(N)
                yield np.zeros((N, N), dtype=bool)
            raise ValueError("late source error")
        with pytest.raises(LengthMismatch, match=r"^items give features of different lengths "
                           r"\[16, 25\]; --feature-mode flatten needs images of one size$"):
            classify.feature_matrix(source(), 4, iv.FeatureConfig("flatten"))
        assert taken == [4, 4, 5]

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_count_other_than_n(self, count):
        images = np.zeros((count, 3, 3), dtype=bool)
        with pytest.raises(LengthMismatch, match=f"^{count} images for a matrix of n = 3 rows$"):
            classify.feature_matrix(images, 3, iv.FeatureConfig("flatten"))

    def test_no_images(self):
        features = classify.feature_matrix([], 0, iv.FeatureConfig("flatten"))
        assert features.take().shape == (0, 0)

    def test_flatten_writes_straight_into_rows(self):
        """Under flatten each image is packed into its row of bits as it is
        taken: the traced peak exceeds the bits by less than 128 KiB, a few
        boolean copies of one image, where float64 rows would take 20 MiB."""
        images = np.random.default_rng(3).random((100, 160, 160)) < 0.3
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            features = classify.feature_matrix(iter(images), 100, iv.FeatureConfig("flatten"))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert features.rows.shape == (100, 160 * 160 // 8)
        assert peak - features.rows.nbytes < 2**17

    def test_block_mean_holds_one_image(self):
        """Under block_mean the traced peak beyond the rows stays below two
        float64 copies of one image: featurization holds one image at a time."""
        images = np.random.default_rng(4).random((400, 160, 160)) < 0.3
        fc = iv.FeatureConfig("block_mean", 10)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            features = classify.feature_matrix(iter(images), 400, fc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(features.take(), self.rows(images, fc))
        assert peak - features.rows.nbytes < 2 * 8 * 160 * 160


class TestPredictRows:
    @pytest.mark.parametrize("p", [1, 49, 22500])
    def test_rows_equal_predict(self, p):
        rng = np.random.default_rng(p)
        X = rng.random((60, p))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        W = rng.standard_normal((3, p))
        model = classify.LinearClassifier(W / np.linalg.norm(W, axis=1, keepdims=True),
                                          rng.uniform(-0.1, 0.1, 3))
        want = [ref_predict(model, z) for z in X]
        assert [classify.predict(model, z) for z in X] == want
        assert classify.predict_rows(model, X).tolist() == want
        assert classify.predict_rows(model, X[17:40]).tolist() == want[17:40]

    def test_ties_go_to_the_lowest_class(self):
        model = classify.LinearClassifier(np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5]]),
                                          np.zeros(3))
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        assert classify.predict_rows(model, X).tolist() == [1, 3, 1, 1]

    # BLOCK_BYTES = 1 gives blocks of one row, rows = 3 blocks of 3 rows (which
    # divide none of the counts below), None the default's one block
    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("mode", ["flatten", "block_mean"])
    def test_feature_rows_equal_their_float_rows(self, monkeypatch, rows, mode):
        """A FeatureRows, scored in blocks within BLOCK_BYTES, gets the
        predictions of its `take()` rows; under flatten p = 1369 spans two bit
        chunks and is not a multiple of 8."""
        if mode == "flatten":
            F = bit_rows(40, 37, 5.0, 7)
        else:
            images = np.random.default_rng(8).random((40, 37, 37)) < 0.2
            F = classify.feature_matrix(images, 40, classify.FeatureConfig("block_mean", 6, 0.5))
        if rows is not None:
            monkeypatch.setattr(classify, "BLOCK_BYTES", 1 if rows == 1 else rows * 8 * F.p)
        rng = np.random.default_rng(9)
        W = rng.standard_normal((4, F.p))
        model = classify.LinearClassifier(W / np.linalg.norm(W, axis=1, keepdims=True),
                                          rng.uniform(-0.1, 0.1, 4))
        for G in (F, F.subset([39, 2, 2, 17, 0, 31, 8]), F.subset(slice(1, 39, 3)),
                  F.subset([])):
            got, want = classify.predict_rows(model, G), classify.predict_rows(model, G.take())
            assert got.dtype == want.dtype and got.shape == (len(G.factors),)
            assert np.array_equal(got, want)
        assert len(set(classify.predict_rows(model, F).tolist())) > 1  # not one class for all


# ---------------------------------------------------------------------------
# save_model


def ref_save_model(clf, kind, path):
    """`save_model` joining every row's text before one write."""
    lines = [f"{clf.n_classes} {clf.dim} {clf.c_A!r} {clf.c_B!r} {kind}"]
    for row, bias in zip(clf.weights, clf.biases):
        lines.append(" ".join(repr(float(v)) for v in row) + " " + repr(float(bias)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


class TestSaveModel:
    @pytest.mark.parametrize("C, p", [(1, 0), (2, 1), (3, 7), (5, 400)])
    def test_same_bytes(self, tmp_path, C, p):
        rng = np.random.default_rng(C * 100 + p)
        weights = rng.standard_normal((C, p)) * 10.0 ** rng.integers(-320, 2, size=(C, p))
        weights.flat[:3] = [-0.0, 5e-324, 0.1][: weights.size]
        weights /= max(1.0, np.linalg.norm(weights, axis=1).max())
        biases = rng.uniform(-0.5, 0.5, C)
        biases[0] = -0.0
        clf = iv.LinearClassifier(weights, biases, c_A=1.0, c_B=0.5)
        for kind in ("hinge", "exponential"):
            ref_save_model(clf, kind, tmp_path / "want.txt")
            iv.save_model(clf, kind, tmp_path / "got.txt")
            assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
            assert iv.load_model(tmp_path / "got.txt")[1] == kind

    def test_traced_peak_below_the_file_size(self, tmp_path):
        """One row's text at a time: at C = 10 the file holds ten rows."""
        rng = np.random.default_rng(1)
        clf = iv.LinearClassifier(rng.standard_normal((10, 10_000)) * 1e-3,
                                  rng.uniform(-1.0, 1.0, 10))
        path = tmp_path / "model.txt"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            iv.save_model(clf, "hinge", path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * path.stat().st_size

    def test_long_row_in_bounded_chunks(self, tmp_path):
        """A 100,000-weight row is never held as text all at once (about 2 MB)."""
        rng = np.random.default_rng(2)
        clf = iv.LinearClassifier(rng.standard_normal((1, 100_000)) * 1e-3, np.array([0.25]))
        path = tmp_path / "model.txt"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            iv.save_model(clf, "hinge", path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        ref_save_model(clf, "hinge", tmp_path / "want.txt")
        assert path.read_bytes() == (tmp_path / "want.txt").read_bytes()
