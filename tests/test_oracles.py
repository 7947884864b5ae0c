"""Whole-array hot paths pinned to the per-item loops they replaced.

Each reference below is the loop version kept as an oracle.  The rewrites do
the same float operations in the same order, so results must be equal, not
merely close: `np.array_equal` or `==` throughout.
"""

import math
import random
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import ivtskit as iv
from ivtskit import classify, theory
from ivtskit.classify import _aux_loss_vec, _aux_subgradient_vec, _margins
from ivtskit.intervals import series_dk_squared

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


def ref_pair_distance(query, item, kernel):
    if isinstance(query, iv.MvIntervalSeries):
        return sum(
            series_dk_squared(query.dimension(j), item.dimension(j), kernel)
            for j in range(query.d)
        )
    return series_dk_squared(query, item, kernel)


def ref_knn(train, query, k, kernel):
    dists = np.array([ref_pair_distance(query, item, kernel) for item, _ in train.items])
    order = np.argsort(dists, kind="stable")[:k]
    votes, totals = {}, {}
    for idx in order:
        label = train.items[idx][1]
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
            rows.append(iv.IntervalSeries(np.array([steps[t] for t in range(len(steps))])))
        series = rows[0] if len(rows) == 1 else iv.MvIntervalSeries(rows)
        items.append((series, item_labels[item]))
    if len(dims_seen) != 1:
        raise ValueError(f"{path}: items disagree on dimension count: {sorted(dims_seen)}")
    return iv.LabeledDataset(tuple(items), n_classes=max(item_labels.values()))


def ref_train(features, labels, kind, steps, step_size=0.5, c_A=1.0, c_B=1.0):
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n, p = X.shape
    n_classes = int(y.max())
    w = np.zeros((n_classes, p))
    b = np.zeros(n_classes)

    def risk(wm, bv):
        margins, _ = _margins(X @ wm.T + bv, y)
        return float(_aux_loss_vec(kind, margins).mean())

    best_risk, best_w, best_b = risk(w, b), w.copy(), b.copy()
    rows = np.arange(n)
    for t in range(1, steps + 1):
        margins, best_other = _margins(X @ w.T + b, y)
        g = _aux_subgradient_vec(kind, margins)
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


def _ref_cfg(rho, T, seed, truncation_L, burn_in):
    return iv.DgpConfig(rho=rho, T=T, truncation_L=truncation_L, burn_in=burn_in, seed=seed)


def ref_build_univariate(dgp_id, per_class_n, T, rho_grid, seed=0, truncation_L=100,
                         burn_in=100):
    gen = iv.dgp._GENERATORS[dgp_id]
    items, item_index = [], 0
    for label, rho in enumerate(rho_grid, start=1):
        cfg = _ref_cfg(rho, T, seed, truncation_L, burn_in)
        for _ in range(per_class_n):
            cr = gen(cfg, iv.dgp._item_rng(seed, item_index))
            items.append((iv.to_interval_series(cr), label))
            item_index += 1
    return iv.LabeledDataset(tuple(items), n_classes=len(rho_grid))


def ref_build_c1(per_class_n, T, rho_grid, seed=0, truncation_L=100, burn_in=100):
    items, item_index = [], 0
    for label, dgp_id in enumerate(sorted(iv.dgp._GENERATORS), start=1):
        gen = iv.dgp._GENERATORS[dgp_id]
        for _ in range(per_class_n):
            rows = []
            for dim, rho in enumerate(rho_grid):
                cfg = _ref_cfg(rho, T, seed, truncation_L, burn_in)
                cr = gen(cfg, iv.dgp._item_rng(seed, item_index, dim))
                rows.append(iv.to_interval_series(cr))
            items.append((iv.MvIntervalSeries(rows), label))
            item_index += 1
    return iv.LabeledDataset(tuple(items), n_classes=len(iv.dgp._GENERATORS))


def ref_build_c2(per_class_n, T, rho_grid, seed=0, truncation_L=100, burn_in=100):
    items, item_index = [], 0
    for label, rho in enumerate(rho_grid, start=1):
        cfg = _ref_cfg(rho, T, seed, truncation_L, burn_in)
        for _ in range(per_class_n):
            rows = []
            for dim, dgp_id in enumerate(sorted(iv.dgp._GENERATORS)):
                gen = iv.dgp._GENERATORS[dgp_id]
                cr = gen(cfg, iv.dgp._item_rng(seed, item_index, dim))
                rows.append(iv.to_interval_series(cr))
            items.append((iv.MvIntervalSeries(rows), label))
            item_index += 1
    return iv.LabeledDataset(tuple(items), n_classes=len(rho_grid))


def ref_build_mix(per_class_n, T, rho, seed=0, truncation_L=100, burn_in=100):
    items, item_index = [], 0
    for label, dgp_id in enumerate(sorted(iv.dgp._GENERATORS), start=1):
        gen = iv.dgp._GENERATORS[dgp_id]
        cfg = _ref_cfg(rho, T, seed, truncation_L, burn_in)
        for _ in range(per_class_n):
            cr = gen(cfg, iv.dgp._item_rng(seed, item_index))
            items.append((iv.to_interval_series(cr), label))
            item_index += 1
    return iv.LabeledDataset(tuple(items), n_classes=len(iv.dgp._GENERATORS))


# ---------------------------------------------------------------------------
# fixtures at the benchmark's shapes


def _uni(per_class, T, seed=0):
    return iv.build_univariate_dataset(2, per_class_n=per_class, T=T, seed=seed)


def _c1(per_class, T, seed=0):
    return iv.build_multivariate_c1(per_class_n=per_class, T=T, seed=seed)


def assert_same_dataset(a, b):
    assert a.n_classes == b.n_classes
    assert len(a) == len(b)
    for (sa, la), (sb, lb) in zip(a.items, b.items):
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
        assert got.multivariate == want.multivariate
        assert_same_dataset(got, want)

    def test_one_dimension_c1_items_stay_multivariate(self):
        ds = iv.build_multivariate_c1(1, 8, (0.3,))
        assert ds.dim() == 1
        assert all(isinstance(s, iv.MvIntervalSeries) and s.d == 1 for s in ds.series())


# ---------------------------------------------------------------------------
# featurize(block_mean)


class TestBlockMean:
    @pytest.mark.parametrize("T", [30, 150])
    @pytest.mark.parametrize("q", [10, 7, 1])
    def test_recurrence_images(self, T, q):
        ds = _uni(2, T)
        for kernel in KERNELS:
            for series in ds.series():
                img = iv.irp(series, CFG, iv.kernel_preset(kernel))
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
    preds = classify.knn_predict(train, queries, k, kernel)
    X = train.bounds
    for q, pred in zip(queries, preds):
        want, dists = ref_knn(train, q, k, kernel)
        assert pred == want
        assert classify.knn_classify(train, q, k, kernel) == want
        got = classify._scan(iv.intervals.as_grid(q)[None], X, kernel)[0]
        assert np.array_equal(got, dists)


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
        monkeypatch.setattr(classify, "_KNN_BLOCK", block)
        assert classify.knn_predict(train, queries, 3, kernel) == want

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
            train = iv.LabeledDataset(tuple(zip(series[:n], labels)), n_classes=3)
            k = 1 + int(k_frac * (n - 1))
            _check_knn(train, series[n:], k, iv.Kernel2x2(*entries))

        check()


# ---------------------------------------------------------------------------
# dataset CSV


class TestCsvLoader:
    @pytest.mark.parametrize("make", [lambda: _uni(120, 150), lambda: _c1(10, 150)])
    def test_benchmark_shapes(self, tmp_path, make):
        path = tmp_path / "ds.csv"
        iv.save_dataset_csv(make(), path)
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
            series = [iv.MvIntervalSeries(g) if d > 1 else iv.IntervalSeries(g[0]) for g in grid]
            labels = rng.integers(1, 4, size=n).tolist()
            iv.save_dataset_csv(iv.LabeledDataset(tuple(zip(series, labels)), 3), path)
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
    @pytest.mark.parametrize(
        "n,p,C,steps",
        [(480, 100, 5, 500), (120, 22500, 3, 60)],
    )
    @pytest.mark.parametrize("kind", ["hinge", "squared_hinge", "exponential"])
    def test_benchmark_shapes(self, n, p, C, steps, kind):
        rng = np.random.default_rng(p)
        X = rng.random((n, p))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = np.arange(n) % C + 1
        model = iv.train(X, y, kind=kind, steps=steps)
        w, b = ref_train(X, y, kind, steps)
        assert np.array_equal(model.weights, w)
        assert np.array_equal(model.biases, b)


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
        got = [theory._one_draw(X, c_A, c_B, varrho, 200, 3, i) for i in range(16)]
        assert got == want
        est = iv.empirical_offset_rademacher(X, c_A, c_B, varrho, mc_draws=16,
                                             inner_steps=200, seed=3)
        assert est.value == float(np.mean(want))
        assert theory._one_draw(X, c_A, c_B, varrho, 0, 3, 0) == 0.0


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
        assert np.array_equal(iv.gen_dgp2(cfg, None, residuals=injected),
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
        monkeypatch.setattr(theory, "_MC_BLOCK", 8 * 50)  # blocks of 8 draws
        self._check(X, 21, 40)

    def test_wide_features_split_the_draws(self):
        X = _mc_features(30, 40000)
        assert theory._MC_BLOCK // 40000 < 10
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
# CSV images


def ref_export_csv(img):
    return "\n".join(",".join(str(int(v)) for v in row) for row in img.pixels) + "\n"


def ref_load_csv_image(path):
    rows = [
        [int(v) for v in line.split(",")]
        for line in Path(path).read_text(encoding="ascii").splitlines()
        if line
    ]
    return iv.RecurrenceImage(np.array(rows, dtype=np.uint8))


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
